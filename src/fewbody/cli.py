"""Command-line front end.

Three verbs: `hom` pushes named two-particle states through a
beamsplitter and checks the frozen interference outcomes, `density`
renders single/conditional density maps (and flux fields on a square)
to CSV and portable heatmaps, `verify` runs the identity suite.

Configuration is a flat key=value text file; command-line flags and
the FEWBODY_OUTPUT_DIR environment variable override it.  All outputs
are deterministic for a fixed configuration.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import density_maps, float_text, fock_engine, orbitals
from .exact import rational, sqrt_rational
from .fock_engine import Mode, StateVector, apply_mode_transform, beamsplitter
from .spin_algebra import UP, family_3, family_4, recoupling_identity, spin_overlap
from .wavefunction_algebra import (
    GENERIC_ASSIGNMENT,
    assemble_state,
    collapsed_trace,
    full_overlap,
    marginalize,
    spin_trace_pair,
)

HBAR_LABEL = "H̄"


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; fields unused by a verb are ignored."""

    name: str = "experiment"
    geometry: str = "triangle"
    a: float = 2.0
    h: float = 2.5
    b: float = 2.5
    statistics: str = "fermion"
    c1_magnitude: float = 1.0
    c1_phase: float = 0.0
    c2_magnitude: float = 0.0
    c2_phase: float = 0.0
    x_min: float = -6.0
    x_max: float = 6.0
    y_min: float = -6.0
    y_max: float = 6.0
    nx: int = 256
    ny: int = 256
    conditioning_points: tuple[tuple[float, float], ...] = ()
    output_dir: str = "out"
    input: str = "HH"
    convention: str = "optical"
    theta: float = math.pi / 4

    def grid_spec(self) -> density_maps.GridSpec:
        return density_maps.GridSpec(
            (self.x_min, self.x_max), (self.y_min, self.y_max), (self.nx, self.ny)
        )


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return "; ".join(f"{p[0]!r},{p[1]!r}" for p in value)
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def _parse_points(text: str) -> tuple[tuple[float, float], ...]:
    text = text.strip()
    if not text:
        return ()
    points = []
    try:
        for chunk in text.split(";"):
            xs, ys = chunk.split(",")
            points.append((float(xs), float(ys)))
    except ValueError:
        raise ValueError(f"conditioning_points must read 'x,y; x,y; ...', not {text!r}") from None
    return tuple(points)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value format; unknown keys are rejected."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, val)
    return ExperimentConfig(**values)


def _coerce(key: str, val: str):
    if key == "conditioning_points":
        return _parse_points(val)
    default = getattr(ExperimentConfig(), key)
    if isinstance(default, int):
        return int(val)
    if isinstance(default, float):
        return float(val)
    return val


def apply_overrides(config: ExperimentConfig, pairs: Iterable[str]) -> ExperimentConfig:
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, _, val = pair.partition("=")
        key = key.strip()
        if key not in {f.name for f in fields(ExperimentConfig)}:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = _coerce(key, val.strip())
    return replace(config, **updates) if updates else config


@dataclass(frozen=True)
class AssertionResult:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RunReport:
    """Outcome of one CLI run: assertions, summaries, files written."""

    name: str
    inputs: tuple[tuple[str, str], ...]
    assertions: tuple[AssertionResult, ...]
    summaries: tuple[tuple[str, str], ...] = ()
    files: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def render(self) -> str:
        lines = [f"== {self.name} =="]
        for key, val in self.inputs:
            lines.append(f"   {key}: {val}")
        for a in self.assertions:
            mark = "PASS" if a.passed else "FAIL"
            suffix = f"  ({a.detail})" if a.detail else ""
            lines.append(f"[{mark}] {a.label}{suffix}")
        for key, val in self.summaries:
            lines.append(f"   {key} = {val}")
        for path in self.files:
            lines.append(f"   wrote {path}")
        lines.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# -- hom ---------------------------------------------------------------

RT2 = 1.0 / math.sqrt(2.0)

#: alternative input names -> the canonical name of the same state
HOM_ALIASES = {
    "triplet0": "HV-sym",
    "singlet": "HV-antisym",
    "aa": "HH",
    "bb": "VV",
    "ab-sym": "HV-sym",
    "ab-antisym": "HV-antisym",
}

#: canonical input -> (amplitude, ((site, "up" | "down"), ...)) terms
HOM_INPUTS = {
    "HH": ((1.0, ((1, "up"), (2, "up"))),),
    "VV": ((1.0, ((1, "down"), (2, "down"))),),
    "HV-sym": ((RT2, ((1, "up"), (2, "down"))), (RT2, ((1, "down"), (2, "up")))),
    "HV-antisym": ((RT2, ((1, "up"), (2, "down"))), (-RT2, ((1, "down"), (2, "up")))),
}

#: (convention, statistics, canonical input) -> the frozen splitter outcome:
#: a factor on the input, which is then an eigenstate of the splitter at any
#: angle, or the output terms of the balanced splitter
HOM_OUTCOMES = {
    ("optical", "boson", "HH"): ((0.5, ((1, "up"), (1, "up"))), (-0.5, ((2, "up"), (2, "up")))),
    ("optical", "boson", "VV"): (
        (0.5, ((1, "down"), (1, "down"))),
        (-0.5, ((2, "down"), (2, "down"))),
    ),
    ("optical", "boson", "HV-sym"): (
        (RT2, ((1, "up"), (1, "down"))),
        (-RT2, ((2, "up"), (2, "down"))),
    ),
    ("optical", "boson", "HV-antisym"): -1.0,
    ("optical", "fermion", "HH"): -1.0,
    ("optical", "fermion", "VV"): -1.0,
    ("optical", "fermion", "HV-sym"): -1.0,
    ("optical", "fermion", "HV-antisym"): (
        (RT2, ((1, "up"), (1, "down"))),
        (-RT2, ((2, "up"), (2, "down"))),
    ),
    ("atomic", "boson", "HH"): (
        (-0.5j, ((1, "up"), (1, "up"))),
        (-0.5j, ((2, "up"), (2, "up"))),
    ),
    ("atomic", "boson", "HV-sym"): (
        (-1j * RT2, ((1, "up"), (1, "down"))),
        (-1j * RT2, ((2, "up"), (2, "down"))),
    ),
    ("atomic", "boson", "HV-antisym"): 1.0,
}


def _two_particle(statistics: str, convention: str, terms) -> StateVector:
    if convention == "atomic":
        spins = {"up": "a", "down": "b"}
    elif statistics == "fermion":
        spins = {"up": "H", "down": HBAR_LABEL}
    else:
        spins = {"up": "H", "down": "V"}
    state = StateVector.zero(statistics)
    for amp, modes in terms:
        state = state + fock_engine.basis_state(
            statistics, [Mode(site, spins[spin]) for site, spin in modes], amp
        )
    return state


def _canonical_input(name: str) -> str:
    key = HOM_ALIASES.get(name, name)
    if key not in HOM_INPUTS:
        raise ValueError(f"unknown input state {name!r}")
    return key


@functools.cache  # a shared StateVector is safe: it is frozen
def _hom_input(statistics: str, convention: str, name: str) -> StateVector:
    return _two_particle(statistics, convention, HOM_INPUTS[_canonical_input(name)])


@functools.cache
def _hom_input_summary(statistics: str, convention: str, name: str) -> tuple[str, float, float]:
    """The named input's printed form, norm and bunching probability."""
    state = _hom_input(statistics, convention, name)
    return _format_state(state), state.norm(), _bunching_probability(state)


def _frozen_outcome(
    statistics: str, convention: str, name: str, theta: float
) -> tuple[StateVector, float] | None:
    """Expected output and comparison tolerance for the reference cases.

    Eigenstate cases scale by the transform determinant and hold at any
    mixing angle; the remaining cases need the balanced splitter, so a
    slightly off angle widens the tolerance proportionally.
    """
    outcome = HOM_OUTCOMES.get((convention, statistics, _canonical_input(name)))
    if isinstance(outcome, float):
        return _hom_input(statistics, convention, name).scaled(outcome), 1e-12
    off_balance = abs(theta - math.pi / 4)
    if outcome is None or off_balance > 1e-9:
        return None
    return _two_particle(statistics, convention, outcome), 1e-12 + 4.0 * off_balance


def _format_state(state: StateVector) -> str:
    if state.is_zero():
        return "0"
    pieces = []
    for occ, amp in state.terms:
        ket = " ".join(f"{n}_{m.site}{m.spin}" for m, n in occ.occupancy) or "vac"
        pieces.append(f"({amp.real:+.6f}{amp.imag:+.6f}i)|{ket}>")
    return " + ".join(pieces)


def _bunching_probability(state: StateVector) -> float:
    total = 0.0
    for occ, amp in state.terms:
        sites = {m.site for m, _ in occ.occupancy}
        if len(sites) == 1:
            total += abs(amp) ** 2
    return total


def run_hom(config: ExperimentConfig) -> RunReport:
    """Send a named two-particle state through the configured splitter."""
    statistics = config.statistics
    convention = config.convention
    state_in = _hom_input(statistics, convention, config.input)
    text_in, norm_in, bunching_in = _hom_input_summary(statistics, convention, config.input)
    transform = beamsplitter(config.theta, convention)
    state_out = apply_mode_transform(state_in, transform)

    assertions = []
    reference = _frozen_outcome(statistics, convention, config.input, config.theta)
    if reference is not None:
        expected, tolerance = reference
        residual = max(
            (abs(amp) for _, amp in (state_out - expected).terms), default=0.0
        )
        assertions.append(
            AssertionResult(
                f"reference outcome for {config.input}",
                residual <= tolerance,
                f"max amplitude deviation {residual:.3e}",
            )
        )
    norm_drift = abs(state_out.norm() - norm_in)
    assertions.append(
        AssertionResult("norm preserved", norm_drift <= 1e-12, f"drift {norm_drift:.3e}")
    )

    return RunReport(
        name=f"hom:{config.name}",
        inputs=(
            ("statistics", statistics),
            ("convention", convention),
            ("theta", repr(config.theta)),
            ("input", f"{config.input} = {text_in}"),
            ("output", _format_state(state_out)),
        ),
        assertions=tuple(assertions),
        summaries=(
            ("bunching probability (input)", f"{bunching_in:.6f}"),
            ("bunching probability (output)", f"{_bunching_probability(state_out):.6f}"),
        ),
    )


# -- density -----------------------------------------------------------


#: values formatted per float_text.join call: its scratch arrays stay in cache
CSV_CHUNK = 4096


def _write_csv(grid: density_maps.DensityGrid, path: Path) -> None:
    spec = grid.spec
    nx, ny = spec.resolution
    header = (
        f"# {spec.x_range[0]!r} {spec.x_range[1]!r} "
        f"{spec.y_range[0]!r} {spec.y_range[1]!r} "
        f"{nx} {ny}\n"
    )
    # repr(float) of every value: a scalar row on one line, a flux row as
    # one "jx,jy" line per point
    period = b"," * (ny - 1) + b"\n" if grid.values.ndim == 2 else b",\n"
    separators = np.frombuffer(period, np.uint8)
    values = grid.values.astype(float, copy=False).reshape(-1)
    with path.open("wb") as fh:
        fh.write(header.encode())
        for start in range(0, len(values), CSV_CHUNK):
            chunk = values[start : start + CSV_CHUNK]
            cycle = np.arange(start, start + len(chunk)) % len(separators)
            fh.write(float_text.join(chunk, separators[cycle]))


def _grayscale(values: np.ndarray) -> np.ndarray:
    peak = float(values.max())
    scaled = values / peak if peak > 0 else values
    return np.clip(np.round(scaled * 255.0), 0, 255).astype(np.uint8)


def _image_rows(grid_values: np.ndarray) -> np.ndarray:
    # image rows scan top y to bottom; grid axis 0 is x, axis 1 is y
    return grid_values.T[::-1, :]


def _write_pgm(grid: density_maps.DensityGrid, path: Path) -> None:
    values = grid.values if grid.values.ndim == 2 else np.hypot(
        grid.values[..., 0], grid.values[..., 1]
    )
    img = _image_rows(_grayscale(values))
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + img.tobytes())


def _write_ppm(
    grid: density_maps.DensityGrid, path: Path, marker: tuple[float, float] | None = None
) -> None:
    gray = _image_rows(_grayscale(grid.values))
    rgb = np.stack([gray, gray, gray], axis=-1)
    if marker is not None:
        xs, ys = grid.spec.axes()
        i = int(np.argmin(np.abs(xs - marker[0])))
        j = int(np.argmin(np.abs(ys - marker[1])))
        row = gray.shape[0] - 1 - j
        col = i
        arm = max(2, gray.shape[0] // 64)
        for d in range(-arm, arm + 1):
            r, c = row + d, col + d
            if 0 <= r < rgb.shape[0]:
                rgb[r, col] = (255, 0, 0)
            if 0 <= c < rgb.shape[1]:
                rgb[row, c] = (255, 0, 0)
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + rgb.tobytes())


def _density_inputs(
    config: ExperimentConfig,
) -> tuple[int, dict[str, orbitals.MolecularOrbital], density_maps.GridSpec]:
    """The particle count, orbitals and grid of a density run: a triangle
    carries 3 particles, a rectangle 4.  ValueError on an invalid input."""
    if config.geometry == "triangle":
        n, mos = 3, orbitals.triangle_mos(config.a, config.h)
    elif config.geometry == "rectangle":
        n, mos = 4, orbitals.rectangle_mos(config.a, config.b)
    else:
        raise ValueError(f"unknown geometry {config.geometry!r}")
    if config.statistics not in ("fermion", "boson"):
        raise ValueError(f"unknown statistics {config.statistics!r}")
    return n, mos, config.grid_spec()


def run_density(config: ExperimentConfig) -> RunReport:
    """Render the configured geometry's density maps and flux fields."""
    n, mos, spec = _density_inputs(config)
    assertions = []
    summaries = []
    manifest = []

    single = density_maps.single_density(n, mos, spec)
    integral = single.integral()
    assertions.append(
        AssertionResult(
            "single density integrates to 1",
            abs(integral - 1.0) <= 1e-3,
            f"integral {integral:.6f}",
        )
    )

    kernel = density_maps.pair_density(n, mos, config.statistics)
    other = density_maps.pair_density(
        n, mos, "boson" if config.statistics == "fermion" else "fermion"
    )
    collapsed = density_maps.PairDensityKernel(
        marginalize(collapsed_trace(assemble_state(n, "low", config.statistics)), (1, 2)), mos
    )
    rng = np.random.default_rng(0)
    pts = rng.uniform(-4.0, 4.0, size=(2000, 4))
    base = kernel((pts[:, 0], pts[:, 1]), (pts[:, 2], pts[:, 3]))
    dual = collapsed((pts[:, 0], pts[:, 1]), (pts[:, 2], pts[:, 3]))
    cross = other((pts[:, 0], pts[:, 1]), (pts[:, 2], pts[:, 3]))
    dual_residual = float(np.max(np.abs(base - dual)))
    stats_residual = float(np.max(np.abs(base - cross)))
    assertions.append(
        AssertionResult(
            "dual-construction pair kernels agree",
            dual_residual <= 1e-10,
            f"max deviation {dual_residual:.3e}",
        )
    )
    assertions.append(
        AssertionResult(
            "statistics-independent pair kernel",
            stats_residual <= 1e-10,
            f"max deviation {stats_residual:.3e}",
        )
    )

    report = density_maps.antibunching_check(kernel, single, spec)
    assertions.append(
        AssertionResult(
            "antibunched at all qualifying points",
            report.antibunched,
            f"max ratio {report.max_ratio:.6f} at {report.location}",
        )
    )
    summaries.append(("antibunching points checked", str(report.points_checked)))

    points = config.conditioning_points or tuple(
        site.center for _, site in mos["g"].geometry.sites
    )
    # every map before the first write: a conditioning point with a vanishing
    # marginal then stops the run with nothing written
    conditionals = [density_maps.conditional_density(kernel, r0, spec) for r0 in points]
    out_dir = Path(config.output_dir)
    with _staged_files(out_dir) as stage:

        def write(writer, grid, name, **options):
            writer(grid, stage / name, **options)
            manifest.append(str(out_dir / name))

        write(_write_csv, single, f"{config.name}_single.csv")
        write(_write_pgm, single, f"{config.name}_single.pgm")
        for idx, r0 in enumerate(points, 1):
            cond = conditionals.pop(0)  # each map is freed once written
            stem = f"{config.name}_conditional_{idx}"
            write(_write_csv, cond, f"{stem}.csv")
            write(_write_ppm, cond, f"{stem}.ppm", marker=r0)
            assertions.append(
                AssertionResult(
                    f"conditional map {idx} integrates to 1",
                    abs(cond.integral() - 1.0) <= 1e-10,
                    f"conditioned at ({r0[0]:g}, {r0[1]:g})",
                )
            )

        if config.geometry == "rectangle" and orbitals.is_square(config.a, config.b):
            combos = orbitals.degenerate_superpositions(mos["e"], mos["e'"])
            flux_plus = density_maps.probability_flux(combos["e+ie'"], spec)
            flux_minus = density_maps.probability_flux(combos["e-ie'"], spec)
            for tag, fluxgrid in (("plus", flux_plus), ("minus", flux_minus)):
                stem = f"{config.name}_flux_{tag}"
                write(_write_csv, fluxgrid, f"{stem}.csv")
                write(_write_pgm, fluxgrid, f"{stem}.pgm")
            opposite = float(np.max(np.abs(flux_plus.values + flux_minus.values)))
            assertions.append(
                AssertionResult(
                    "flux fields of conjugate combinations are opposite",
                    opposite <= 1e-12,
                    f"max |j+ + j-| = {opposite:.3e}",
                )
            )

        if config.c2_magnitude != 0.0:
            label = "boson and fermion densities agree at balance"
            try:
                residual = _balance_residual(config, n, mos)
            except density_maps.ZeroNormSuperposition as exc:
                assertions.append(
                    AssertionResult(
                        label,
                        False,
                        f"cannot run: C1·Ψ1 + C1*·Ψ2 has zero norm ({exc.statistics})",
                    )
                )
            else:
                assertions.append(
                    AssertionResult(label, residual <= 1e-10, f"max deviation {residual:.3e}")
                )

    return RunReport(
        name=f"density:{config.name}",
        inputs=(
            ("geometry", config.geometry),
            ("dimensions", _dimensions_text(config)),
            ("particles", str(n)),
            ("grid", f"{config.nx}x{config.ny}"),
        ),
        assertions=tuple(assertions),
        summaries=tuple(summaries),
        files=tuple(manifest),
    )


@contextmanager
def _staged_files(out_dir: Path):
    """A new directory beside out_dir for a run to write its files into.

    When the block completes, out_dir is created and the files move into it
    (os.replace, on one filesystem); when it raises, they are removed with
    the directory, so a failed run leaves no partial set in out_dir.
    """
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=out_dir.parent))
    try:
        yield stage
        out_dir.mkdir(exist_ok=True)
        for path in stage.iterdir():
            os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _dimensions_text(config: ExperimentConfig) -> str:
    if config.geometry == "triangle":
        return f"a={config.a:g} h={config.h:g}"
    return f"a={config.a:g} b={config.b:g}"


def _balance_residual(
    config: ExperimentConfig, n: int, mos: dict[str, orbitals.MolecularOrbital]
) -> float:
    """density_maps.balance_residual of the run's n particles over six
    configurations drawn with seed 1, at |C1| = 1: the check does not depend
    on the scale of C1, whose square can overflow.  Magnitude 0 keeps C1 = 0."""
    phase = config.c1_phase
    c1 = complex(math.cos(phase), math.sin(phase)) if config.c1_magnitude != 0 else 0j
    rng = np.random.default_rng(1)
    configurations = [
        [tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(n)] for _ in range(6)
    ]
    return density_maps.balance_residual(n, mos, c1, configurations)


# -- verify ------------------------------------------------------------


def _spin_family(n: int, kind: int):
    if n == 3:
        return family_3(kind, UP)
    return family_4(kind)


def _family_sum_residual(n: int, kind: int) -> float:
    family = _spin_family(n, kind)
    total = family[0] + family[1] + family[2]
    norm2 = spin_overlap(total, total)
    return abs(float(norm2))


def run_verify(config: ExperimentConfig | None = None) -> RunReport:
    """Identity suite: recoupling rows, family sums, state orthogonality,
    and the emergent spin-trace prefactors."""
    assertions = []

    for s in (0, 1):
        value = recoupling_identity(s)
        assertions.append(
            AssertionResult(
                f"recoupling identity, pair spin s={s}",
                value.is_zero(),
                f"residual {float(value):.1e}",
            )
        )

    for n in (3, 4):
        for kind in (0, 1):
            residual = _family_sum_residual(n, kind)
            assertions.append(
                AssertionResult(
                    f"family sum vanishes (n={n}, kind {kind})",
                    residual == 0.0,
                    f"|sum|^2 = {residual:.1e}",
                )
            )

    for n in (3, 4):
        for statistics in ("fermion", "boson"):
            psi1 = assemble_state(n, "low", statistics, GENERIC_ASSIGNMENT[n])
            psi2 = assemble_state(n, "high", statistics, GENERIC_ASSIGNMENT[n])
            overlap = full_overlap(psi1, psi2)
            residual = abs(complex(overlap))
            assertions.append(
                AssertionResult(
                    f"coupling-scheme orthogonality (n={n}, {statistics})",
                    residual <= 1e-12,
                    f"|<1|2>| = {residual:.1e}",
                )
            )

    for n in (3, 4):
        direct_value, cross_value, residual = _prefactor_checks(n)
        assertions.append(
            AssertionResult(
                f"spin-trace prefactors (n={n})",
                residual == 0.0
                and direct_value == rational(Fraction(3, 2))
                and cross_value == -sqrt_rational(3) / 2,
                f"diagonal {float(direct_value):.6f}, cross {float(cross_value):.6f}",
            )
        )

    return RunReport(
        name="verify",
        inputs=(),
        assertions=tuple(assertions),
    )


def _prefactor_checks(n: int):
    """Emergent kernel coefficients against the spin-family Grams.

    Returns the diagonal collapse constant G_ii - G_ij, the negative
    cross-Gram entry, and the exact residual between the spin trace of the
    generic low-coupled fermion state and its position-only collapse
    (wavefunction_algebra.collapsed_trace: with position parts summing to
    zero, sum_ij G_ij Phi_i Phi_j^+ reduces to (G_ii - G_ij) sum_i Phi_i Phi_i^+).
    """
    chi0 = _spin_family(n, 0)
    chi1 = _spin_family(n, 1)
    g00_diag = spin_overlap(chi0[0], chi0[0])
    g00_off = spin_overlap(chi0[1], chi0[0])
    direct_value = g00_diag - g00_off

    cross_entries = [
        spin_overlap(chi1[j], chi0[i]) for i in range(3) for j in range(3)
    ]
    cross_value = min(
        (entry for entry in cross_entries if not entry.is_zero()),
        key=lambda e: float(e),
    )

    psi = assemble_state(n, "low", "fermion", GENERIC_ASSIGNMENT[n])
    diff = spin_trace_pair(psi, psi) - collapsed_trace(psi)
    residual = max((abs(complex(c)) for _, c in diff.terms), default=0.0)
    return direct_value, cross_value, residual


# -- entry point -------------------------------------------------------


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    if getattr(args, "config", None):
        config = parse_config(Path(args.config).read_text())
    config = apply_overrides(config, getattr(args, "set", []) or [])
    env_dir = os.environ.get("FEWBODY_OUTPUT_DIR")
    if env_dir:
        config = replace(config, output_dir=env_dir)
    flags = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    if not flags["output_dir"]:  # an empty --output-dir is ignored
        flags["output_dir"] = None
    return replace(config, **{key: value for key, value in flags.items() if value is not None})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewbody",
        description="Few-body interference and density-map calculations.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one configuration key (repeatable)",
        )
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--name")

    hom = sub.add_parser("hom", help="two-particle splitter interference")
    common(hom)
    hom.add_argument("--statistics", choices=("boson", "fermion"))
    hom.add_argument("--input", help=", ".join([*HOM_INPUTS, *HOM_ALIASES]))
    hom.add_argument("--convention", choices=("optical", "atomic"))
    hom.add_argument("--theta", type=float)

    density = sub.add_parser("density", help="density maps and flux fields")
    common(density)
    density.add_argument("--geometry", choices=("triangle", "rectangle"))
    density.add_argument("--a", type=float)
    density.add_argument("--h", type=float)
    density.add_argument("--b", type=float)

    verify = sub.add_parser("verify", help="run the identity suite")
    common(verify)
    return parser


def _check_inputs(verb: str, config: ExperimentConfig) -> None:
    """Raise ValueError, before any work, on an input the verb cannot run."""
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, not {value!r}")
    points = config.conditioning_points
    if not all(math.isfinite(x) for point in points for x in point):
        raise ValueError(f"conditioning_points must be finite, not {points!r}")
    if verb == "hom":
        _hom_input(config.statistics, config.convention, config.input)
        beamsplitter(config.theta, config.convention)
    elif verb == "density":
        for key in ("name", "output_dir"):
            if "\0" in getattr(config, key):
                raise ValueError(f"{key} {getattr(config, key)!r} holds a NUL byte")
        if os.path.basename(config.name) != config.name:
            raise ValueError(f"name {config.name!r} must be a plain file name")
        out_dir = Path(config.output_dir)
        existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
        if not existing.is_dir():
            raise ValueError(f"output_dir {config.output_dir!r}: {existing} is not a directory")
        # the longest file name a run writes (one digit counts the 3 or 4 site
        # centers) and the staging directory of _staged_files (mkdtemp adds 8)
        count = len(config.conditioning_points) or 4
        limit = os.pathconf(existing, "PC_NAME_MAX")
        for name in (f"{config.name}_conditional_{count}.csv", f".{out_dir.name}-XXXXXXXX"):
            if len(os.fsencode(name)) > limit:
                raise ValueError(f"name {name!r} exceeds the {limit}-byte limit in {existing}")
        _density_inputs(config)
        grid_bytes = config.nx * config.ny * 16  # one complex grid array
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if grid_bytes > memory:
            raise ValueError(
                f"grid {config.nx}x{config.ny}: one complex array of {grid_bytes} bytes "
                f"exceeds the {memory} bytes of physical memory"
            )


def main(argv: Sequence[str] | None = None) -> int:
    """Run one verb: exit 0 if every check passes, 1 if one fails, 2 on
    invalid input (one line on stderr, nothing written)."""
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        _check_inputs(args.verb, config)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    run = {"hom": run_hom, "density": run_density, "verify": run_verify}[args.verb]
    try:
        report = run(config)
    except density_maps.VanishingMarginalError as exc:
        # found while the maps are computed, before anything is written
        return _input_error(exc)
    print(report.render())
    return 0 if report.passed else 1


def _input_error(exc: Exception) -> int:
    print(f"fewbody: error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
