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

import functools
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import density_maps, float_text, fock_engine, orbitals
from .exact import rational, sqrt_rational
from .fock_engine import Mode, StateVector, apply_mode_transform, beamsplitter
from .spin_algebra import recoupling_identity, spin_family, spin_overlap
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
    pairs = ((f.name, _format_value(getattr(config, f.name))) for f in fields(ExperimentConfig))
    return "".join(f"{key} = {value}\n" for key, value in pairs)


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
    """Parse the flat key=value format; `#` lines and blank lines are skipped."""
    lines = [line for line in map(str.strip, text.splitlines()) if line[:1] not in ("", "#")]
    return apply_overrides(ExperimentConfig(), lines)


def _coerce(key: str, val: str):
    if key == "conditioning_points":
        return _parse_points(val)
    try:
        return type(getattr(ExperimentConfig(), key))(val)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def apply_overrides(config: ExperimentConfig, pairs: Iterable[str]) -> ExperimentConfig:
    """Apply key=value pairs in order, a later pair winning; unknown keys and
    values of the wrong type raise ValueError.  Keys and values are stripped."""
    names = {f.name for f in fields(ExperimentConfig)}
    updates = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{pair!r} is not key=value")
        if key not in names:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = _coerce(key, val.strip())
    return replace(config, **updates)


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


def _max_deviation(a, b) -> float:
    """Largest coefficient modulus of a - b, two sparse vectors of one space,
    as a float: an exact difference below float resolution reads 0."""
    return max((abs(complex(c)) for _, c in (a - b).terms), default=0.0)


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


@functools.cache
def _ket(occ: fock_engine.OccupationState) -> str:
    """The ket text of one configuration, built once per configuration."""
    return " ".join(f"{n}_{m.site}{m.spin}" for m, n in occ.occupancy) or "vac"


@functools.cache
def _on_one_site(occ: fock_engine.OccupationState) -> bool:
    """Whether every particle of one configuration sits on one site."""
    return len({m.site for m, _ in occ.occupancy}) == 1


def _format_state(state: StateVector) -> str:
    if state.is_zero():
        return "0"
    return " + ".join(
        f"({amp.real:+.6f}{amp.imag:+.6f}i)|{_ket(occ)}>" for occ, amp in state.terms
    )


def _bunching_probability(state: StateVector) -> float:
    total = 0.0
    for occ, amp in state.terms:
        if _on_one_site(occ):
            total += abs(amp) ** 2
    return total


def run_hom(config: ExperimentConfig) -> RunReport:
    """Send a named two-particle state through the configured splitter."""
    statistics = config.statistics
    convention = config.convention
    state_in = _hom_input(statistics, convention, config.input)
    transform = beamsplitter(config.theta, convention)
    state_out = apply_mode_transform(state_in, transform)

    assertions = []
    reference = _frozen_outcome(statistics, convention, config.input, config.theta)
    if reference is not None:
        expected, tolerance = reference
        residual = _max_deviation(state_out, expected)
        assertions.append(
            AssertionResult(
                f"reference outcome for {config.input}",
                residual <= tolerance,
                f"max amplitude deviation {residual:.3e}",
            )
        )
    norm_drift = abs(state_out.norm() - state_in.norm())
    assertions.append(
        AssertionResult("norm preserved", norm_drift <= 1e-12, f"drift {norm_drift:.3e}")
    )

    return RunReport(
        name=f"hom:{config.name}",
        inputs=(
            ("statistics", statistics),
            ("convention", convention),
            ("theta", repr(config.theta)),
            ("input", f"{config.input} = {_format_state(state_in)}"),
            ("output", _format_state(state_out)),
        ),
        assertions=tuple(assertions),
        summaries=(
            ("bunching probability (input)", f"{_bunching_probability(state_in):.6f}"),
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


def _write_ppm(grid: density_maps.DensityGrid, path: Path, marker: tuple[float, float]) -> None:
    gray = _image_rows(_grayscale(grid.values))
    rgb = np.stack([gray, gray, gray], axis=-1)
    xs, ys = grid.spec.axes()
    col = int(np.argmin(np.abs(xs - marker[0])))
    row = gray.shape[0] - 1 - int(np.argmin(np.abs(ys - marker[1])))
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
) -> tuple[int, str, dict[str, orbitals.MolecularOrbital], density_maps.GridSpec]:
    """The particle count, dimensions text, orbitals and grid of a density
    run: a triangle carries 3 particles, a rectangle 4.  ValueError on an
    invalid input."""
    if config.geometry == "triangle":
        n, mos = 3, orbitals.triangle_mos(config.a, config.h)
        dimensions = f"a={config.a:g} h={config.h:g}"
    elif config.geometry == "rectangle":
        n, mos = 4, orbitals.rectangle_mos(config.a, config.b)
        dimensions = f"a={config.a:g} b={config.b:g}"
    else:
        raise ValueError(f"unknown geometry {config.geometry!r}")
    if config.statistics not in ("fermion", "boson"):
        raise ValueError(f"unknown statistics {config.statistics!r}")
    return n, dimensions, mos, config.grid_spec()


def run_density(config: ExperimentConfig) -> RunReport:
    """Render the configured geometry's density maps and flux fields.

    Each conditional map is computed, written and freed in turn; a run that
    fails part-way leaves nothing behind (see _staged_files)."""
    n, dimensions, mos, spec = _density_inputs(config)
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
    other = "boson" if config.statistics == "fermion" else "fermion"
    collapsed = marginalize(collapsed_trace(assemble_state(n, "low", config.statistics)), (1, 2))
    for label, reference in (
        ("dual-construction pair kernels agree", collapsed),
        ("statistics-independent pair kernel", density_maps.ground_pair_kernel(n, other)),
    ):
        residual = _max_deviation(kernel.density, reference)
        assertions.append(
            AssertionResult(label, kernel.density == reference, f"max deviation {residual:.3e}")
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
    out_dir = Path(config.output_dir)
    with _staged_files(out_dir) as stage:

        def write(writer, grid, name, **options):
            writer(grid, stage / name, **options)
            manifest.append(str(out_dir / name))

        write(_write_csv, single, f"{config.name}_single.csv")
        write(_write_pgm, single, f"{config.name}_single.pgm")
        for idx, r0 in enumerate(points, 1):
            cond = density_maps.conditional_density(kernel, r0, spec)
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
            del cond  # the next map is computed with this one freed

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
            ("dimensions", dimensions),
            ("particles", str(n)),
            ("grid", f"{config.nx}x{config.ny}"),
        ),
        assertions=tuple(assertions),
        summaries=tuple(summaries),
        files=tuple(manifest),
    )


@contextmanager
def _staged_files(out_dir: Path):
    """A new directory for a run to write its files into, made in the
    nearest existing directory at or above out_dir's parent.

    When the block completes, out_dir's missing parents are made and a new
    out_dir is this directory, renamed in one step; into an existing out_dir
    the files move one at a time (os.replace, on one filesystem).  When the
    block raises, or the parents or the rename fail, the directory goes with
    its files and the parents just made are removed: a failed run leaves
    nothing behind.
    """
    base = next(path for path in (out_dir.parent, *out_dir.parents) if path.is_dir())
    # mkdtemp's private directory holds one made as out_dir.mkdir would make it
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=base)) / "files"
    try:
        stage.mkdir()
        yield stage
        if out_dir.is_dir():
            for path in stage.iterdir():
                os.replace(path, out_dir / path.name)
        else:
            made = [path for path in out_dir.parents if not path.exists()]  # deepest first
            try:
                out_dir.parent.mkdir(parents=True, exist_ok=True)
                os.rename(stage, out_dir)
            except OSError:
                for path in made:
                    with suppress(OSError):
                        path.rmdir()
                raise
    finally:
        shutil.rmtree(stage.parent, ignore_errors=True)


#: the balance check's coordinates: the first 48 draws of
#: numpy.random.default_rng(1).uniform(-3.0, 3.0), read n points at a time for
#: each of six configurations (draws of size 2 and of size 48 give one stream)
BALANCE_DRAWS = (
    0.0709297482015403, 2.702782177955612, -2.135042323682198, 2.6918966828234634,
    -1.1290112879370873, -0.4600413061645461, 1.9662155629226508, -0.5448051817850326,
    0.29756212603835674, -2.83464532054159, 1.521078652048839, 0.2288598793156691,
    -1.021609701005447, 1.7305722205704264, -1.18083102425013, -0.27901266311609074,
    -2.1957498165170115, -0.5813220813172246, -1.7792685559431023, -1.426119957348903,
    1.502188035780316, -1.3175474520837605, -0.08885415341018987, 2.884423198807432,
    2.76994316198272, 1.3487396446412019, 0.2473611332846053, -1.338652775727775,
    -2.036087947349239, 2.819552479296796, 0.09641151328727204, -2.3048063251753783,
    0.7409385332250027, 1.6600986860537876, 0.6780198063182428, 2.5037862287454162,
    -2.762442740014783, 0.1715355795601301, -0.24398470268757766, -2.6259025251007464,
    0.8479690148362495, 2.1157970308839404, 0.5576461086257041, -1.4394153135766607,
    2.0392891261884527, 0.05697528912905625, 0.06533330679919835, 1.518181246213067,
)


def _balance_residual(
    config: ExperimentConfig, n: int, mos: dict[str, orbitals.MolecularOrbital]
) -> float:
    """density_maps.balance_residual of the run's n particles over six fixed
    configurations, at C1 = exp(i c1_phase): the check does not depend on
    the scale of C1.  Configuration k holds the points
    BALANCE_DRAWS[2 n k + 2 p : 2 n k + 2 p + 2], p < n."""
    c1 = complex(math.cos(config.c1_phase), math.sin(config.c1_phase))
    points = list(zip(BALANCE_DRAWS[::2], BALANCE_DRAWS[1::2]))
    configurations = [points[k * n : (k + 1) * n] for k in range(6)]
    return density_maps.balance_residual(n, mos, c1, configurations)


# -- verify ------------------------------------------------------------


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
            family = spin_family(n, kind)
            total = family[0] + family[1] + family[2]
            assertions.append(
                AssertionResult(
                    f"family sum vanishes (n={n}, kind {kind})",
                    total.is_zero(),
                    f"|sum|^2 = {float(spin_overlap(total, total)):.1e}",
                )
            )

    for n in (3, 4):
        for statistics in ("fermion", "boson"):
            psi1 = assemble_state(n, "low", statistics, GENERIC_ASSIGNMENT[n])
            psi2 = assemble_state(n, "high", statistics, GENERIC_ASSIGNMENT[n])
            overlap = full_overlap(psi1, psi2)
            assertions.append(
                AssertionResult(
                    f"coupling-scheme orthogonality (n={n}, {statistics})",
                    overlap.is_zero(),
                    f"|<1|2>| = {abs(complex(overlap)):.1e}",
                )
            )

    for n in (3, 4):
        direct_value, cross_value, residual = _prefactor_checks(n)
        assertions.append(
            AssertionResult(
                f"spin-trace prefactors (n={n})",
                residual == 0,
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

    Returns the diagonal collapse constant G_ii - G_ij, the smallest
    cross-Gram entry, and how many of these exact identities fail: both
    family Grams equal (3/2)I - (1/2)J; the cross Gram <chi1_j|chi0_i>
    equals s(sqrt3/2)(P - P^T), P the cyclic shift (P[i][i+1 mod 3] = 1),
    s = +1 or -1; the spin trace of the generic low-coupled fermion state
    equals its position-only collapse (collapsed_trace: with these Grams and
    position parts summing to zero, sum_ij G_ij Phi_i Phi_j^+ reduces to
    (G_ii - G_ij) sum_i Phi_i Phi_i^+).
    """
    chi0 = spin_family(n, 0)
    chi1 = spin_family(n, 1)
    cells = [(i, j) for i in range(3) for j in range(3)]
    grams = [[spin_overlap(chi[j], chi[i]) for i, j in cells] for chi in (chi0, chi1)]
    cross = [spin_overlap(chi1[j], chi0[i]) for i, j in cells]
    family = [rational(Fraction(3 * (i == j) - 1, 2)) for i, j in cells]
    shift = [sqrt_rational(3) / 2 * (0, 1, -1)[(j - i) % 3] for i, j in cells]
    psi = assemble_state(n, "low", "fermion", GENERIC_ASSIGNMENT[n])
    holds = (
        grams[0] == family == grams[1],
        cross in (shift, [-e for e in shift]),
        spin_trace_pair(psi, psi) == collapsed_trace(psi),
    )
    return grams[0][0] - grams[0][1], min(cross, key=float), holds.count(False)


# -- entry point -------------------------------------------------------


#: each verb's dedicated flags, as config keys; --config and --set are on every verb
VERB_FLAGS = {
    "hom": ("name", "statistics", "input", "convention", "theta"),
    "density": ("name", "output_dir", "geometry", "a", "h", "b"),
    "verify": (),
}
HELP = "\n".join([
    "usage: fewbody VERB [--config FILE] [--set KEY=VALUE]... [--FLAG VALUE | --FLAG=VALUE]...",
    *(f"  {verb}: {' '.join('--' + k for k in keys) or '(no flags)'}".replace("_", "-")
      for verb, keys in VERB_FLAGS.items()),
    "statistics: fermion, boson; convention: optical, atomic; geometry: triangle, rectangle",
    "hom inputs: " + ", ".join([*HOM_INPUTS, *HOM_ALIASES]),
])


def _read_argv(argv: Sequence[str]) -> tuple[str, ExperimentConfig | None]:
    """The verb and its configuration, None when -h or --help asks for HELP.

    `--key value` and `--key=value` give one pair (the token after a flag is
    its value, whatever it starts with; a repeated flag's last value wins),
    and apply_overrides reads defaults < --config file < --set <
    FEWBODY_OUTPUT_DIR < flags.  Any other token raises ValueError."""
    verb, *rest = argv or [""]
    if verb in ("-h", "--help"):
        return verb, None
    if verb not in VERB_FLAGS:
        raise ValueError(f"expected a verb ({', '.join(VERB_FLAGS)}), not {verb!r}")
    keys = {"--" + k.replace("_", "-"): k for k in ("config", "set", *VERB_FLAGS[verb])}
    config_file, sets, flags = "", [], {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return verb, None
        flag, sep, value = token.partition("=")
        if flag not in keys:
            raise ValueError(f"{verb} does not take {token!r}")
        if not sep and (value := next(tokens, None)) is None:
            raise ValueError(f"{flag} needs a value")
        if flag == "--config":
            config_file = value
        elif flag == "--set":
            sets.append(value)
        else:
            flags[keys[flag]] = value
    config = parse_config(Path(config_file).read_text()) if config_file else ExperimentConfig()
    env_dir = os.environ.get("FEWBODY_OUTPUT_DIR")
    env = [f"output_dir={env_dir}"] if env_dir else []
    return verb, apply_overrides(config, [*sets, *env, *(f"{k}={v}" for k, v in flags.items())])


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
            value = getattr(config, key)
            if not value:
                raise ValueError(f"{key} is empty")
            if "\0" in value:
                raise ValueError(f"{key} {value!r} holds a NUL byte")
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
    invalid input or an unwritable output directory (one line on stderr,
    nothing written)."""
    try:
        verb, config = _read_argv(sys.argv[1:] if argv is None else argv)
        if config is None:
            return _print(HELP, 0)
        _check_inputs(verb, config)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    run = {"hom": run_hom, "density": run_density, "verify": run_verify}[verb]
    try:
        report = run(config)
    except (density_maps.VanishingMarginalError, OSError) as exc:
        # both are found before any file reaches the output directory; an
        # OSError comes from an output directory the run cannot write into
        return _input_error(exc)
    return _print(report.render(), 0 if report.passed else 1)


def _print(text: str, code: int) -> int:
    """Print text and return code; a closed pipe gets nothing, and no error."""
    try:
        print(text, flush=True)
    except BrokenPipeError:  # stdout goes to os.devnull, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _input_error(exc: Exception) -> int:
    print(f"fewbody: error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
