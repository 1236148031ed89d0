"""Numeric density fields on 2D grids.

Single-particle, pair, and conditional probability densities for the
three- and four-particle collective ground states, coincidence
antibunching reports, and the probability-density flux of complex
molecular orbitals.  Grids use the midpoint rule; lengths are in trap
units, flux in units with hbar/m = 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .grid_tiles import tiled
from .orbitals import MolecularOrbital, evaluate_orbitals
from .wavefunction_algebra import (
    ReducedDensity,
    assemble_state,
    evaluate_density,
    full_overlap,
    marginalize,
    spin_trace,
    spin_trace_pair,
)

DEFAULT_EXTENT = 6.0
DEFAULT_RESOLUTION = 256
#: antibunching_check compares only points where rho(r) exceeds this
DENSITY_FLOOR = 1e-8

Point = tuple[float, float]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of midpoint sample cells."""

    x_range: tuple[float, float] = (-DEFAULT_EXTENT, DEFAULT_EXTENT)
    y_range: tuple[float, float] = (-DEFAULT_EXTENT, DEFAULT_EXTENT)
    resolution: tuple[int, int] = (DEFAULT_RESOLUTION, DEFAULT_RESOLUTION)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.x_range, *self.y_range))):
            raise ValueError("grid ranges must be finite")
        if self.x_range[1] <= self.x_range[0] or self.y_range[1] <= self.y_range[0]:
            raise ValueError("grid ranges must be non-degenerate")
        if min(self.resolution) < 8:
            raise ValueError("resolution must be at least 8 per axis")
        if not 0 < self.cell_area < math.inf:
            raise ValueError(f"grid cell area {self.cell_area!r} is not a finite positive double")

    @property
    def cell_size(self) -> tuple[float, float]:
        nx, ny = self.resolution
        return (
            (self.x_range[1] - self.x_range[0]) / nx,
            (self.y_range[1] - self.y_range[0]) / ny,
        )

    @property
    def cell_area(self) -> float:
        dx, dy = self.cell_size
        return dx * dy

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = self.resolution
        dx, dy = self.cell_size
        xs = self.x_range[0] + dx * (np.arange(nx) + 0.5)
        ys = self.y_range[0] + dy * (np.arange(ny) + 0.5)
        return xs, ys

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self.axes()
        return np.meshgrid(xs, ys, indexing="ij")

    def open_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """The meshgrid's coordinates as broadcastable axes: x of shape
        (nx, 1), y of shape (1, ny)."""
        xs, ys = self.axes()
        return np.meshgrid(xs, ys, indexing="ij", sparse=True)


@dataclass(frozen=True)
class DensityGrid:
    """Sampled scalar density or 2-vector flux field."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        nx, ny = self.spec.resolution
        if self.values.shape not in ((nx, ny), (nx, ny, 2)):
            raise ValueError("values shape disagrees with the grid spec")
        if self.values.ndim == 2 and float(self.values.min()) < -1e-12:
            raise ValueError("scalar density has significant negative values")

    def integral(self) -> float:
        if self.values.ndim != 2:
            raise ValueError("integral of a vector field is not defined here")
        return float(self.values.sum()) * self.spec.cell_area


def single_density(
    n: int,
    mos: Mapping[str, MolecularOrbital],
    spec: GridSpec,
) -> DensityGrid:
    """Spin-independent one-particle density of the collective ground state.

    It is the one-coordinate marginal of the spin-traced ground state.  The
    maximal-multiplicity filling puts the doubly occupied orbital at phi_g,
    so the marginal is (2/3)phi_g^2 + (1/3)phi_e^2 for three particles and
    (phi_g^2 + phi_e^2)/2 for four.
    """
    kernel = PairDensityKernel(marginalize(ground_pair_kernel(n, "fermion"), (1,)), mos)
    return DensityGrid(spec, kernel(spec))


@functools.cache  # a shared ReducedDensity is safe: it is frozen
def ground_pair_kernel(n: int, statistics: str) -> ReducedDensity:
    """Two-coordinate marginal kernel of the collective ground state."""
    state = assemble_state(n, "low", statistics)
    return marginalize(spin_trace_pair(state, state), (1, 2))


@dataclass(frozen=True)
class PairDensityKernel:
    """Evaluable density kernel, one point per kept coordinate; a pair
    density is symmetric under argument exchange.

    A point is an (x, y) pair of scalars or arrays, or a GridSpec standing
    for every cell of that grid (its orbital values from the _grid_values cache).
    The value is float64, from real orbitals (evaluate_density): a complex
    orbital under one of the kernel's labels raises ValueError.
    """

    density: ReducedDensity
    mos: Mapping[str, MolecularOrbital]

    def __call__(self, *points):
        evaluator = {label: mo.evaluate for label, mo in self.mos.items()}
        points = [self._on_grid(r) if isinstance(r, GridSpec) else r for r in points]
        return evaluate_density(self.density, evaluator, points)

    def _on_grid(self, spec: GridSpec) -> dict[str, np.ndarray]:
        labels = sorted({label for (ket, bra), _ in self.density.terms for label in ket + bra})
        return dict(zip(labels, _grid_values(tuple(self.mos[label] for label in labels), spec)))


@functools.lru_cache(maxsize=1)  # a run reads one orbital set on one grid at a time
def _grid_values(mos: tuple[MolecularOrbital, ...], spec: GridSpec) -> tuple[np.ndarray, ...]:
    """Each orbital on every cell of spec, as read-only arrays that equal sets share."""
    values = evaluate_orbitals(mos, *spec.open_mesh())
    for array in values:
        array.flags.writeable = False
    return tuple(values)


def pair_density(
    n: int,
    mos: Mapping[str, MolecularOrbital],
    statistics: str = "fermion",
) -> PairDensityKernel:
    """Joint two-particle density of the collective ground state."""
    return PairDensityKernel(ground_pair_kernel(n, statistics), mos)


class VanishingMarginalError(ValueError):
    """A conditioning point where the pair density has (almost) no weight."""


def conditional_density(
    kernel: PairDensityKernel,
    r0: Point,
    spec: GridSpec,
) -> DensityGrid:
    """Density of one particle given another fixed at r0.

    The slice pair(r, r0) is normalized to unit integral over the
    plotted grid.
    """
    slice_values = kernel(spec, r0)
    marginal = float(slice_values.sum()) * spec.cell_area
    if marginal <= 1e-15:
        raise VanishingMarginalError(
            f"conditioning point ({r0[0]:g}, {r0[1]:g}) has vanishing marginal density"
        )
    return DensityGrid(spec, slice_values / marginal)


class ZeroNormSuperposition(ArithmeticError):
    """C1 Psi1 + C1* Psi2 vanishes: the two branches lie on one ray."""

    def __init__(self, statistics: str):
        super().__init__(f"zero-norm superposition ({statistics})")
        self.statistics = statistics


def balance_residual(
    n: int,
    mos: Mapping[str, MolecularOrbital],
    c1: complex,
    configurations: Sequence[Sequence[Point]],
) -> float:
    """Max deviation between fermion and boson full densities at C2 = C1*.

    Each configuration holds one point per particle.  Each density is the
    float64 PairDensityKernel value of the superposition's Hermitian kernel
    on the real orbitals mos, normalised to unit total weight before
    comparison, so the check is insensitive to the overall norm of the
    superposed state.  Raises ZeroNormSuperposition when that weight
    vanishes, which happens at the ground assignment whenever
    Re(C1^2) <Psi1|Psi2> = -|C1|^2.  A nonzero C1 whose squared modulus
    overflows or falls below the smallest normal double is taken at unit
    modulus; a non-finite C1 raises ValueError.
    """
    c1 = complex(c1)
    if not all(map(math.isfinite, (c1.real, c1.imag))):
        raise ValueError(f"C1 must be finite, not {c1!r}")
    modulus = math.hypot(c1.real, c1.imag)
    if c1 and not np.finfo(float).tiny <= modulus * modulus < math.inf:
        c1 /= max(abs(c1.real), abs(c1.imag))
        c1 /= abs(c1)
    c2 = c1.conjugate()
    densities = []
    for statistics in ("fermion", "boson"):
        psi1 = assemble_state(n, "low", statistics)
        psi2 = assemble_state(n, "high", statistics)
        kernel = PairDensityKernel(spin_trace(c1, psi1, c2, psi2), mos)
        cross = complex(full_overlap(psi1, psi2))
        weight = abs(c1) ** 2 + abs(c2) ** 2 + 2.0 * (c1 * c2.conjugate() * cross).real
        if weight == 0.0:
            raise ZeroNormSuperposition(statistics)
        densities.append((kernel, weight))
    worst = 0.0
    for points in configurations:
        fermion, boson = (kernel(*points) / weight for kernel, weight in densities)
        worst = max(worst, abs(fermion - boson))
    return worst


@dataclass(frozen=True)
class AntibunchingReport:
    """Worst coincidence-to-benchmark ratio over the qualifying grid."""

    antibunched: bool
    max_ratio: float
    location: Point
    points_checked: int


def antibunching_check(
    kernel: PairDensityKernel,
    marginal: Callable | DensityGrid,
    spec: GridSpec,
) -> AntibunchingReport:
    """Compare pair(r, r) against the independent-events benchmark rho(r)^2.

    rho is the values of a one-particle density already sampled on spec, or
    marginal(x, y), which must be pointwise: it is called once on the
    grid's open mesh (x of shape (nx, 1), y of shape (1, ny)) and its result
    is broadcast to the grid.  Only grid points with rho(r) above
    DENSITY_FLOOR participate; the report carries the maximum ratio
    pair(r,r)/rho(r)^2 and where it occurs.  Strict inequality everywhere
    marks the state antibunched; with no qualifying point it is not.
    """
    if isinstance(marginal, DensityGrid):
        if marginal.spec != spec:
            raise ValueError("marginal density is sampled on another grid")
        rho = marginal.values
    else:
        rho = np.asarray(marginal(*spec.open_mesh()), dtype=float)
        rho = np.broadcast_to(rho, spec.resolution)
    coincidence = kernel(spec, spec)
    mask = rho > DENSITY_FLOOR
    ratios = np.where(mask, coincidence / np.where(mask, rho * rho, 1.0), -np.inf)
    idx = int(np.argmax(ratios))
    i, j = np.unravel_index(idx, ratios.shape)
    max_ratio = float(ratios[i, j])
    xs, ys = spec.axes()
    return AntibunchingReport(
        antibunched=bool(mask.any() and max_ratio < 1.0),
        max_ratio=max_ratio,
        location=(float(xs[i]), float(ys[j])),
        points_checked=int(mask.sum()),
    )


def probability_flux(mo: MolecularOrbital, spec: GridSpec) -> DensityGrid:
    """Probability current j = Im[phi* grad phi] of a molecular orbital."""
    x, y = spec.open_mesh()

    def flux(i0, i1):
        phi, gx, gy = mo.value_and_gradient(x[i0:i1], y)
        # phi and each gradient component are arrays of this call's own, so
        # conj(phi) * g is formed in place
        phi = np.asarray(phi, dtype=complex)
        np.conjugate(phi, out=phi)
        grad = [np.asarray(g, dtype=complex) for g in (gx, gy)]
        return np.stack([np.multiply(phi, g, out=g).imag for g in grad], axis=-1)

    return DensityGrid(spec, tiled(flux, (*spec.resolution, 2)))


def local_maxima(grid: DensityGrid) -> list[Point]:
    """Positions of the strict local maxima of a scalar grid.

    Plateaus (cells tied with a neighbor, as happens on symmetric grids
    straddling a symmetry axis) are clustered; a cluster counts as one
    maximum when it dominates every cell adjacent to it, and is reported
    at the centroid of its cells.
    """
    if grid.values.ndim != 2:
        raise ValueError("local maxima need a scalar grid")
    v = grid.values
    nx, ny = v.shape
    padded = np.full((nx + 2, ny + 2), -np.inf)
    padded[1:-1, 1:-1] = v

    def dominant(i0, i1):
        rows = v[i0:i1]
        top = np.ones_like(rows, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    top &= rows >= padded[1 + di : nx + 1 + di, 1 + dj : ny + 1 + dj][i0:i1]
        return top

    flat = tiled(dominant, (nx, ny), bool)
    xs, ys = grid.spec.axes()
    seen = np.zeros_like(flat)
    results: list[Point] = []
    for i0, j0 in np.argwhere(flat):
        if seen[i0, j0]:
            continue
        stack = [(int(i0), int(j0))]
        cluster = []
        rim = -np.inf  # the highest cell adjacent to the cluster: none is dominant
        seen[i0, j0] = True
        while stack:
            i, j = stack.pop()
            cluster.append((i, j))
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if not (0 <= ii < nx and 0 <= jj < ny):
                        continue
                    if not flat[ii, jj]:
                        rim = max(rim, v[ii, jj])
                    elif not seen[ii, jj]:
                        seen[ii, jj] = True
                        stack.append((ii, jj))
        # adjacent dominant cells are each >= the other: the cluster is flat
        if rim >= v[i0, j0]:
            continue
        cx = float(np.mean([xs[i] for i, _ in cluster]))
        cy = float(np.mean([ys[j] for _, j in cluster]))
        results.append((cx, cy))
    return results


def discrete_divergence(flux: DensityGrid) -> np.ndarray:
    """Central-difference divergence of a sampled flux field (interior)."""
    if flux.values.ndim != 3:
        raise ValueError("divergence needs a 2-vector field")
    dx, dy = flux.spec.cell_size
    jx = flux.values[..., 0]
    jy = flux.values[..., 1]
    div = (jx[2:, 1:-1] - jx[:-2, 1:-1]) / (2 * dx) + (
        jy[1:-1, 2:] - jy[1:-1, :-2]
    ) / (2 * dy)
    return div
