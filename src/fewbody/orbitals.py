"""Gaussian site orbitals and MO-LCAO molecular orbitals.

Sites host 2D isotropic Gaussian ground states of harmonic microtraps;
all lengths are measured in units of the single-trap position
uncertainty.  Molecular orbitals are point-group adapted linear
combinations over an isosceles-triangle or rectangular site layout,
orthonormal under the overlap metric.

Corner letters of the rectangle run A, B, C, D clockwise from the
top-left corner, so A-B and D-C are the horizontal (length a) edges.
The sign patterns then make phi_e odd across the vertical symmetry
axis and phi_e' odd across the horizontal one, which keeps one density
peak per site in the one-particle maps of the tabulated geometries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .grid_tiles import tile_rows, tiled

GRAM_TOLERANCE = 1e-10
_TOO_CLOSE = "sites too close for an orthonormal orbital set"


@dataclass(frozen=True)
class SiteOrbital:
    """Normalized harmonic-oscillator ground state at a trap site."""

    center: tuple[float, float]
    width: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")

    def evaluate(self, x, y):
        """exp(-r^2 / 2w^2) / (w sqrt(pi)) on x and y broadcast together.

        Each coordinate is shifted and squared on its own values, so on an
        open mesh (x of shape (nx, 1), y of shape (1, ny)) those passes run
        on nx + ny values; one broadcasting add forms r^2, and the divide,
        exp and scale then work in place on it.  Augmented `**= 2` keeps
        numpy's choices: it squares an array and calls pow on a scalar, as
        `** 2` does.  (-r2) / k and r2 / (-k) round alike, since IEEE
        division is sign-symmetric.  Far from the site r^2 overflows to inf,
        and exp(-inf) = 0 is the right value, so that overflow is not reported.
        """
        cx, cy = self.center
        with np.errstate(over="ignore"):
            dx = np.subtract(x, cx, dtype=float)
            dx **= 2
            dy = np.subtract(y, cy, dtype=float)
            dy **= 2
            phi = dx + dy
        phi /= -(2.0 * self.width**2)
        phi = np.exp(phi, out=phi if isinstance(phi, np.ndarray) else None)
        phi /= self.width * math.sqrt(math.pi)
        return phi

    def value_and_gradient(self, x, y):
        """phi(x, y) and its gradient, built from that one evaluation."""
        cx, cy = self.center
        phi = self.evaluate(x, y)
        gx = -(np.asarray(x, dtype=float) - cx) / self.width**2 * phi
        gy = -(np.asarray(y, dtype=float) - cy) / self.width**2 * phi
        return phi, gx, gy


def overlap(site_a: SiteOrbital, site_b: SiteOrbital) -> float:
    """Closed-form overlap of two equal-width Gaussian site orbitals."""
    if site_a.width != site_b.width:
        raise ValueError("overlap assumes identical trap widths")
    dx = site_a.center[0] - site_b.center[0]
    dy = site_a.center[1] - site_b.center[1]
    d2 = dx * dx + dy * dy
    return math.exp(-d2 / (4.0 * site_a.width**2))


TRIANGLE = "triangle"
RECTANGLE = "rectangle"


@dataclass(frozen=True)
class Geometry:
    """Named site layout; sites keep their letter labels."""

    kind: str
    dimensions: tuple[float, ...]
    sites: tuple[tuple[str, SiteOrbital], ...]

    @staticmethod
    def triangle(a: float, h: float, width: float = 1.0) -> "Geometry":
        """Isosceles triangle: apex A above the B-C base."""
        if a <= 0 or h <= 0:
            raise ValueError("triangle dimensions must be positive")
        sites = (
            ("A", SiteOrbital((0.0, h), width)),
            ("B", SiteOrbital((-a / 2.0, 0.0), width)),
            ("C", SiteOrbital((a / 2.0, 0.0), width)),
        )
        return Geometry(TRIANGLE, (a, h), sites)

    @staticmethod
    def rectangle(a: float, b: float, width: float = 1.0) -> "Geometry":
        """Rectangle of horizontal extent a and vertical extent b."""
        if a <= 0 or b <= 0:
            raise ValueError("rectangle dimensions must be positive")
        sites = (
            ("A", SiteOrbital((-a / 2.0, b / 2.0), width)),
            ("B", SiteOrbital((a / 2.0, b / 2.0), width)),
            ("C", SiteOrbital((a / 2.0, -b / 2.0), width)),
            ("D", SiteOrbital((-a / 2.0, -b / 2.0), width)),
        )
        return Geometry(RECTANGLE, (a, b), sites)

    def site(self, label: str) -> SiteOrbital:
        for name, orbital in self.sites:
            if name == label:
                return orbital
        raise KeyError(label)

    def overlap_matrix(self) -> np.ndarray:
        orbs = [orbital for _, orbital in self.sites]
        n = len(orbs)
        s = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                s[i, j] = overlap(orbs[i], orbs[j])
        return s


@dataclass(frozen=True)
class MolecularOrbital:
    """Site-orbital combination, unit norm under the overlap metric."""

    label: str
    geometry: Geometry
    coefficients: tuple[complex, ...]

    @staticmethod
    def normalized(
        label: str, geometry: Geometry, coefficients: Sequence[complex]
    ) -> "MolecularOrbital":
        coeffs = np.asarray(coefficients, dtype=complex)
        s = geometry.overlap_matrix()
        norm2 = float(np.real(coeffs.conj() @ s @ coeffs))
        if norm2 <= 0:  # nonzero coefficients meet a numerically singular overlap
            no_norm = "coefficients have no norm under the overlap metric"
            raise ValueError(_TOO_CLOSE if coeffs.any() else no_norm)
        coeffs = coeffs / math.sqrt(norm2)
        if np.allclose(coeffs.imag, 0.0):
            coeffs = coeffs.real.astype(complex)
        return MolecularOrbital(label, geometry, tuple(complex(c) for c in coeffs))

    def is_real(self) -> bool:
        return all(abs(c.imag) == 0.0 for c in self.coefficients)

    def evaluate(self, x, y):
        """phi(x, y); float64 when every coefficient is real.

        Real coefficients accumulate in float arithmetic, which gives the
        real part of the complex products and sums bit for bit.
        """
        (phi,) = evaluate_orbitals((self,), x, y)
        return phi

    def value_and_gradient(self, x, y):
        """phi(x, y), as evaluate gives it, and its gradient, from one
        evaluation of each site Gaussian.

        The gradient accumulates in complex arithmetic, its real part taken
        at the end for a real orbital; that fixes the sign of its zeros.
        """
        real = self.is_real()
        phi = gx = gy = None
        for coeff, (_, site) in zip(self.coefficients, self.geometry.sites):
            values, site_gx, site_gy = site.value_and_gradient(x, y)
            phi = _fold(phi, values, coeff, real)
            gx = _fold(gx, site_gx, coeff, False)
            gy = _fold(gy, site_gy, coeff, False)
            del values, site_gx, site_gy  # before the next site's are made
        if real:
            return phi, np.real(gx), np.real(gy)
        return phi, gx, gy

    def gradient(self, x, y):
        return self.value_and_gradient(x, y)[1:]


def _fold(total, values, coeff: complex, real: bool):
    """total + coeff * values, accumulated in place on total.

    values stay unchanged, so one site's values fold into several orbitals;
    a real coefficient multiplies in float arithmetic.
    """
    term = values * coeff.real if real else coeff * values
    if total is None:
        return term
    total += term
    return total


def evaluate_orbitals(mos: Sequence[MolecularOrbital], x, y) -> list:
    """phi(x, y) of each orbital of one geometry, as its evaluate gives it.

    Each site Gaussian is evaluated once, folded into every orbital, and
    dropped before the next site's is made.  A 2D grid (such as an open
    mesh) runs in row tiles on every usable CPU (grid_tiles.tiled).
    """
    geometry = mos[0].geometry
    if any(mo.geometry != geometry for mo in mos):
        raise ValueError("orbitals must share one geometry")
    real = [mo.is_real() for mo in mos]

    def fold_sites(i0, i1):
        xs, ys = tile_rows(x, i0, i1), tile_rows(y, i0, i1)
        totals = [None] * len(mos)
        for coeffs, (_, site) in zip(zip(*(mo.coefficients for mo in mos)), geometry.sites):
            values = site.evaluate(xs, ys)
            totals = [_fold(t, values, c, r) for t, c, r in zip(totals, coeffs, real)]
            del values
        return totals

    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    dtypes = [float if r else complex for r in real]
    return tiled(fold_sites, shape if len(shape) == 2 else (), dtypes)


def mo_gram(mos: Mapping[str, MolecularOrbital]) -> np.ndarray:
    """Overlap-metric Gram matrix of a molecular-orbital set."""
    items = list(mos.values())
    geometry = items[0].geometry
    s = geometry.overlap_matrix()
    c = np.array([mo.coefficients for mo in items], dtype=complex)
    return np.real_if_close(c.conj() @ s @ c.T)


def _checked_orthonormal(
    mos: dict[str, MolecularOrbital]
) -> dict[str, MolecularOrbital]:
    """The set unchanged, or ValueError if it misses the Gram bound.

    Sites much closer than a trap width make the overlap matrix nearly
    singular, and the closed-form coefficients then lose orthonormality to
    rounding; no such set is repaired.  `not <=` also rejects a NaN.
    """
    deviation = np.max(np.abs(mo_gram(mos) - np.eye(len(mos))))
    if not deviation <= GRAM_TOLERANCE:
        raise ValueError(_TOO_CLOSE)
    return mos


def triangle_mos(a: float, h: float, width: float = 1.0) -> dict[str, MolecularOrbital]:
    """Ground and two excited orbitals of the isosceles triangle.

    phi_g is the all-plus combination; phi_e weights the apex against
    the base (its mixing factor enforces orthogonality to phi_g) and is
    normalized numerically; phi_e' is the odd base combination.
    """
    geometry = Geometry.triangle(a, h, width)
    s_ab = overlap(geometry.site("A"), geometry.site("B"))
    s_ac = overlap(geometry.site("A"), geometry.site("C"))
    s_bc = overlap(geometry.site("B"), geometry.site("C"))
    if 1.0 - s_bc <= 0:
        raise ValueError(_TOO_CLOSE)
    q = 1.0 / math.sqrt(3.0 + 2.0 * s_ab + 2.0 * s_bc + 2.0 * s_ac)
    p = 1.0 / math.sqrt(2.0 * (1.0 - s_bc))
    f = (2.0 * (1.0 + s_bc) + s_ab + s_ac) / (1.0 + s_ab + s_ac)
    mos = {
        "g": MolecularOrbital("g", geometry, (q, q, q)),
        "e": MolecularOrbital.normalized("e", geometry, (q * f, -q, -q)),
        "e'": MolecularOrbital("e'", geometry, (0.0, p, -p)),
    }
    return _checked_orthonormal(mos)


_RECTANGLE_PATTERNS = {
    "g": (1.0, 1.0, 1.0, 1.0),
    "e": (1.0, -1.0, -1.0, 1.0),
    "e'": (-1.0, -1.0, 1.0, 1.0),
    "e''": (-1.0, 1.0, -1.0, 1.0),
}


def rectangle_mos(a: float, b: float, width: float = 1.0) -> dict[str, MolecularOrbital]:
    """Four parity-pattern orbitals of the rectangle.

    Each pattern realizes one character row of the planar reflections:
    phi_g is even in both axes, phi_e odd across x=0, phi_e' odd across
    y=0, phi_e'' odd across both.
    """
    geometry = Geometry.rectangle(a, b, width)
    mos = {
        label: MolecularOrbital.normalized(label, geometry, pattern)
        for label, pattern in _RECTANGLE_PATTERNS.items()
    }
    return _checked_orthonormal(mos)


def is_square(a: float, b: float) -> bool:
    """Whether sides a, b make a square (e, e' degenerate): equal to 1e-12."""
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)


def degenerate_superpositions(
    phi_e: MolecularOrbital, phi_ep: MolecularOrbital
) -> dict[str, MolecularOrbital]:
    """Real and circulating recombinations of the square's degenerate pair."""
    geometry = phi_e.geometry
    if geometry.kind != RECTANGLE or phi_ep.geometry != geometry:
        raise ValueError("superpositions require one rectangle's orbital pair")
    if not is_square(*geometry.dimensions):
        raise ValueError("degeneracy requires a square layout")
    ce = np.asarray(phi_e.coefficients)
    cp = np.asarray(phi_ep.coefficients)
    rt2 = math.sqrt(0.5)
    combos = {
        "e+e'": rt2 * (ce + cp),
        "e-e'": rt2 * (ce - cp),
        "e+ie'": rt2 * (ce + 1j * cp),
        "e-ie'": rt2 * (ce - 1j * cp),
    }
    return {
        label: MolecularOrbital.normalized(label, geometry, coeffs)
        for label, coeffs in combos.items()
    }
