"""Symbolic position wavefunctions and spin-traced density kernels.

Position wavefunctions live over a finite alphabet of orthonormal orbital
labels; every coefficient is exact.  Full spin (x) position states for
three and four particles are assembled from the coupled spin families and
the Young-symmetrized position families, and densities are obtained by
tracing out spins and marginalizing coordinates through orbital
orthonormality.

The position families follow the printed four-term (three-particle) and
sixteen-term (four-particle) expansions: one standard-tableau member is
built by a Young symmetrizer, the other two members are its cyclic
coordinate relabelings.  Orbital slots I, II, III(, IV) sit in the
tableau cells in reading order, so the ground assignment (I = II = g
doubly occupied, the rest e) puts the paired orbital in the first row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .exact import ONE, ZERO, SqrtRational, rational, sqrt_rational
from .grid_tiles import tile_rows, tiled
from .sparse import SparseVector
from .spin_algebra import (
    UP,
    SpinState,
    family_3,
    family_4,
    spin_overlap,
)
from .symmetric_group import Permutation, apply_symmetrizer, build_symmetrizer

Scalar = Union[int, Fraction, SqrtRational]

#: default orbital content of the slots: doubly occupied ground + excited
GROUND_ASSIGNMENT = {3: ("g", "g", "e"), 4: ("g", "g", "e", "e")}

#: fully distinct labels, the generic alphabet of the printed expansions
GENERIC_ASSIGNMENT = {3: ("I", "II", "III"), 4: ("I", "II", "III", "IV")}


class VanishingRepresentationError(ValueError):
    """Raised when an orbital assignment annihilates the position family."""


def _scalar(x: Scalar) -> SqrtRational:
    if isinstance(x, SqrtRational):
        return x
    return rational(x)


class PositionWavefunction(SparseVector):
    """Collected signed sum of orbital-assignment monomials, exact coefficients."""

    n = property(attrgetter("space"))
    _coerce = staticmethod(_scalar)

    @staticmethod
    def _checked(n: int, keys) -> int:
        if any(len(key) != n for key in keys):
            raise ValueError("assignment length mismatch")
        return n

    @staticmethod
    def monomial(assignment: Sequence[str]) -> "PositionWavefunction":
        return PositionWavefunction.from_dict(len(assignment), {tuple(assignment): 1})

    def permuted(self, p: Permutation) -> "PositionWavefunction":
        """Relabel coordinates: coordinate c becomes coordinate p(c)."""
        return PositionWavefunction.from_dict(
            self.n, {p.apply_to_assignment(k): v for k, v in self.terms}
        )


_STANDARD_TABLEAU = {3: ((1, 2), (3,)), 4: ((1, 2), (3, 4))}

#: relabelings taking the standard member to members 1, 2, 3 of the family
_MEMBER_RELABELINGS = {
    3: (Permutation((2, 3, 1)), Permutation((3, 1, 2)), Permutation((1, 2, 3))),
    4: (Permutation((1, 2, 3, 4)), Permutation((2, 3, 1, 4)), Permutation((3, 1, 2, 4))),
}

#: the cyclic step relating consecutive family members
_FAMILY_CYCLE = {3: Permutation((2, 3, 1)), 4: Permutation((2, 3, 1, 4))}


def build_position_family(
    n: int, kind: int, orbital_assignment: Sequence[str] | None = None
) -> list[PositionWavefunction]:
    """The three symmetrized position wavefunctions of one coupling family.

    kind 0 pairs with the pair-singlet spin family (rows symmetrized,
    columns antisymmetrized); kind 1 pairs with the pair-triplet family
    (conjugate role assignment on the same tableau).  orbital_assignment
    lists the orbital in each slot I, II, III(, IV); default is the
    doubly occupied ground configuration.
    """
    if n not in (3, 4):
        raise ValueError(f"n = {n} not in {{3, 4}}")
    if kind not in (0, 1):
        raise ValueError(f"kind = {kind} not in {{0, 1}}")
    orbitals = tuple(orbital_assignment or GROUND_ASSIGNMENT[n])
    if len(orbitals) != n:
        raise ValueError(f"need {n} orbital labels, got {len(orbitals)}")
    tableau = _STANDARD_TABLEAU[n]
    sym = build_symmetrizer(tableau, conjugate=bool(kind))
    # slot I..IV sits in the tableau cell holding the same-index coordinate,
    # so the standard member's base monomial assigns orbital k to coordinate k
    base = PositionWavefunction.monomial(orbitals)
    standard = apply_symmetrizer(sym, base)
    if standard.is_zero():
        raise VanishingRepresentationError(
            f"assignment {orbitals} vanishes under the partition"
            f" {tuple(map(len, tableau))} symmetrizer"
        )
    return [standard.permuted(p) for p in _MEMBER_RELABELINGS[n]]


def project_out_symmetric_sum(
    family: Sequence[PositionWavefunction],
) -> list[PositionWavefunction]:
    """Remove the fully symmetric component: subtract one third of the sum.

    The input must be the three cyclic relabelings of one wavefunction;
    the output family sums to the zero wavefunction exactly.
    """
    if len(family) != 3:
        raise ValueError("family must have three members")
    cycle = _FAMILY_CYCLE[family[0].n]
    members = list(family)
    for i in range(3):
        expected = members[i].permuted(cycle)
        if expected.terms != members[(i + 1) % 3].terms:
            raise ValueError("family not closed under cyclic relabeling")
    total = members[0] + members[1] + members[2]
    third = total.scaled(Fraction(1, 3))
    return [m - third for m in members]


@dataclass(frozen=True)
class SpinPositionState:
    """Assembled state sum_i spin_i (x) position_i with a statistics tag."""

    n: int
    statistics: str
    pairs: tuple[tuple[SpinState, PositionWavefunction], ...]

    def scaled(self, factor: Scalar) -> "SpinPositionState":
        return SpinPositionState(
            self.n,
            self.statistics,
            tuple((chi, phi.scaled(factor)) for chi, phi in self.pairs),
        )


def full_overlap(a: SpinPositionState, b: SpinPositionState) -> SqrtRational:
    """<a|b> combining spin overlaps with position contractions, exact."""
    if a.n != b.n:
        raise ValueError("particle-count mismatch")
    total = ZERO
    for chi_a, phi_a in a.pairs:
        for chi_b, phi_b in b.pairs:
            s = spin_overlap(chi_a, chi_b)
            if s.is_zero():
                continue
            # orthonormal orbitals: assignments contract by Kronecker delta
            p = phi_a.inner(phi_b, ZERO)
            if p.is_zero():
                continue
            total = total + s.conjugate() * p
    return total


def assemble_state(
    n: int,
    coupling: str,
    statistics: str,
    orbital_assignment: Sequence[str] | None = None,
    m: Fraction | float = UP,
) -> SpinPositionState:
    """Build the three-term spin (x) position superposition.

    coupling "low" couples each spin pair to 0, "high" to 1.  Fermions
    pair the low family with kind-0 position parts and the high family
    with kind-1 parts; bosons interchange the position kinds.  m selects
    M = +-1/2 for n = 3 and is ignored for n = 4 (S = 0).  States are
    cached on the normalized arguments (assignment as a tuple, m as a
    Fraction); the returned state is immutable and may be shared.
    """
    if orbital_assignment is not None:
        orbital_assignment = tuple(orbital_assignment)
    return _assemble_state(n, coupling, statistics, orbital_assignment, Fraction(m))


@cache
def _assemble_state(
    n: int,
    coupling: str,
    statistics: str,
    orbital_assignment: tuple[str, ...] | None,
    m: Fraction,
) -> SpinPositionState:
    if coupling not in ("low", "high"):
        raise ValueError(f"coupling {coupling!r} not in {{low, high}}")
    if statistics not in ("fermion", "boson"):
        raise ValueError(f"statistics {statistics!r} not in {{fermion, boson}}")
    s_pair = 0 if coupling == "low" else 1
    position_kind = s_pair if statistics == "fermion" else 1 - s_pair
    positions = build_position_family(n, position_kind, orbital_assignment)  # checks n
    positions = project_out_symmetric_sum(positions)
    spins = family_3(s_pair, m) if n == 3 else family_4(s_pair)
    state = SpinPositionState(n, statistics, tuple(zip(spins, positions)))
    # nonzero: the norm is the trace of collapsed_trace, (3/2) sum_i |Phi_i|^2
    norm_sq = full_overlap(state, state)
    return state.scaled(ONE / sqrt_rational(norm_sq.as_rational()))


class ReducedDensity(SparseVector):
    """Operator kernel over orbital assignments of the kept coordinates.

    terms maps (ket assignment, bra assignment) pairs to coefficients;
    coefficients are exact for single-branch traces and complex for
    C-weighted superpositions.
    """

    kept = property(attrgetter("space"))

    @staticmethod
    def _checked(kept: Sequence[int], keys) -> tuple[int, ...]:
        return tuple(kept)


def spin_trace_pair(a: SpinPositionState, b: SpinPositionState) -> ReducedDensity:
    """Position kernel of Tr_spin |a><b|, exact coefficients."""
    if a.n != b.n:
        raise ValueError("particle-count mismatch")
    out: dict = {}
    for chi_a, phi_a in a.pairs:
        for chi_b, phi_b in b.pairs:
            weight = spin_overlap(chi_b, chi_a)
            if not weight.is_zero():
                _add_outer(out, weight, phi_a, phi_b)
    return ReducedDensity.from_dict(tuple(range(1, a.n + 1)), out)


def collapsed_trace(state: SpinPositionState) -> ReducedDensity:
    """(3/2) sum_i Phi_i Phi_i^+ over the state's position parts; it reads no
    spin overlap.  It equals spin_trace_pair(state, state) when the spin Gram
    is (3/2) I - (1/2) J and the position parts sum to zero, as they do in
    every assembled state: the J term drops out."""
    out: dict = {}
    weight = rational(Fraction(3, 2))
    for _, phi in state.pairs:
        _add_outer(out, weight, phi, phi)
    return ReducedDensity.from_dict(tuple(range(1, state.n + 1)), out)


def _add_outer(out: dict, weight: SqrtRational, phi_a, phi_b) -> None:
    """Add weight * |phi_a><phi_b| to the kernel terms out, keyed (ket, bra)."""
    for ket, ca in phi_a.terms:
        weighted = weight * ca
        for bra, cb in phi_b.terms:
            key = (ket, bra)
            out[key] = out.get(key, ZERO) + weighted * cb.conjugate()


def spin_trace(
    c1: complex, psi1: SpinPositionState, c2: complex, psi2: SpinPositionState
) -> ReducedDensity:
    """Full N-coordinate density of C1 psi1 + C2 psi2:
    |C1|^2 rho_11 + |C2|^2 rho_22 + cross terms.  The branches must share
    their statistics and particle count.  Raises ValueError when |C1|^2 or
    |C2|^2 is not finite."""
    if psi1.statistics != psi2.statistics:
        raise ValueError("statistics mismatch between branches")
    c1, c2 = complex(c1), complex(c2)
    k11 = spin_trace_pair(psi1, psi1).scaled(_squared_modulus("C1", c1))
    k22 = spin_trace_pair(psi2, psi2).scaled(_squared_modulus("C2", c2))
    k12 = spin_trace_pair(psi1, psi2).scaled(c1 * c2.conjugate())
    k21 = spin_trace_pair(psi2, psi1).scaled(c2 * c1.conjugate())
    return k11 + k22 + k12 + k21


def _squared_modulus(name: str, c: complex) -> float:
    try:
        square = abs(c) ** 2
    except OverflowError:
        square = math.inf
    if not math.isfinite(square):
        raise ValueError(f"|{name}|^2 is not finite for {name} = {c!r}")
    return square


def marginalize(density: ReducedDensity, keep: Iterable[int]) -> ReducedDensity:
    """Trace out coordinates not in keep via orbital orthonormality."""
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("keep set must be non-empty")
    if not set(keep) <= set(density.kept):
        raise ValueError(f"keep {keep} not within kept coordinates {density.kept}")
    positions = [density.kept.index(c) for c in keep]
    traced = [i for i in range(len(density.kept)) if density.kept[i] not in keep]
    out: dict = {}
    for (ket, bra), coef in density.terms:
        if any(ket[i] != bra[i] for i in traced):
            continue
        key = (
            tuple(ket[i] for i in positions),
            tuple(bra[i] for i in positions),
        )
        out[key] = out[key] + coef if key in out else coef
    return ReducedDensity.from_dict(keep, out)


def evaluate_density(
    density: ReducedDensity,
    orbital_evaluator: Mapping[str, Callable],
    points: Sequence,
):
    """Evaluate the kernel diagonal at one position per kept coordinate.

    orbital_evaluator maps a label to phi(x, y).  points holds one entry
    per kept coordinate: an (x, y) pair (scalars or arrays), or a mapping
    from label to that coordinate's orbital values, already evaluated.
    Coordinates given the same point object share their orbital values.

    When every coefficient and every orbital value is real, the products
    and sums run in float64: they give the real part of the complex ones
    bit for bit, since the imaginary parts are all zero.  On a 2D grid they
    run in row tiles on every usable CPU (grid_tiles.tiled), same bytes.
    """
    if len(points) != len(density.kept):
        raise ValueError("one point per kept coordinate required")

    def resolve(label: str, point):
        if isinstance(point, Mapping):
            return point[label]
        x, y = point
        return orbital_evaluator[label](x, y)

    phi: dict[tuple[int, str], object] = {}
    for (ket, bra), _ in density.terms:
        for point, *labels in zip(points, ket, bra):
            for label in labels:
                if (id(point), label) not in phi:
                    phi[id(point), label] = resolve(label, point)
    coefs = [complex(coef) for _, coef in density.terms]
    real = all(c.imag == 0 for c in coefs) and not any(map(np.iscomplexobj, phi.values()))
    if real:
        coefs = [c.real for c in coefs]
    phi_conj = phi if real else {key: np.conjugate(v) for key, v in phi.items()}

    if not coefs:
        return 0.0

    def term_sum(i0, i1):
        total = None
        for ((ket, bra), _), coef in zip(density.terms, coefs):
            factors = [
                tile_rows(f, i0, i1)
                for point, k, b in zip(points, ket, bra)
                for f in (phi[id(point), k], phi_conj[id(point), b])
            ]
            # the first product is a new array: the orbital values stay unchanged
            value = coef * factors[0]
            for factor in factors[1:]:
                value *= factor
            if total is None:
                total = value
            else:
                total += value
        return total

    shape = np.broadcast_shapes(*map(np.shape, phi.values()))
    dtype = np.result_type(coefs[0], *phi.values())
    total = tiled(term_sum, shape if len(shape) == 2 else (), dtype)
    if real:
        return total if np.ndim(total) else float(total)
    # Hermitian kernels evaluate to real diagonals; drop roundoff imaginary.
    arr = np.asarray(total)
    if np.iscomplexobj(arr):
        scale = float(np.max(np.abs(arr))) or 1.0
        if float(np.max(np.abs(arr.imag))) <= 1e-12 * scale:
            total = arr.real if arr.shape else float(arr.real)
    return total
