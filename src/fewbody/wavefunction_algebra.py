"""Symbolic position wavefunctions and spin-traced density kernels.

Position wavefunctions live over a finite alphabet of orthonormal orbital
labels; every coefficient is exact.  Full spin (x) position states for
three and four particles are assembled from the coupled spin families and
the Young-symmetrized position families, and densities are obtained by
tracing out spins and marginalizing coordinates through orbital
orthonormality.  Position families and assembled states are cached on
their arguments, spin Grams and spin traces on the values of the states
they read, so each is built once per process; a trace accumulates in
Python ints (_weighted_outer).

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
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .exact import ONE, ZERO, SqrtRational, rational, sqrt_rational
from .grid_tiles import tile_rows, tiled
from .sparse import SparseVector
from .spin_algebra import UP, SpinState, spin_family, spin_overlap
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
    doubly occupied ground configuration.  Families are cached on the
    normalized arguments, so the two assembled states that share a family
    build it once.
    """
    if n not in (3, 4):
        raise ValueError(f"n = {n} not in {{3, 4}}")
    if kind not in (0, 1):
        raise ValueError(f"kind = {kind} not in {{0, 1}}")
    return list(_position_family(n, kind, tuple(orbital_assignment or GROUND_ASSIGNMENT[n])))


@cache
def _position_family(
    n: int, kind: int, orbitals: tuple[str, ...]
) -> tuple[PositionWavefunction, ...]:
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
    return tuple(standard.permuted(p) for p in _MEMBER_RELABELINGS[n])


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
    """Assembled state sum_i spin_i (x) position_i with a statistics tag.

    A state is its value: equal states, assembled or built by hand, hash
    equal and share the cached spin Grams and traces.
    """

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
    for row, (_, phi_a) in zip(_spin_gram(_spins(a), _spins(b)), a.pairs):
        for s, (_, phi_b) in zip(row, b.pairs):
            if s:
                # orthonormal orbitals: assignments contract by Kronecker delta
                total = total + s * phi_a.inner(phi_b, ZERO)
    return total


def _spins(state: SpinPositionState) -> tuple[SpinState, ...]:
    return tuple(chi for chi, _ in state.pairs)


@cache
def _spin_gram(
    spins_a: tuple[SpinState, ...], spins_b: tuple[SpinState, ...]
) -> tuple[tuple[SqrtRational, ...], ...]:
    """G[i][j] = <chi^a_i|chi^b_j>, real, so also the weight
    <chi^b_j|chi^a_i> of |phi^a_i><phi^b_j| in a spin trace."""
    return tuple(tuple(spin_overlap(chi_a, chi_b) for chi_b in spins_b) for chi_a in spins_a)


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
    cached on the normalized arguments (assignment as a tuple, the ground
    one when None, m as a Fraction); the returned state is immutable and may
    be shared.
    """
    if orbital_assignment is None:
        orbital_assignment = GROUND_ASSIGNMENT.get(n, ())  # an invalid n raises below
    return _assemble_state(n, coupling, statistics, tuple(orbital_assignment), Fraction(m))


@cache
def _assemble_state(
    n: int,
    coupling: str,
    statistics: str,
    orbital_assignment: tuple[str, ...],
    m: Fraction,
) -> SpinPositionState:
    if coupling not in ("low", "high"):
        raise ValueError(f"coupling {coupling!r} not in {{low, high}}")
    if statistics not in ("fermion", "boson"):
        raise ValueError(f"statistics {statistics!r} not in {{fermion, boson}}")
    s_pair = 0 if coupling == "low" else 1
    position_kind = s_pair if statistics == "fermion" else 1 - s_pair
    positions = build_position_family(n, position_kind, orbital_assignment)  # checks n
    spins = spin_family(n, s_pair, m)
    state = SpinPositionState(n, statistics, tuple(zip(spins, positions)))
    # nonzero: the norm is the trace of collapsed_trace, (3/2) sum_i |Phi_i|^2
    norm_sq = full_overlap(state, state)
    return state.scaled(ONE / sqrt_rational(norm_sq.as_rational()))


class ReducedDensity(SparseVector):
    """Operator kernel over orbital assignments of the kept coordinates.

    terms maps (ket assignment, bra assignment) pairs to coefficients;
    coefficients are exact for single-branch traces and complex for the
    C-weighted superpositions of spin_trace, which converts each exact
    coefficient with complex() before it applies the weight.
    """

    kept = property(attrgetter("space"))

    @staticmethod
    def _checked(kept: Sequence[int], keys) -> tuple[int, ...]:
        return tuple(kept)


@cache
def spin_trace_pair(a: SpinPositionState, b: SpinPositionState) -> ReducedDensity:
    """Position kernel of Tr_spin |a><b|, exact coefficients, cached on the
    two states' values."""
    if a.n != b.n:
        raise ValueError("particle-count mismatch")
    phis_a, phis_b = ([phi for _, phi in state.pairs] for state in (a, b))
    return _weighted_outer(a.n, _spin_gram(_spins(a), _spins(b)), phis_a, phis_b)


def collapsed_trace(state: SpinPositionState) -> ReducedDensity:
    """(3/2) sum_i Phi_i Phi_i^+ over the state's position parts; it reads no
    spin overlap.  It equals spin_trace_pair(state, state) when the spin Gram
    is (3/2) I - (1/2) J and the position parts sum to zero, as they do in
    every assembled state: the J term drops out."""
    phis = [phi for _, phi in state.pairs]
    weight = rational(Fraction(3, 2))
    diagonal = [[weight if i == j else ZERO for j in range(len(phis))] for i in range(len(phis))]
    return _weighted_outer(state.n, diagonal, phis, phis)


def _weighted_outer(n: int, gram, phis_a, phis_b) -> ReducedDensity:
    """sum_ij gram[i][j] |phi_a_i><phi_b_j| as a kernel over n coordinates.

    Each phi splits, per radicand, into an integer vector times one exact
    scale (_split).  The blocks are grouped by their exact weight (the gram
    entry times the two scales), and with every weight written over one
    integer denominator per radicand, each kernel entry sums in Python ints
    and becomes one exact value.
    """
    splits_b = [_split(phi) for phi in phis_b]
    # weight -> ket part -> (its integer vector, the bra vectors summed against it)
    groups: dict[SqrtRational, dict[tuple[int, int], tuple[dict, dict]]] = {}
    for i, (row, phi_a) in enumerate(zip(gram, phis_a)):
        for p, (scale_a, kets) in enumerate(_split(phi_a)):
            for g, split_b in zip(row, splits_b):
                if not g:
                    continue
                for scale_b, bras in split_b:
                    rows = groups.setdefault(g * scale_a * scale_b, {})
                    summed = rows.setdefault((i, p), (kets, {}))[1]
                    for bra, y in bras.items():
                        summed[bra] = summed.get(bra, 0) + y
    # each weight's coefficients over one integer denominator per radicand
    dens: dict[int, int] = {}
    for weight in groups:
        for rad, c in weight.terms.items():
            dens[rad] = math.lcm(dens.get(rad, 1), c.denominator)
    sums: dict = {}
    for weight, rows in groups.items():
        nums = [(r, c.numerator * (dens[r] // c.denominator)) for r, c in weight.terms.items()]
        for kets, bras in rows.values():
            for ket, x in kets.items():
                for bra, y in bras.items():
                    entry = sums.setdefault((ket, bra), {})
                    for rad, a in nums:
                        entry[rad] = entry.get(rad, 0) + a * x * y
    out = {
        key: SqrtRational({r: Fraction(total, dens[r]) for r, total in entry.items() if total})
        for key, entry in sums.items()
    }
    return ReducedDensity.from_dict(tuple(range(1, n + 1)), out)


def _split(phi: PositionWavefunction) -> list[tuple[SqrtRational, dict]]:
    """phi as a sum over its radicands r of an exact scale c sqrt(r), c > 0,
    times an integer vector: [(scale, {assignment: int}), ...]."""
    parts: dict[int, dict] = {}
    for assignment, coef in phi.terms:
        for rad, c in coef.terms.items():
            parts.setdefault(rad, {})[assignment] = c
    split = []
    for rad, part in parts.items():
        den = math.lcm(*(c.denominator for c in part.values()))
        num = math.gcd(*(c.numerator for c in part.values()))
        ints = {k: c.numerator // num * (den // c.denominator) for k, c in part.items()}
        split.append((SqrtRational({rad: Fraction(num, den)}), ints))
    return split


def spin_trace(
    c1: complex, psi1: SpinPositionState, c2: complex, psi2: SpinPositionState
) -> ReducedDensity:
    """Full N-coordinate density of C1 psi1 + C2 psi2:
    |C1|^2 rho_11 + |C2|^2 rho_22 + cross terms.  The branches must share
    their statistics and particle count.  Each exact kernel coefficient v
    becomes complex(v) * weight, so the result holds complex coefficients.
    The exact coefficients are real, so rho_21 is rho_12 with ket and bra
    swapped: only (psi1, psi1), (psi2, psi2) and (psi1, psi2) are traced.
    Raises ValueError when |C1|^2 or |C2|^2 is not finite."""
    if psi1.statistics != psi2.statistics:
        raise ValueError("statistics mismatch between branches")
    c1, c2 = complex(c1), complex(c2)
    kept = tuple(range(1, psi1.n + 1))

    def weighted(terms, weight):
        return ReducedDensity._build(kept, {k: complex(v) * weight for k, v in terms})

    k11 = weighted(spin_trace_pair(psi1, psi1).terms, _squared_modulus("C1", c1))
    k22 = weighted(spin_trace_pair(psi2, psi2).terms, _squared_modulus("C2", c2))
    rho12 = spin_trace_pair(psi1, psi2).terms
    k12 = weighted(rho12, c1 * c2.conjugate())
    k21 = weighted((((bra, ket), v) for (ket, bra), v in rho12), c2 * c1.conjugate())
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


def evaluate_density(density: ReducedDensity, values: Sequence[Mapping[str, object]]):
    """Sum the kernel diagonal over orbital values: values holds one mapping
    per kept coordinate, from each label the kernel uses there to a scalar
    or an array (PairDensityKernel resolves a point into one).

    Every kernel spin_trace builds is Hermitian, so on real orbitals its
    diagonal is the sum of Re(coefficient) times real orbital products: it
    runs in float64, and a complex orbital value raises ValueError.  On a 2D
    grid the sum runs in row tiles on every usable CPU (grid_tiles.tiled),
    same bytes.
    """
    if len(values) != len(density.kept):
        raise ValueError("one point per kept coordinate required")
    if not density.terms:
        return 0.0
    if any(np.iscomplexobj(v) for phi in values for v in phi.values()):
        raise ValueError("a density takes real orbital values, not complex ones")
    coefs = [complex(coef).real for _, coef in density.terms]

    def term_sum(i0, i1):
        # each coordinate's orbital rows of this tile, sliced once for every term
        rows = [{label: tile_rows(v, i0, i1) for label, v in phi.items()} for phi in values]
        total = None
        for ((ket, bra), _), coef in zip(density.terms, coefs):
            factors = [row[label] for row, k, b in zip(rows, ket, bra) for label in (k, b)]
            # the first product is a new array: the orbital values stay unchanged
            value = coef * factors[0]
            for factor in factors[1:]:
                value *= factor
            if total is None:
                total = value
            else:
                total += value
        return total

    shape = np.broadcast_shapes(*(np.shape(v) for phi in values for v in phi.values()))
    total = tiled(term_sum, shape if len(shape) == 2 else ())
    return total if np.ndim(total) else float(total)
