"""A dense-tensor oracle for the exact chain: assemble, spin trace, marginal.

The coupled spin states and the symmetrized position families are built
here a second time, as dense numpy arrays: spins from sympy's
Clebsch-Gordan coefficients, positions from axis permutations of a one-hot
orbital tensor.  A state is a tensor over (spin, orbital label) for each
of its n particles: spin axes first, label axes after.  The conventions
are the documented ones (spin_algebra, symmetric_group and
wavefunction_algebra docstrings); no code of assemble_state,
spin_trace_pair or marginalize runs in the oracle.  Each exact result is
compared with it to 1e-12, for n in {3, 4}, both couplings, both
statistics, and the ground and the generic orbital assignment.
"""
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import numpy as np
import pytest
import sympy
from sympy.physics.quantum.cg import CG

from fewbody.wavefunction_algebra import (
    GENERIC_ASSIGNMENT,
    GROUND_ASSIGNMENT,
    assemble_state,
    full_overlap,
    marginalize,
    spin_trace_pair,
)

HALF = Fraction(1, 2)
TOLERANCE = 1e-12
#: three spins: lone particle -> its pair, which couples after it
LONE_PAIRS = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
#: four spins: the three pair splittings, first pair coupled first
PAIRINGS = (((1, 2), (3, 4)), ((2, 3), (1, 4)), ((3, 1), (2, 4)))
#: the standard tableau's rows: its first row is the first coupled pair
ROWS = {3: ((1, 2), (3,)), 4: ((1, 2), (3, 4))}


@cache
def _cg(j1, m1, j2, m2, j, m) -> float:
    args = (sympy.Rational(x.numerator, x.denominator) for x in (j1, m1, j2, m2, j, m))
    return float(CG(*args).doit())


def _lone(particle: int):
    """One spin-1/2: (its particles, its spin, projection -> vector; index 0 is up)."""
    return (particle,), HALF, {HALF: np.array([1.0, 0.0]), -HALF: np.array([0.0, 1.0])}


def _couple(a, b, j):
    """Parts a and b, on disjoint particles, coupled a first to spin j."""
    (pa, ja, va), (pb, jb, vb) = a, b
    out = {}
    for k in range(int(2 * j) + 1):
        m = j - k
        terms = [
            _cg(ja, ma, jb, m - ma, j, m) * np.multiply.outer(xa, vb[m - ma])
            for ma, xa in va.items()
            if m - ma in vb
        ]
        out[m] = sum(terms)
    return pa + pb, j, out


def _in_particle_order(particles, tensor) -> np.ndarray:
    return np.transpose(tensor, np.argsort(particles))


def _spin_member(n: int, member: int, s_pair: int) -> np.ndarray:
    """Member 1..3 of the pair-spin s_pair family at S = M = 1/2 (n = 3) or
    S = 0 (n = 4), as a tensor over (2,) * n."""
    s = Fraction(s_pair)
    if n == 3:
        pair = _couple(_lone(LONE_PAIRS[member][0]), _lone(LONE_PAIRS[member][1]), s)
        particles, _, coupled = _couple(_lone(member), pair, HALF)
        return _in_particle_order(particles, coupled[HALF])
    (a, b), (c, d) = PAIRINGS[member - 1]
    first = _couple(_lone(a), _lone(b), s)
    second = _couple(_lone(c), _lone(d), s)
    particles, _, coupled = _couple(first, second, Fraction(0))
    return _in_particle_order(particles, coupled[0])


def _relabelled(tensor: np.ndarray, image) -> np.ndarray:
    """Coordinate c becomes coordinate image[c - 1] (1-based) of the result."""
    axes = [0] * len(image)
    for c, target in enumerate(image):
        axes[target - 1] = c
    return np.transpose(tensor, axes)


def _sign(image) -> int:
    return round(np.linalg.det(np.eye(len(image))[[c - 1 for c in image]]))


def _block_group(n: int, blocks):
    """The permutations of 1..n that map each block onto itself."""
    return [
        image for image in permutations(range(1, n + 1))
        if all({image[c - 1] for c in block} == set(block) for block in blocks)
    ]


def _position_member(n, member, kind, assignment, labels) -> np.ndarray:
    """Member 1..3 of the kind-0 (rows symmetrized, columns antisymmetrized)
    or kind-1 (roles swapped) family, over (len(labels),) * n: the Young
    symmetrizer on the standard tableau, columns first, applied to the
    monomial of assignment, then relabelled so that the tableau's rows land
    on the member's coupled pairs."""
    base = np.zeros((len(labels),) * n)
    base[tuple(labels.index(label) for label in assignment)] = 1.0
    rows = ROWS[n]
    columns = [tuple(row[c] for row in rows if len(row) > c) for c in range(len(rows[0]))]
    column_sum = sum(
        (1 if kind else _sign(p)) * _relabelled(base, p) for p in _block_group(n, columns)
    )
    standard = sum(
        (_sign(p) if kind else 1) * _relabelled(column_sum, p) for p in _block_group(n, rows)
    )
    if n == 3:
        image = (*LONE_PAIRS[member], member)
    else:
        image = tuple(c for pair in PAIRINGS[member - 1] for c in pair)
    return _relabelled(standard, image)


def _oracle_state(n, coupling, statistics, assignment, labels) -> np.ndarray:
    """The normalized sum over members of spin (x) position, over
    (2,) * n + (len(labels),) * n; fermions pair the low spin family with
    kind-0 positions and the high one with kind 1, bosons the other way."""
    s_pair = 0 if coupling == "low" else 1
    kind = s_pair if statistics == "fermion" else 1 - s_pair
    psi = sum(
        np.multiply.outer(
            _spin_member(n, i, s_pair), _position_member(n, i, kind, assignment, labels)
        )
        for i in (1, 2, 3)
    )
    return psi / np.sqrt(np.sum(psi * psi))


def _dense_state(state, labels) -> np.ndarray:
    """An assembled state's terms written out over (2,) * n + (len(labels),) * n."""
    n = state.n
    psi = np.zeros((2,) * n + (len(labels),) * n)
    for chi, phi in state.pairs:
        spin = np.zeros((2,) * n)
        for ms, coef in chi.terms:
            spin[tuple(0 if m == HALF else 1 for m in ms)] = float(coef)
        position = np.zeros((len(labels),) * n)
        for assignment, coef in phi.terms:
            position[tuple(labels.index(label) for label in assignment)] = float(coef)
        psi += np.multiply.outer(spin, position)
    return psi


def _dense_kernel(kernel, labels) -> np.ndarray:
    """A kernel's terms over (len(labels),) * 2k: ket labels, then bra labels."""
    k = len(kernel.kept)
    out = np.zeros((len(labels),) * (2 * k))
    for (ket, bra), coef in kernel.terms:
        out[tuple(labels.index(label) for label in ket + bra)] = float(coef)
    return out


def _spin_traced(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Tr_spin |a><b| over (L,) * 2n, the real amplitudes' outer product."""
    return np.tensordot(a, b, axes=(list(range(n)), list(range(n))))


def _pair_marginal(rho: np.ndarray, n: int) -> np.ndarray:
    """Coordinates 3..n of a full kernel traced out: (L,) * 4, kets then bras."""
    letters = "abcdefgh"
    kept_ket, kept_bra, traced = "ab", "cd", letters[4 : 4 + n - 2]
    return np.einsum(f"{kept_ket}{traced}{kept_bra}{traced}->{kept_ket}{kept_bra}", rho)


CASES = [
    (n, coupling, statistics, assignment)
    for n in (3, 4)
    for coupling in ("low", "high")
    for statistics in ("fermion", "boson")
    for assignment in ("ground", "generic")
]


def _setup(n, statistics, assignment):
    orbitals = (GROUND_ASSIGNMENT if assignment == "ground" else GENERIC_ASSIGNMENT)[n]
    labels = sorted(set(orbitals))
    states = {c: assemble_state(n, c, statistics, orbitals) for c in ("low", "high")}
    oracle = {c: _oracle_state(n, c, statistics, orbitals, labels) for c in ("low", "high")}
    return labels, states, oracle


@pytest.mark.parametrize("n, coupling, statistics, assignment", CASES)
def test_assembled_state_is_the_oracle_state(n, coupling, statistics, assignment) -> None:
    labels, states, oracle = _setup(n, statistics, assignment)
    dense = _dense_state(states[coupling], labels)
    assert float(full_overlap(states[coupling], states[coupling])) == 1.0
    assert abs(np.sum(dense * dense) - 1.0) <= TOLERANCE
    assert np.max(np.abs(dense - oracle[coupling])) <= TOLERANCE
    low_high = float(full_overlap(states["low"], states["high"]))
    assert abs(abs(low_high) - abs(np.sum(oracle["low"] * oracle["high"]))) <= TOLERANCE


@pytest.mark.parametrize("n, coupling, statistics, assignment", CASES)
def test_exchange_symmetry_under_every_permutation(n, coupling, statistics, assignment) -> None:
    labels, states, oracle = _setup(n, statistics, assignment)
    for psi in (_dense_state(states[coupling], labels), oracle[coupling]):
        for image in permutations(range(1, n + 1)):
            sign = _sign(image) if statistics == "fermion" else 1
            # particle c's spin axis and label axis both move to particle image[c - 1]
            axes = [0] * (2 * n)
            for c, target in enumerate(image):
                axes[target - 1] = c
                axes[n + target - 1] = n + c
            assert np.max(np.abs(np.transpose(psi, axes) - sign * psi)) <= TOLERANCE


@pytest.mark.parametrize("n, coupling, statistics, assignment", CASES)
def test_spin_trace_and_pair_marginal(n, coupling, statistics, assignment) -> None:
    labels, states, oracle = _setup(n, statistics, assignment)
    other = "high" if coupling == "low" else "low"
    for bra in (coupling, other):
        rho = _spin_traced(oracle[coupling], oracle[bra], n)
        exact = spin_trace_pair(states[coupling], states[bra])
        assert np.max(np.abs(_dense_kernel(exact, labels) - rho)) <= TOLERANCE
        pair = _dense_kernel(marginalize(exact, (1, 2)), labels)
        assert np.max(np.abs(pair - _pair_marginal(rho, n))) <= TOLERANCE
    # the diagonal trace has unit weight
    rho = _spin_traced(oracle[coupling], oracle[coupling], n).reshape(len(labels) ** n, -1)
    assert abs(np.trace(rho) - 1.0) <= TOLERANCE
