"""Angular-momentum coupling checked against sympy and closed identities.

The coefficients here are exact radicals; sympy.physics supplies an
independent route for the same symbols.
"""
import itertools
from fractions import Fraction

import pytest
import sympy
from sympy.physics.quantum.cg import CG
from sympy.physics.wigner import wigner_6j

from fewbody.exact import ONE, ZERO, SqrtRational, rational, sqrt_rational
from fewbody.spin_algebra import (
    CYCLIC_PAIR,
    DOWN,
    PAIRINGS_4,
    UP,
    SpinState,
    clebsch_gordan,
    coupled_state_3,
    coupled_state_4,
    family_3,
    family_4,
    recoupling_identity,
    spin_family,
    spin_overlap,
    wigner6j,
)

HALF = Fraction(1, 2)
S_HALF = sympy.Rational(1, 2)


def to_sympy(v: SqrtRational):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r)
        for r, c in v.terms.items()
    )


def spins_up_to(top: Fraction):
    s = Fraction(0)
    while s <= top:
        yield s
        s += HALF


def projections(j: Fraction):
    m = -j
    while m <= j:
        yield m
        m += 1


def test_clebsch_gordan_matches_sympy_exactly() -> None:
    for j1 in spins_up_to(Fraction(3, 2)):
        for j2 in spins_up_to(Fraction(3, 2)):
            for J in spins_up_to(j1 + j2):
                if J < abs(j1 - j2):
                    continue
                for m1 in projections(j1):
                    for m2 in projections(j2):
                        M = m1 + m2
                        if abs(M) > J:
                            continue
                        ours = to_sympy(clebsch_gordan(j1, m1, j2, m2, J, M))
                        sym = [sympy.Rational(q.numerator, q.denominator)
                               for q in (j1, m1, j2, m2, J, M)]
                        theirs = CG(*sym).doit()
                        assert sympy.simplify(ours - theirs) == 0, (
                            j1, m1, j2, m2, J, M,
                        )


def test_clebsch_gordan_invalid_inputs_are_zero() -> None:
    assert clebsch_gordan(HALF, HALF, HALF, HALF, 0, 0) == ZERO
    assert clebsch_gordan(HALF, HALF, HALF, DOWN, 2, 0) == ZERO
    assert clebsch_gordan(1, 0, 0, 0, 1, 1) == ZERO
    assert clebsch_gordan(1, 2, 1, -1, 1, 1) == ZERO  # |m1| > j1
    assert clebsch_gordan(1, HALF, HALF, 0, Fraction(3, 2), HALF) == ZERO  # j1 - m1 = 1/2


def test_wigner6j_matches_sympy() -> None:
    js = list(spins_up_to(Fraction(3, 2)))
    for j1 in js:
        for j2 in js:
            for j3 in js:
                for j4 in js:
                    for j5 in js:
                        for j6 in js:
                            try:
                                theirs = wigner_6j(*[
                                    sympy.Rational(q.numerator, q.denominator)
                                    for q in (j1, j2, j3, j4, j5, j6)
                                ])
                            except ValueError:
                                continue
                            ours = to_sympy(wigner6j(j1, j2, j3, j4, j5, j6))
                            assert sympy.simplify(ours - theirs) == 0, (
                                j1, j2, j3, j4, j5, j6,
                            )


def test_recoupling_closure_vanishes_exactly() -> None:
    assert recoupling_identity(0) == ZERO
    assert recoupling_identity(1) == ZERO


def _cg(j1, m1, j2, m2, J, M):
    return CG(j1, m1, j2, m2, J, M).doit()


def _oracle_3(lone: int, s: int, M) -> dict:
    """lone (x) (p, q) -> (1/2, M), each pair coupled p first, from sympy's CG."""
    p, q = CYCLIC_PAIR[lone]
    out = {}
    for ms in itertools.product((S_HALF, -S_HALF), repeat=3):
        m = dict(zip((1, 2, 3), ms))
        m_pair = m[p] + m[q]
        if abs(m_pair) <= s and m[lone] + m_pair == M:
            out[ms] = _cg(S_HALF, m[lone], s, m_pair, S_HALF, M) * _cg(
                S_HALF, m[p], S_HALF, m[q], s, m_pair
            )
    return out


def _oracle_4(pairing: int, s: int) -> dict:
    """(a, b) (x) (c, d) -> (0, 0), each pair coupled to s, from sympy's CG."""
    (a, b), (c, d) = PAIRINGS_4[pairing - 1]
    out = {}
    for ms in itertools.product((S_HALF, -S_HALF), repeat=4):
        m = dict(zip((1, 2, 3, 4), ms))
        m1, m2 = m[a] + m[b], m[c] + m[d]
        if abs(m1) <= s and m1 + m2 == 0:
            out[ms] = (
                _cg(s, m1, s, m2, 0, 0)
                * _cg(S_HALF, m[a], S_HALF, m[b], s, m1)
                * _cg(S_HALF, m[c], S_HALF, m[d], s, m2)
            )
    return out


def _assert_matches_oracle(state: SpinState, oracle: dict) -> None:
    expected = {k: v for k, v in oracle.items() if sympy.simplify(v) != 0}
    ours = {
        tuple(sympy.Rational(x.numerator, x.denominator) for x in key): to_sympy(c)
        for key, c in state.terms
    }
    assert ours.keys() == expected.keys()
    for key, value in ours.items():
        assert sympy.simplify(value - expected[key]) == 0, key


@pytest.mark.parametrize("M", [HALF, -HALF], ids=["M=+1/2", "M=-1/2"])
@pytest.mark.parametrize("s", [0, 1], ids=["s=0", "s=1"])
@pytest.mark.parametrize("lone", [1, 2, 3], ids=["lone1", "lone2", "lone3"])
def test_coupled_state_3_matches_sympy_coupling(lone, s, M) -> None:
    oracle = _oracle_3(lone, s, sympy.Rational(M.numerator, M.denominator))
    _assert_matches_oracle(coupled_state_3(lone, s, M), oracle)


@pytest.mark.parametrize("s", [0, 1], ids=["s=0", "s=1"])
@pytest.mark.parametrize("pairing", [1, 2, 3], ids=["pairing1", "pairing2", "pairing3"])
def test_coupled_state_4_matches_sympy_coupling(pairing, s) -> None:
    _assert_matches_oracle(coupled_state_4(pairing, s), _oracle_4(pairing, s))


def test_pair_singlet_structure() -> None:
    # lone particle 3 pairs (1, 2): up_3 (x) (ud - du)/sqrt(2)
    state = coupled_state_3(3, 0, UP)
    expected = {
        (UP, DOWN, UP): ONE / sqrt_rational(2),
        (DOWN, UP, UP): -(ONE / sqrt_rational(2)),
    }
    assert state.as_dict() == expected


def _projections(state: SpinState) -> set:
    return {sum(k) for k, _ in state.terms}


def test_total_m_is_conserved() -> None:
    for lone in (1, 2, 3):
        for s_pair in (0, 1):
            for m in (UP, DOWN):
                assert _projections(coupled_state_3(lone, s_pair, m)) == {m}
    for pairing in (1, 2, 3):
        for s_pair in (0, 1):
            assert _projections(coupled_state_4(pairing, s_pair)) == {0}


def _apply_ladder(terms: dict, direction: int, particles) -> dict:
    """Total S+ (direction +1) or S- (-1) on a product-basis expansion."""
    out: dict = {}
    for key, coef in terms.items():
        for i in particles:
            m = key[i - 1]
            if direction > 0 and m == DOWN or direction < 0 and m == UP:
                flipped = list(key)
                flipped[i - 1] = UP if direction > 0 else DOWN
                k = tuple(flipped)
                out[k] = out.get(k, ZERO) + coef
    return {k: v for k, v in out.items() if not v.is_zero()}


def _apply_s_squared(state: SpinState, particles=None) -> dict:
    """S^2 = S-S+ + Sz^2 + Sz restricted to the given particles."""
    terms = state.as_dict()
    particles = particles or tuple(range(1, state.n + 1))
    out: dict = {}
    lowered = _apply_ladder(_apply_ladder(terms, +1, particles), -1, particles)
    for k, v in lowered.items():
        out[k] = out.get(k, ZERO) + v
    for k, v in terms.items():
        mz = sum((k[i - 1] for i in particles), Fraction(0))
        w = v * rational(mz * mz + mz)
        out[k] = out.get(k, ZERO) + w
    return {k: v for k, v in out.items() if not v.is_zero()}


def _assert_eigenstate(state: SpinState, total_s: Fraction, particles=None) -> None:
    result = _apply_s_squared(state, particles)
    eig = rational(total_s * (total_s + 1))
    expected = {
        k: v * eig for k, v in state.as_dict().items() if not (v * eig).is_zero()
    }
    assert result == expected


def test_coupled_states_are_total_spin_eigenstates() -> None:
    for lone in (1, 2, 3):
        for s_pair in (0, 1):
            _assert_eigenstate(coupled_state_3(lone, s_pair, UP), HALF)
            _assert_eigenstate(coupled_state_3(lone, s_pair, DOWN), HALF)
    for pairing in (1, 2, 3):
        for s_pair in (0, 1):
            _assert_eigenstate(coupled_state_4(pairing, s_pair), Fraction(0))


def test_pair_subsystems_carry_the_requested_spin() -> None:
    pairs_3 = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
    for lone, pair in pairs_3.items():
        for s_pair in (0, 1):
            _assert_eigenstate(
                coupled_state_3(lone, s_pair, UP), Fraction(s_pair), pair
            )
    pairings = {1: ((1, 2), (3, 4)), 2: ((2, 3), (1, 4)), 3: ((3, 1), (2, 4))}
    for idx, (p1, p2) in pairings.items():
        for s_pair in (0, 1):
            state = coupled_state_4(idx, s_pair)
            _assert_eigenstate(state, Fraction(s_pair), p1)
            _assert_eigenstate(state, Fraction(s_pair), p2)


def test_families_sum_to_zero_exactly() -> None:
    for s_pair in (0, 1):
        for m in (UP, DOWN):
            total = family_3(s_pair, m)
            summed = total[0] + total[1] + total[2]
            assert summed.is_zero()
            assert spin_family(3, s_pair, m) == total
        members = family_4(s_pair)
        assert (members[0] + members[1] + members[2]).is_zero()
        assert spin_family(4, s_pair) == members


def test_family_grams() -> None:
    minus_half = rational(Fraction(-1, 2))
    for family in (family_3(0, UP), family_3(1, UP), family_4(0), family_4(1)):
        for i in range(3):
            for j in range(3):
                value = spin_overlap(family[i], family[j])
                assert value == (ONE if i == j else minus_half), (i, j)


def test_cross_family_gram_is_antisymmetric_circulant() -> None:
    half_sqrt3 = sqrt_rational(3) / 2
    for low, high, orientation in (
        (family_3(0, UP), family_3(1, UP), 1),
        (family_4(0), family_4(1), -1),
    ):
        for i in range(3):
            for j in range(3):
                value = spin_overlap(low[i], high[j])
                if i == j:
                    assert value == ZERO
                elif (j - i) % 3 == 1:
                    assert value == half_sqrt3 * orientation
                else:
                    assert value == -(half_sqrt3 * orientation)


def test_singlet_triplet_overlap_matches_rescaled_6j() -> None:
    # <lone 1, pair spin 0 | lone 2, pair spin 1> = sqrt(3) {1/2 1/2 1; 1/2 1/2 0}
    bra = coupled_state_3(1, 0, UP)
    ket = coupled_state_3(2, 1, UP)
    value = spin_overlap(bra, ket)
    assert value == sqrt_rational(3) * wigner6j(HALF, HALF, 1, HALF, HALF, 0)
    assert value == sqrt_rational(3) / 2


def test_invalid_arguments_raise() -> None:
    with pytest.raises(ValueError):
        coupled_state_3(4, 0, UP)
    with pytest.raises(ValueError):
        coupled_state_3(1, 2, UP)
    with pytest.raises(ValueError):
        coupled_state_3(1, 0, Fraction(3, 2))
    with pytest.raises(ValueError):
        coupled_state_4(0, 0)
    with pytest.raises(ValueError):
        coupled_state_4(((1, 3), (2, 4)), 0)
    with pytest.raises(ValueError):
        coupled_state_4(((1, 2), (3, 4)), 0)  # an index, not the splitting
    with pytest.raises(ValueError):
        coupled_state_4(1, 2)  # pair spin 2
    with pytest.raises(ValueError):
        spin_family(2, 0)


def test_clebsch_gordan_cache_key_ignores_argument_type() -> None:
    as_floats = clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0)
    as_fractions = clebsch_gordan(HALF, HALF, HALF, -HALF, Fraction(1), Fraction(0))
    assert as_floats == as_fractions == sqrt_rational(Fraction(1, 2))
    assert as_floats is as_fractions
    assert coupled_state_3(1, 0, 0.5) is coupled_state_3(1, Fraction(0), UP)
    assert coupled_state_4(1, 1) is coupled_state_4(1, 1.0)


def test_invalid_arguments_raise_on_every_call() -> None:
    for _ in range(2):
        with pytest.raises(ValueError):
            clebsch_gordan(0.3, 0.5, 0.5, -0.5, 1, 0)
        with pytest.raises(ValueError):
            coupled_state_3(1, 0.25, UP)
        with pytest.raises(ValueError):
            coupled_state_4(1, 0.25)


def _triangle(a: Fraction, b: Fraction):
    """Every c with (a b c) a triangle."""
    return [abs(a - b) + k for k in range(int(a + b - abs(a - b)) + 1)]


def test_clebsch_gordan_rows_are_orthonormal() -> None:
    """sum_m1 <j1 m1 j2 M-m1|J M><j1 m1 j2 M-m1|J' M> = delta_JJ', exactly,
    for every j1, j2 <= 3."""
    checked = 0
    for j1 in spins_up_to(Fraction(3)):
        for j2 in spins_up_to(Fraction(3)):
            for J, J2 in itertools.product(_triangle(j1, j2), repeat=2):
                for M in projections(min(J, J2)):
                    total = sum(
                        (
                            clebsch_gordan(j1, m1, j2, M - m1, J, M)
                            * clebsch_gordan(j1, m1, j2, M - m1, J2, M)
                            for m1 in projections(j1)
                        ),
                        ZERO,
                    )
                    assert total == (ONE if J == J2 else ZERO), (j1, j2, J, J2, M)
                    checked += 1
    assert checked == 2408


def test_wigner6j_is_orthogonal_in_its_third_and_sixth_arguments() -> None:
    """sum_j3 (2 j3 + 1)(2 j6 + 1) {j1 j2 j3; j4 j5 j6}{j1 j2 j3; j4 j5 j6'}
    = delta_j6j6', exactly, for every j1, j2, j4, j5 <= 2."""
    js = list(spins_up_to(Fraction(2)))
    checked = 0
    for j1, j2, j4, j5 in itertools.product(js, repeat=4):
        j3s = [j3 for j3 in _triangle(j1, j2) if j3 in _triangle(j4, j5)]
        j6s = [j6 for j6 in _triangle(j1, j5) if j6 in _triangle(j4, j2)]
        for j6, j6b in itertools.product(j6s, repeat=2):
            total = sum(
                (
                    wigner6j(j1, j2, j3, j4, j5, j6)
                    * wigner6j(j1, j2, j3, j4, j5, j6b)
                    * rational((2 * j3 + 1) * (2 * j6 + 1))
                    for j3 in j3s
                ),
                ZERO,
            )
            assert total == (ONE if j6 == j6b else ZERO), (j1, j2, j4, j5, j6, j6b)
            checked += 1
    assert checked == 855
