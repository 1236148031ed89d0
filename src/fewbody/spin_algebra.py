"""Exact angular-momentum coupling for two to four spin-1/2 particles.

Clebsch-Gordan coefficients and Wigner 6j symbols from the Racah sum
formulas in exact arithmetic, and coupled-basis states for three and four
spins.  Both formulas are one alternating sum over inverse factorials,
_racah_sum, times the square root of a rational prefactor built from the
squared triangle factors Delta(a b c)^2.  Phase convention is
Condon-Shortley throughout.

Coupled-state conventions (pinned by the identity tests):
  * three particles: the lone particle couples first, its complementary
    pair second, and the pair carries the cyclic index order
    lone 1 -> (2,3), lone 2 -> (3,1), lone 3 -> (1,2);
  * four particles: (first pair) x (second pair) with pairings
    (1,2)(3,4), (2,3)(1,4), (3,1)(2,4), index order inside each pair
    as written.
With these choices the three same-family states sum to the zero vector
for both the pair-singlet and pair-triplet families.

Both couplings are one rule, _couple: three spins are a lone spin coupled
to a pair, four spins are two coupled pairs.  Clebsch-Gordan
coefficients and coupled states are cached on their arguments; every
cached value is immutable.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod
from operator import attrgetter
from typing import Union

from .exact import ONE, ZERO, SqrtRational, rational, sqrt_rational
from .sparse import SparseVector

SpinValue = Union[int, float, Fraction]

UP = Fraction(1, 2)
DOWN = Fraction(-1, 2)

#: complementary pair for each lone particle, cyclic order
CYCLIC_PAIR: dict[int, tuple[int, int]] = {1: (2, 3), 2: (3, 1), 3: (1, 2)}

#: the three two-pair splittings of four particles, index order as written
PAIRINGS_4: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((1, 2), (3, 4)),
    ((2, 3), (1, 4)),
    ((3, 1), (2, 4)),
)


def _half(x: SpinValue) -> Fraction:
    f = Fraction(x)
    if f.denominator not in (1, 2):
        raise ValueError(f"not a half-integer: {x}")
    return f


def _fact(x: Fraction) -> int:
    if x.denominator != 1 or x < 0:
        raise ValueError(f"factorial of non-natural {x}")
    return factorial(int(x))


def _triangle_ok(a: Fraction, b: Fraction, c: Fraction) -> bool:
    return abs(a - b) <= c <= a + b and (a + b + c).denominator == 1


def _racah_sum(lows, highs, weight=lambda k: 1) -> Fraction:
    """Sum over integer k of (-1)^k weight(k) / (prod (k - a)! prod (b - k)!),
    a in lows and b in highs, over every k that leaves no argument negative."""
    lows, highs = [int(a) for a in lows], [int(b) for b in highs]
    total = Fraction(0)
    for k in range(max(lows), min(highs) + 1):
        den = prod(factorial(k - a) for a in lows) * prod(factorial(b - k) for b in highs)
        total += Fraction((-1) ** k * weight(k), den)
    return total


def _delta_squared(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """The triangle factor Delta(a b c)^2 = (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)!."""
    return Fraction(prod(map(_fact, (a + b - c, a - b + c, -a + b + c))), _fact(a + b + c + 1))


@cache
def clebsch_gordan(
    j1: SpinValue, m1: SpinValue, j2: SpinValue, m2: SpinValue, J: SpinValue, M: SpinValue
) -> SqrtRational:
    """Exact <j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Invalid triangles or projections give an exact zero rather than an
    error, matching the usual tabulation convention.  Equal numbers hash
    equally, so 0.5 and Fraction(1, 2) share a cache entry.
    """
    j1, m1, j2, m2, J, M = (_half(x) for x in (j1, m1, j2, m2, J, M))
    if m1 + m2 != M or not _triangle_ok(j1, j2, J):
        return ZERO
    if abs(m1) > j1 or abs(m2) > j2 or abs(M) > J:
        return ZERO
    if (j1 - m1).denominator != 1 or (j2 - m2).denominator != 1 or (J - M).denominator != 1:
        return ZERO

    pref = sqrt_rational(
        (2 * J + 1)
        * _delta_squared(j1, j2, J)
        * prod(map(_fact, (J + M, J - M, j1 - m1, j1 + m1, j2 - m2, j2 + m2)))
    )
    total = _racah_sum((0, j2 - J - m1, j1 + m2 - J), (j1 + j2 - J, j1 - m1, j2 + m2))
    return pref * rational(total)


def wigner6j(
    j1: SpinValue, j2: SpinValue, j3: SpinValue, j4: SpinValue, j5: SpinValue, j6: SpinValue
) -> SqrtRational:
    """Exact {j1 j2 j3; j4 j5 j6} by the Racah sum formula."""
    j1, j2, j3, j4, j5, j6 = (_half(x) for x in (j1, j2, j3, j4, j5, j6))
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    if not all(_triangle_ok(*t) for t in triads):
        return ZERO
    pref = sqrt_rational(prod(_delta_squared(*t) for t in triads))
    lows = [sum(t) for t in triads]
    highs = (j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4)
    return pref * rational(_racah_sum(lows, highs, lambda t: factorial(t + 1)))


class SpinState(SparseVector):
    """Exact spin state over the product basis of n spin-1/2 particles.

    terms maps projection tuples (one Fraction +-1/2 per particle) to
    exact coefficients; zero coefficients are dropped.
    """

    n = property(attrgetter("space"))

    @staticmethod
    def _checked(n: int, keys) -> int:
        if any(len(key) != n for key in keys):
            raise ValueError("projection tuple length mismatch")
        return n


def spin_overlap(a: SpinState, b: SpinState) -> SqrtRational:
    """Product-basis orthonormal dot product <a|b>, exact."""
    return a.inner(b, ZERO)


def _couple(a: dict, ja: SpinValue, b: dict, jb: SpinValue, J: SpinValue, M: SpinValue) -> dict:
    """|J M> coupled from part a (spin ja) and part b (spin jb), a first.

    The parts act on disjoint particles.  Each maps a projection m to its
    expansion over partial assignments ((particle, m), ...) -> coefficient,
    and so does the result, for the one projection M.
    """
    out: dict = {}
    for ma, left in a.items():
        if M - ma not in b:
            continue
        c = clebsch_gordan(ja, ma, jb, M - ma, J, M)
        for ka, ca in left.items():
            cca = c * ca
            for kb, cb in b[M - ma].items():
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, ZERO) + cca * cb
    return out


def _one(particle: int) -> dict:
    """A lone spin-1/2 particle as a part of _couple."""
    return {m: {((particle, m),): ONE} for m in (UP, DOWN)}


@cache
def _pair(p: int, q: int, s: Fraction) -> dict:
    """Particles p and q coupled, p first, to pair spin s: a part of _couple."""
    return {m: _couple(_one(p), UP, _one(q), UP, s, m) for m in (-1, 0, 1) if abs(m) <= s}


def _state(n: int, partial: dict) -> SpinState:
    """The spin state of an expansion over full assignments of n particles."""
    return SpinState.from_dict(n, {tuple(m for _, m in key): c for key, c in partial.items()})


@cache
def coupled_state_3(lone_particle: int, s_pair: SpinValue, m: SpinValue) -> SpinState:
    """|s_lone, s_pair; S=1/2, M=m> for three spin-1/2 particles.

    The pair is the cyclic complement of the lone particle and couples
    after it (lone first).  s_pair must be 0 or 1, m must be +-1/2.
    """
    if lone_particle not in (1, 2, 3):
        raise ValueError(f"lone particle index {lone_particle} not in 1..3")
    s = _half(s_pair)
    if s not in (Fraction(0), Fraction(1)):
        raise ValueError(f"pair spin {s_pair} not in {{0, 1}}")
    M = _half(m)
    if abs(M) != UP:
        raise ValueError(f"M = {m} invalid for S = 1/2")
    pair = _pair(*CYCLIC_PAIR[lone_particle], s)
    return _state(3, _couple(_one(lone_particle), UP, pair, s, UP, M))


@cache
def coupled_state_4(pairing: int, s_pairs: SpinValue) -> SpinState:
    """|s_p1, s_p2; S=0, M=0> for four spin-1/2 particles.

    pairing is an index 1..3 into the splittings (1,2)(3,4), (2,3)(1,4),
    (3,1)(2,4); both pairs carry spin s_pairs.
    """
    if pairing not in (1, 2, 3):
        raise ValueError(f"pairing index {pairing} not in 1..3")
    p1, p2 = PAIRINGS_4[pairing - 1]
    s = _half(s_pairs)
    if s not in (Fraction(0), Fraction(1)):
        raise ValueError(f"pair spin {s_pairs} not in {{0, 1}}")
    return _state(4, _couple(_pair(*p1, s), s, _pair(*p2, s), s, 0, 0))


def recoupling_identity(s: int) -> SqrtRational:
    """The closure 1 + (-1)^s * 2(2s+1) * {1/2 1/2 s; 1/2 1/2 s}, exactly zero."""
    sym = wigner6j(UP, UP, s, UP, UP, s)
    return ONE + sym * rational((-1) ** s * 2 * (2 * s + 1))


def family_3(s_pair: SpinValue, m: SpinValue) -> list[SpinState]:
    """The three coupled states for lone particle 1, 2, 3."""
    return [coupled_state_3(i, s_pair, m) for i in (1, 2, 3)]


def family_4(s_pairs: SpinValue) -> list[SpinState]:
    """The three coupled states for the three pair splittings."""
    return [coupled_state_4(i, s_pairs) for i in (1, 2, 3)]


def spin_family(n: int, s_pair: SpinValue, m: SpinValue = UP) -> list[SpinState]:
    """family_3(s_pair, m) for n = 3, family_4(s_pair) for n = 4 (m unused)."""
    if n not in (3, 4):
        raise ValueError(f"particle count {n} not in {{3, 4}}")
    return family_3(s_pair, m) if n == 3 else family_4(s_pair)

