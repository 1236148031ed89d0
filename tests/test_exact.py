"""Exact radical arithmetic: closure, identities, float agreement."""
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fewbody.exact import ONE, ZERO, SqrtRational, rational, sqrt_rational


def test_squarefree_normalization() -> None:
    assert sqrt_rational(8) == rational(2) * sqrt_rational(2)
    assert sqrt_rational(9) == rational(3)
    assert sqrt_rational(9).is_rational()
    assert sqrt_rational(0) == ZERO
    assert sqrt_rational(Fraction(3, 4)) == sqrt_rational(3) / 2


def test_sqrt_of_fraction() -> None:
    # sqrt(p/q) = sqrt(p*q)/q
    v = sqrt_rational(Fraction(2, 3))
    assert v == sqrt_rational(6) / 3
    assert math.isclose(float(v), math.sqrt(2 / 3), rel_tol=1e-15)


def test_sqrt_negative_raises() -> None:
    with pytest.raises(ValueError):
        sqrt_rational(-2)


def test_difference_of_squares() -> None:
    a = ONE + sqrt_rational(2)
    b = ONE - sqrt_rational(2)
    assert a * b == rational(-1)


def test_division_rationalizes() -> None:
    assert ONE / sqrt_rational(3) == sqrt_rational(3) / 3
    assert (sqrt_rational(6) / sqrt_rational(2)) == sqrt_rational(3)
    assert sqrt_rational(2) / 2 == sqrt_rational(Fraction(1, 2))
    assert rational(Fraction(3, 2)) / Fraction(1, 2) == rational(3)


def test_division_multi_term_divisor_rejected() -> None:
    with pytest.raises(ValueError):
        ONE / (ONE + sqrt_rational(2))


def test_as_rational_guards() -> None:
    assert rational(Fraction(5, 7)).as_rational() == Fraction(5, 7)
    assert ZERO.as_rational() == 0
    with pytest.raises(ValueError):
        sqrt_rational(2).as_rational()


def test_mixed_radicand_sum_keeps_terms() -> None:
    v = sqrt_rational(2) + sqrt_rational(3)
    assert not v.is_rational()
    assert v.terms == {2: Fraction(1), 3: Fraction(1)}
    assert (v - sqrt_rational(3)) == sqrt_rational(2)


def test_equality_and_hash() -> None:
    assert rational(2) == 2
    assert sqrt_rational(4) == 2
    assert hash(sqrt_rational(8)) == hash(rational(2) * sqrt_rational(2))
    assert ZERO == 0 and not bool(ZERO) and bool(ONE)


def test_conjugate_is_identity() -> None:
    v = sqrt_rational(3) / 2 - ONE
    assert v.conjugate() == v


def test_scalar_coercion_both_sides() -> None:
    assert 1 + sqrt_rational(2) == sqrt_rational(2) + 1
    assert 2 - sqrt_rational(2) == -(sqrt_rational(2) - 2)
    assert Fraction(1, 2) * sqrt_rational(3) == sqrt_rational(3) / 2


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


@pytest.mark.parametrize(
    "exact", [ZERO, ONE, -sqrt_rational(3) / 2, sqrt_rational(2) / 3 - 1], ids=repr
)
@pytest.mark.parametrize(
    "inexact",
    [0.1, -0.0, 1e308, complex(-0.0, -0.0), complex(1.5, -0.0), complex(-0.0, 2.5), -0.25j],
    ids=repr,
)
def test_float_and_complex_operands_give_the_complex_formula(exact, inexact) -> None:
    """Mixed with a float or complex, + and * are complex(a) op complex(b) bit for
    bit, in both operand orders; a -0.0 component keeps its sign where that
    formula keeps it."""
    a, b = complex(exact), complex(inexact)
    for got, want in (
        (exact + inexact, a + b),
        (inexact + exact, b + a),
        (exact * inexact, a * b),
        (inexact * exact, b * a),
    ):
        assert type(got) is complex
        assert _bits(got) == _bits(want)


def test_mixed_operands_leave_exact_arithmetic_exact() -> None:
    assert ONE + 1 == rational(2) and isinstance(ONE + Fraction(1, 2), SqrtRational)
    assert isinstance(sqrt_rational(2) * 3, SqrtRational)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
small_radicands = st.integers(min_value=1, max_value=30)


@st.composite
def sqrt_values(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    terms = {}
    for _ in range(n):
        terms[draw(small_radicands)] = draw(small_rationals)
    return SqrtRational(
        {rad: coef for rad, coef in terms.items()}
    )


@given(sqrt_values(), sqrt_values(), sqrt_values())
def test_ring_axioms(a: SqrtRational, b: SqrtRational, c: SqrtRational) -> None:
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a - a == ZERO


@given(sqrt_values(), sqrt_values())
def test_float_agrees_with_symbolic(a: SqrtRational, b: SqrtRational) -> None:
    fa, fb = float(a), float(b)
    assert math.isclose(float(a * b), fa * fb, rel_tol=1e-10, abs_tol=1e-10)
    assert math.isclose(float(a + b), fa + fb, rel_tol=1e-10, abs_tol=1e-10)
