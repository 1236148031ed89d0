"""Exact radical arithmetic: closure, identities, float agreement."""
import math
import operator
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


def test_radicands_are_made_squarefree_on_construction() -> None:
    four = SqrtRational({4: Fraction(1)})
    assert four == rational(2) and hash(four) == hash(rational(2))
    assert str(four) == "2" and four.terms == {1: Fraction(2)}
    assert SqrtRational({8: Fraction(1, 2), 2: Fraction(-1)}) == ZERO
    assert SqrtRational({12: Fraction(1), 3: Fraction(1)}) == 3 * sqrt_rational(3)


@pytest.mark.parametrize("radicand", [0, -1, -4])
def test_a_non_positive_radicand_raises(radicand: int) -> None:
    with pytest.raises(ValueError, match="radicand"):
        SqrtRational({radicand: Fraction(1)})


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


@pytest.mark.parametrize(
    "exact", [ZERO, ONE, -sqrt_rational(3) / 2, sqrt_rational(2) / 3 - 1], ids=repr
)
@pytest.mark.parametrize(
    "inexact",
    [0.1, -0.0, 1e308, complex(-0.0, -0.0), complex(1.5, -0.0), complex(-0.0, 2.5), -0.25j],
    ids=repr,
)
def test_float_and_complex_operands_raise_type_error(exact, inexact) -> None:
    """The exact ring is closed: +, - and * with a float or complex raise
    TypeError in both operand orders; a caller converts with complex() first."""
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(exact, inexact)
        with pytest.raises(TypeError):
            op(inexact, exact)


@pytest.mark.parametrize("inexact", [0.5, 0.1, 2.0, 0.5j])
def test_exact_values_are_built_from_ints_and_fractions_only(inexact) -> None:
    with pytest.raises(TypeError):
        rational(inexact)
    with pytest.raises(TypeError):
        sqrt_rational(inexact)
    assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)


def test_a_rational_value_hashes_as_the_number_it_equals() -> None:
    assert hash(rational(2)) == hash(2) and hash(ZERO) == hash(0)
    assert hash(rational(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    assert hash(sqrt_rational(4)) == hash(2)
    assert {2: "x"}[rational(2)] == "x"
    assert {Fraction(1, 2): "y"}[sqrt_rational(Fraction(1, 4))] == "y"
    assert len({2, rational(2)}) == 1
    assert len({0, ZERO, Fraction(0)}) == 1


def test_float_does_not_depend_on_the_term_order() -> None:
    forward = sqrt_rational(2) + sqrt_rational(3) + sqrt_rational(5) / 3
    backward = sqrt_rational(5) / 3 + sqrt_rational(3) + sqrt_rational(2)
    assert list(forward.terms) != list(backward.terms)
    assert float(forward).hex() == float(backward).hex() == "0x1.f2209db4915c9p+1"


def test_mixed_operands_leave_exact_arithmetic_exact() -> None:
    assert ONE + 1 == rational(2) and isinstance(ONE + Fraction(1, 2), SqrtRational)
    assert isinstance(sqrt_rational(2) * 3, SqrtRational)


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
# squarefree or not: construction makes every drawn value canonical
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
