"""Exact arithmetic over sums of rational multiples of square roots.

Values have the form sum_k c_k * sqrt(n_k) with rational c_k and squarefree
positive integer radicands n_k: construction moves any square factor of a
radicand into its coefficient, so equal values have equal terms.  The set
is closed under addition and multiplication, which covers every
coefficient produced by Clebsch-Gordan, 6j and symmetrizer algebra in this
package.  Division is supported for single-term values only, which is all
that state normalization needs.

Exact values are built from ints and Fractions only: the ring is closed,
and combining one with a float or complex raises TypeError.  A caller that
needs a complex number converts first, complex(value).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Rational


@functools.cache
def _squarefree_split(n: int) -> tuple[int, int]:
    """Split n > 0 as s*s*m with m squarefree; returns (s, m)."""
    s, m = 1, 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            m *= d
        d += 1
    return s, m * n


class SqrtRational:
    """Immutable exact value sum_k c_k * sqrt(n_k)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        # canonical form: each radicand's square factor moves into its
        # coefficient, so equal values have equal terms
        cleaned = {}
        if terms:
            for rad, coef in terms.items():
                if rad <= 0:
                    raise ValueError(f"radicand {rad} is not positive")
                s, m = _squarefree_split(rad)
                if s != 1:
                    coef = coef * s
                if m in cleaned:
                    coef = cleaned.pop(m) + coef
                if coef:
                    cleaned[m] = coef
        self._terms = cleaned

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def __add__(self, other: "SqrtRational | Rational") -> "SqrtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for rad, coef in other._terms.items():
            if rad in merged:
                coef = merged[rad] + coef
                if not coef:
                    del merged[rad]
                    continue
            merged[rad] = coef
        return _canonical(merged)

    __radd__ = __add__

    def __neg__(self) -> "SqrtRational":
        return SqrtRational({rad: -coef for rad, coef in self._terms.items()})

    def __sub__(self, other: "SqrtRational | Rational") -> "SqrtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Rational) -> "SqrtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "SqrtRational | Rational") -> "SqrtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ra, ca in self._terms.items():
            for rb, cb in other._terms.items():
                rad, coef = _product(ra, ca, rb, cb)
                out[rad] = out[rad] + coef if rad in out else coef
        return _canonical({rad: coef for rad, coef in out.items() if coef})

    __rmul__ = __mul__

    def __truediv__(self, other: "SqrtRational | Rational") -> "SqrtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(other._terms) != 1:
            raise ValueError("division only defined for single-term values")
        ((rad, coef),) = other._terms.items()
        # 1/(c*sqrt(m)) = sqrt(m)/(c*m)
        inv = SqrtRational({rad: Fraction(1, 1) / (coef * rad)})
        return self * inv

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a rational value hashes as the Fraction (or int) it equals
        if self.is_rational():
            return hash(self._terms.get(1, 0))
        return hash(frozenset(self._terms.items()))

    def conjugate(self) -> "SqrtRational":
        return self

    def __float__(self) -> float:
        # fsum rounds once, so the value does not depend on the term order
        return math.fsum(float(c) * r**0.5 for r, c in self._terms.items())

    def __complex__(self) -> complex:
        return complex(float(self))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for rad in sorted(self._terms):
            coef = self._terms[rad]
            parts.append(str(coef) if rad == 1 else f"{coef}*sqrt({rad})")
        return " + ".join(parts)


def _canonical(terms: dict[int, Fraction]) -> SqrtRational:
    """The value of terms that are already canonical: squarefree radicands,
    no zero coefficient.  Sums and products of canonical values are."""
    value = object.__new__(SqrtRational)
    value._terms = terms
    return value


def _product(ra: int, ca: Fraction, rb: int, cb: Fraction) -> tuple[int, Fraction]:
    """(ca sqrt(ra)) (cb sqrt(rb)) as one canonical term, ra and rb squarefree.

    With g = gcd(ra, rb), ra rb = g^2 (ra/g) (rb/g), and (ra/g) (rb/g) is
    squarefree: a prime dividing both quotients would divide g, and its
    square ra or rb."""
    g = math.gcd(ra, rb)
    return ra // g * (rb // g), ca * cb if g == 1 else ca * cb * g


def _coerce(value: object) -> SqrtRational:
    if isinstance(value, SqrtRational):
        return value
    if isinstance(value, Rational):
        return rational(value)
    return NotImplemented


def _fraction(value: Rational) -> Fraction:
    if not isinstance(value, Rational):
        raise TypeError(f"an exact value takes an int or Fraction, not {value!r}")
    return Fraction(value)


def sqrt_rational(value: Rational) -> SqrtRational:
    """Exact square root of a non-negative rational."""
    v = _fraction(value)
    if v < 0:
        raise ValueError(f"sqrt of negative rational {v}")
    if v == 0:
        return SqrtRational()
    # sqrt(p/q) = sqrt(p*q)/q
    return SqrtRational({v.numerator * v.denominator: Fraction(1, v.denominator)})


def rational(value: Rational) -> SqrtRational:
    v = _fraction(value)
    return _canonical({1: v} if v else {})


ZERO = SqrtRational()
ONE = rational(1)
