"""Exact arithmetic over sums of rational multiples of square roots.

Values have the form sum_k c_k * sqrt(n_k) with rational c_k and squarefree
positive integer radicands n_k.  The set is closed under addition and
multiplication, which covers every coefficient produced by Clebsch-Gordan,
6j and symmetrizer algebra in this package.  Division is supported for
single-term values only, which is all that state normalization needs.

Adding or multiplying a float or complex gives the complex value
complex(self) op complex(other): kernels weighted by complex amplitudes
mix both kinds of coefficient.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


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
        cleaned = {}
        if terms:
            for rad, coef in terms.items():
                if coef:
                    cleaned[rad] = coef
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

    def __add__(self, other: "SqrtRational | Rational | complex"):
        if isinstance(other, (float, complex)):
            return complex(self) + complex(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for rad, coef in other._terms.items():
            merged[rad] = merged.get(rad, Fraction(0)) + coef
        return SqrtRational(merged)

    __radd__ = __add__

    def __neg__(self) -> "SqrtRational":
        return SqrtRational({rad: -coef for rad, coef in self._terms.items()})

    def __sub__(self, other: "SqrtRational | Rational") -> "SqrtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Rational) -> "SqrtRational":
        return _coerce(other) + (-self)

    def __mul__(self, other: "SqrtRational | Rational | complex"):
        if isinstance(other, (float, complex)):
            return complex(self) * complex(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ra, ca in self._terms.items():
            for rb, cb in other._terms.items():
                s, m = _squarefree_split(ra * rb)
                out[m] = out.get(m, Fraction(0)) + ca * cb * s
        return SqrtRational(out)

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
        if isinstance(other, (int, Fraction)):
            other = rational(other)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def conjugate(self) -> "SqrtRational":
        return self

    def __float__(self) -> float:
        return float(sum(float(c) * r**0.5 for r, c in self._terms.items()))

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


def _coerce(value: "SqrtRational | Rational") -> SqrtRational:
    if isinstance(value, SqrtRational):
        return value
    if isinstance(value, (int, Fraction)):
        return rational(value)
    return NotImplemented


def sqrt_rational(value: Rational) -> SqrtRational:
    """Exact square root of a non-negative rational."""
    v = Fraction(value)
    if v < 0:
        raise ValueError(f"sqrt of negative rational {v}")
    if v == 0:
        return SqrtRational()
    # sqrt(p/q) = sqrt(p*q)/q
    s, m = _squarefree_split(v.numerator * v.denominator)
    return SqrtRational({m: Fraction(s, v.denominator)})


def rational(value: Rational) -> SqrtRational:
    return SqrtRational({1: Fraction(value)})


ZERO = SqrtRational()
ONE = rational(1)
