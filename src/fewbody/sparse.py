"""Frozen sparse vectors: finite sums of coefficients over basis keys.

Spin states, position wavefunctions, spin-traced kernels and Fock states
are all such sums; they differ only in their space (particle count,
kept coordinates, exchange statistics), their keys and their coefficient
rule.  SparseVector holds the shared algebra once.  A subclass sets the
rule as class attributes:

  * `_coerce(value)` turns an input coefficient into a stored one;
  * `_keep(value)` is false for a coefficient to prune;
  * `_checked(space, keys)` validates the space and the keys, raising
    ValueError, and returns the space to store.

Terms are sorted by key, so two equal vectors compare and hash equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Hashable, Iterable, Mapping


@dataclass(frozen=True)
class SparseVector:
    """Sum of coefficient * basis key, terms sorted and zeros pruned."""

    space: Any
    terms: tuple[tuple[Hashable, Any], ...]

    _coerce = staticmethod(lambda value: value)
    _keep = bool

    @staticmethod
    def _checked(space: Any, keys: Iterable[Hashable]) -> Any:
        return space

    @classmethod
    def from_dict(cls, space: Any, d: Mapping[Hashable, Any]):
        return cls._build(cls._checked(space, d), d)

    @classmethod
    def _build(cls, space: Any, d: Mapping[Hashable, Any]):
        """from_dict without the key check, for keys of vectors of this space."""
        coerce, keep = cls._coerce, cls._keep
        items = []
        for key, value in d.items():
            value = coerce(value)
            if keep(value):
                items.append((key, value))
        items.sort(key=itemgetter(0))
        return cls(space, tuple(items))

    def __hash__(self) -> int:
        # frozen: a vector used as a cache key hashes its terms once
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.space, self.terms)))
        return self._hash

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def _same_space(self, other: "SparseVector") -> None:
        if other.space != self.space:
            raise ValueError(f"space mismatch: {self.space!r} vs {other.space!r}")

    def scaled(self, factor):
        return self._build(self.space, {k: v * factor for k, v in self.terms})

    def __add__(self, other):
        self._same_space(other)
        out = dict(self.terms)
        for k, v in other.terms:
            # 0 + v, not v: a -0.0 part of a new complex term becomes +0.0,
            # which the `hom` report prints as +0.000000i
            out[k] = out.get(k, 0) + v
        return self._build(self.space, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def inner(self, other: "SparseVector", zero):
        """<self|other> with the basis keys orthonormal, summed from zero."""
        self._same_space(other)
        b = dict(other.terms)
        total = zero
        for key, ca in self.terms:
            cb = b.get(key)
            if cb is not None:
                total = total + ca.conjugate() * cb
        return total
