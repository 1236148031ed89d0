"""Permutations of S2..S4 and Young symmetrizers for small partitions.

Particle coordinates are numbered 1..n throughout.  A permutation acts on
a coordinate assignment by relabeling: coordinate c of the input becomes
coordinate sigma(c) of the output.

A Young symmetrizer is a signed formal sum of permutations built from the
row and column groups of a standard tableau, column operators acting
first.  A `conjugate` flag swaps the symmetrizing role of rows and
columns (columns symmetrized, rows antisymmetrized) while keeping the
same tableau.  The construction is pinned term-for-term against the
printed four-term and sixteen-term expansions in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _iter_permutations
from typing import Sequence


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}; image[i-1] = sigma(i)."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, c: int) -> int:
        return self.image[c - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(c) = self(other(c))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(c)) for c in range(1, self.n + 1)))

    def sign(self) -> int:
        seen = [False] * self.n
        sign = 1
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            length = 0
            c = start
            while not seen[c - 1]:
                seen[c - 1] = True
                c = self(c)
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def apply_to_assignment(self, values: Sequence) -> tuple:
        """Relabel coordinates: output[sigma(c)] = input[c]."""
        if len(values) != self.n:
            raise ValueError("assignment length mismatch")
        out = [None] * self.n
        for c in range(1, self.n + 1):
            out[self(c) - 1] = values[c - 1]
        return tuple(out)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_mapping(n: int, mapping: dict[int, int]) -> "Permutation":
        """Permutation sending src -> dst for mapping entries, fixing the rest."""
        image = list(range(1, n + 1))
        for src, dst in mapping.items():
            image[src - 1] = dst
        return Permutation(tuple(image))


def _is_standard(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Rows of non-increasing positive length (a partition) holding 1..n,
    increasing along each row and down each column."""
    lengths = [len(row) for row in rows]
    if not lengths or 0 in lengths or lengths != sorted(lengths, reverse=True):
        return False
    entries = [x for row in rows for x in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in rows:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for c in range(lengths[0]):
        col = [row[c] for row in rows if len(row) > c]
        if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
            return False
    return True


def _group_over_blocks(n: int, blocks: list[tuple[int, ...]]) -> list[Permutation]:
    """All permutations fixing each block setwise (product of block S_k's)."""
    members = [Permutation.identity(n)]
    for block in blocks:
        extended = []
        for images in _iter_permutations(block):
            mapping = dict(zip(block, images))
            block_perm = Permutation.from_mapping(n, mapping)
            extended.extend(p.compose(block_perm) for p in members)
        members = extended
    return members


def build_symmetrizer(
    tableau: Sequence[Sequence[int]], conjugate: bool = False
) -> tuple[tuple[Permutation, int], ...]:
    """Young symmetrizer of a standard tableau as (permutation, sign) terms.

    The tableau's row lengths are its partition.  The column operators act
    first on the wavefunction, then the row operators.  With
    conjugate=False rows are symmetrized and columns antisymmetrized;
    conjugate=True swaps those roles on the same tableau.
    """
    rows = tuple(tuple(r) for r in tableau)
    if not _is_standard(rows):
        raise ValueError(f"tableau {rows} is not standard")
    n = sum(map(len, rows))
    cols = [tuple(row[c] for row in rows if len(row) > c) for c in range(len(rows[0]))]
    row_group = _group_over_blocks(n, list(rows))
    col_group = _group_over_blocks(n, cols)
    col_terms = [(p, 1 if conjugate else p.sign()) for p in col_group]
    row_terms = [(p, p.sign() if conjugate else 1) for p in row_group]
    return tuple(
        (p2.compose(p1), s1 * s2) for (p1, s1) in col_terms for (p2, s2) in row_terms
    )


def apply_symmetrizer(terms: Sequence[tuple[Permutation, int]], wf):
    """Apply (permutation, sign) terms to any object with permuted() and scaled().

    Returns sum over terms sign * wf.permuted(p); duck-typed so position
    wavefunctions stay defined in their own module.
    """
    total = None
    for perm, sign in terms:
        piece = wf.permuted(perm).scaled(sign)
        total = piece if total is None else total + piece
    return total
