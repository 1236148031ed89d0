"""Sparse second-quantized states and site-mixing mode transforms.

Modes carry a site index (1 or 2) and an internal label (polarization,
hyperfine state, clock state).  States are sparse maps from occupation
configurations to complex amplitudes; a state carries its exchange
statistics, and an occupation configuration, shared by both, does not.
A mode transform mixes the two sites coherently and acts identically on
every internal label; states are pushed through it by rewriting them as
creation-operator polynomials on the vacuum, substituting each creator,
and re-expanding with statistics-correct signs and factors.

The mode order is frozen (site-major, label-minor) so fermionic signs
are reproducible; it is a property of the engine, not a configuration.

Modes and occupation configurations are tuple types (typing.NamedTuple
subclasses that validate on construction, by _make and _replace too), so
the per-step cache lookups, sums and term sorts hash and compare them in C.  A configuration is a
value: a caller may cache work on it, as the `hom` report caches each
configuration's ket text.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from .sparse import SparseVector

BOSON = "boson"
FERMION = "fermion"

_PRUNE = 1e-13


class _ModeFields(NamedTuple):
    site: int
    spin: str


class Mode(_ModeFields):
    """One single-particle channel: spatial site plus internal label.

    A tuple (site, spin), so modes hash, compare and sort site-major, then
    by label, in C."""

    __slots__ = ()

    def __new__(cls, site: int, spin: str) -> "Mode":
        if site not in (1, 2):
            raise ValueError("site must be 1 or 2")
        return super().__new__(cls, site, spin)

    @classmethod
    def _make(cls, iterable) -> "Mode":
        return cls(*iterable)  # through __new__, so _replace validates too


def _check_statistics(statistics: str) -> str:
    if statistics not in (BOSON, FERMION):
        raise ValueError(f"unknown statistics {statistics!r}")
    return statistics


class _OccupationFields(NamedTuple):
    occupancy: tuple[tuple[Mode, int], ...]


class OccupationState(_OccupationFields):
    """Occupancy per mode, kept sorted in the fixed mode order.

    A one-field tuple (occupancy,), so configurations hash, compare and
    sort by their occupancy, in C."""

    __slots__ = ()

    def __new__(cls, occupancy: tuple[tuple[Mode, int], ...]) -> "OccupationState":
        for _, n in occupancy:
            if n <= 0:
                raise ValueError("stored occupancies must be positive")
        return super().__new__(cls, occupancy)

    @classmethod
    def _make(cls, iterable) -> "OccupationState":
        return cls(*iterable)  # through __new__, so _replace validates too

    @staticmethod
    def from_counts(statistics: str, counts: Mapping[Mode, int]) -> "OccupationState":
        occ = OccupationState(tuple(sorted((m, n) for m, n in counts.items() if n != 0)))
        StateVector._checked(statistics, (occ,))
        return occ

    def counts(self) -> dict[Mode, int]:
        return dict(self.occupancy)

    def occupancy_before(self, mode: Mode) -> int:
        """Sum of occupancies over modes strictly preceding `mode`."""
        return sum(n for m, n in self.occupancy if m < mode)


VACUUM = OccupationState(())


class StateVector(SparseVector):
    """Sparse complex superposition over occupation configurations."""

    statistics = property(attrgetter("space"))
    _coerce = complex
    _keep = staticmethod(lambda amp: abs(amp) > _PRUNE)
    # bound here, not only inherited: perfbench/tracer.py wraps them
    # through StateVector.__dict__
    __add__ = SparseVector.__add__
    __sub__ = SparseVector.__sub__

    @staticmethod
    def _checked(statistics: str, occupations) -> str:
        if _check_statistics(statistics) == FERMION:
            for occ in occupations:  # plain loops: any() costs more on few terms
                for _, n in occ.occupancy:
                    if n > 1:
                        raise ValueError("fermionic occupancy exceeds 1")
        return statistics

    @staticmethod
    def zero(statistics: str) -> "StateVector":
        return StateVector(_check_statistics(statistics), ())

    def amplitude(self, occ: OccupationState) -> complex:
        return self.as_dict().get(occ, 0j)

    def norm(self) -> float:
        return math.sqrt(sum(abs(amp) ** 2 for _, amp in self.terms))


def basis_state(statistics: str, modes: Sequence[Mode], amplitude: complex = 1.0) -> StateVector:
    """Creation operators for `modes` applied left-to-right notation-wise.

    The rightmost listed mode acts on the vacuum first, so the result is
    a†(modes[0]) ... a†(modes[-1]) |0⟩ scaled by `amplitude`.
    """
    state = StateVector.from_dict(statistics, {VACUUM: amplitude})
    for mode in reversed(modes):
        state = create(state, mode)
    return state


@functools.cache
def _raised(occ: OccupationState, mode: Mode, statistics: str) -> tuple | None:
    """a†(mode) on one configuration: (new configuration, factor), or None
    for a fermionic double occupation.  Cached for the life of the process
    (keys: the configurations, modes and statistics it has met), so a
    repeated step is one lookup and returns the same configuration object."""
    counts = occ.counts()
    n = counts.get(mode, 0)
    if statistics == FERMION:
        if n == 1:
            return None
        factor = -1.0 if occ.occupancy_before(mode) % 2 else 1.0
    else:
        factor = math.sqrt(n + 1)
    counts[mode] = n + 1
    return OccupationState.from_counts(statistics, counts), factor


def _lowered(occ: OccupationState, mode: Mode, statistics: str) -> tuple | None:
    """a(mode) on one configuration, the adjoint of `_raised`: None for an
    empty mode, else the lowered configuration and the factor of raising it
    back."""
    counts = occ.counts()
    n = counts.get(mode, 0)
    if n == 0:
        return None
    counts[mode] = n - 1
    lowered = OccupationState.from_counts(statistics, counts)
    return lowered, _raised(lowered, mode, statistics)[1]


def _ladder(out: dict, terms, step, mode: Mode, statistics: str, coeff=None) -> dict:
    """Add coeff · step(mode) on (configuration, amplitude) `terms` into
    `out`, and return `out`.  Amplitudes of magnitude 1e-13 or less are
    pruned after the step, after the coefficient (when one is given) and
    after each sum."""
    for occ, amp in terms:
        moved = step(occ, mode, statistics)
        if moved is not None:
            new_occ, factor = moved
            value = 0j + amp * factor
            if coeff is not None and abs(value) > _PRUNE:
                value = value * coeff
            if abs(value) > _PRUNE:
                _accumulate(out, new_occ, value)
    return out


def create(state: StateVector, mode: Mode) -> StateVector:
    """Apply a creation operator; fermionic double occupation vanishes."""
    statistics = state.statistics
    return StateVector._build(statistics, _ladder({}, state.terms, _raised, mode, statistics))


def annihilate(state: StateVector, mode: Mode) -> StateVector:
    """Adjoint of create; annihilating an empty mode gives the zero vector."""
    statistics = state.statistics
    return StateVector._build(statistics, _ladder({}, state.terms, _lowered, mode, statistics))


@dataclass(frozen=True)
class ModeTransform:
    """Coherent site mixing, identical on every internal label.

    `site_block[i][j]` is the coefficient of the output creator at site
    i+1 in the image of the input creator at site j+1.
    """

    site_block: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self) -> None:
        # np.allclose(U U†, 1, atol=1e-12) entry by entry; `not <=` also
        # rejects a NaN
        rows = self.site_block
        for i, (a, b) in enumerate(rows):
            for j, (c, d) in enumerate(rows):
                delta = 1.0 if i == j else 0.0
                g = a * c.conjugate() + b * d.conjugate()
                if not abs(g - delta) <= 1e-12 + 1e-5 * delta:
                    raise ValueError("site block is not unitary")

    def image(self, mode: Mode) -> tuple[tuple[Mode, complex], ...]:
        """Linear combination replacing the creator for `mode`."""
        col = mode.site - 1
        site_1, site_2 = _site_modes(mode.spin)
        return ((site_1, self.site_block[0][col]), (site_2, self.site_block[1][col]))


@functools.cache
def _site_modes(spin: str) -> tuple[Mode, Mode]:
    """The modes of one internal label at sites 1 and 2, built once per label."""
    return Mode(1, spin), Mode(2, spin)


OPTICAL = "optical"
ATOMIC = "atomic"


def beamsplitter(theta: float = math.pi / 4, convention: str = OPTICAL) -> ModeTransform:
    """Two-site mixer in either convention.

    optical: real symmetric block [[cos θ, sin θ], [sin θ, −cos θ]], the
    balanced 50/50 splitter at θ=π/4.
    atomic: [[cos θ, −i sin θ], [−i sin θ, cos θ]], the Rabi-type mixer
    accumulated by a detuning sweep.
    """
    c, s = math.cos(theta), math.sin(theta)
    if convention == OPTICAL:
        return ModeTransform(((complex(c), complex(s)), (complex(s), complex(-c))))
    if convention == ATOMIC:
        return ModeTransform(((complex(c), -1j * s), (-1j * s, complex(c))))
    raise ValueError(f"unknown beamsplitter convention {convention!r}")


def apply_mode_transform(state: StateVector, transform: ModeTransform) -> StateVector:
    """Push a state through a mode transform.

    Each occupation configuration is read as its canonical creation
    polynomial a†(m1)^n1 ... a†(mk)^nk |0⟩ / √(n1! ... nk!) with modes in
    the fixed order; every creator is replaced by its image and the
    product is re-expanded onto the vacuum right-to-left.  The vacuum
    itself is left unchanged (its phase is fixed to zero).  Amplitudes of
    magnitude 1e-13 or less are pruned after every step: each created
    term, each term scaled by an image coefficient, each sum of the pieces
    of one creator, and each sum into the total.
    """
    statistics = state.statistics
    total: dict[OccupationState, complex] = {}
    for occ, amp in state.terms:
        norm = 1.0
        for _, n in occ.occupancy:
            norm *= math.factorial(n)
        current = {VACUUM: complex(amp / math.sqrt(norm))}
        for mode, n in reversed(occ.occupancy):
            images = transform.image(mode)
            for _ in range(n):
                pieces: dict[OccupationState, complex] = {}
                for out_mode, coeff in images:
                    if abs(coeff) > _PRUNE:
                        _ladder(pieces, current.items(), _raised, out_mode, statistics, coeff)
                current = pieces
        for key, value in current.items():
            _accumulate(total, key, value)
    return StateVector._build(statistics, total)


def _accumulate(out: dict, key, value: complex) -> None:
    """out[key] += value as StateVector `+` does it: from 0, then pruned."""
    value = out.get(key, 0) + value
    if abs(value) > _PRUNE:
        out[key] = value
    else:
        out.pop(key, None)
