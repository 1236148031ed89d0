"""Second-quantized mode algebra and the frozen beamsplitter outcomes."""
import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fewbody
from fewbody import fock_engine
from fewbody.fock_engine import (
    ATOMIC,
    BOSON,
    FERMION,
    OPTICAL,
    Mode,
    ModeTransform,
    OccupationState,
    StateVector,
    annihilate,
    apply_mode_transform,
    basis_state,
    beamsplitter,
    create,
)

HBAR = "H̄"
RT2 = math.sqrt(2.0)


def mode(site: int, spin: str) -> Mode:
    return Mode(site, spin)


def transform_from_matrix(matrix) -> ModeTransform:
    """The transform of a 2x2 array-like block, read through a complex array."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError("site block must be 2x2")
    return ModeTransform(
        ((complex(arr[0, 0]), complex(arr[0, 1])),
         (complex(arr[1, 0]), complex(arr[1, 1]))),
    )


def transform_matrix(transform: ModeTransform) -> np.ndarray:
    return np.array(transform.site_block, dtype=complex)


def amplitude_distance(a: StateVector, b: StateVector) -> float:
    keys = set(a.as_dict()) | set(b.as_dict())
    return max(
        (abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0
    )


def split(state: StateVector, convention: str = OPTICAL) -> StateVector:
    return apply_mode_transform(state, beamsplitter(convention=convention))


# -- frozen two-particle outcomes ---------------------------------------


def test_boson_parallel_inputs_bunch() -> None:
    state = split(basis_state(BOSON, [mode(1, "H"), mode(2, "H")]))
    expected = basis_state(BOSON, [mode(1, "H"), mode(1, "H")], 0.5) - basis_state(
        BOSON, [mode(2, "H"), mode(2, "H")], 0.5
    )
    # 0.5 * sqrt(2) per doubly occupied port = 1/sqrt(2) amplitudes
    assert amplitude_distance(state, expected) <= 1e-12
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_boson_symmetric_cross_polarized_inputs_bunch() -> None:
    incoming = basis_state(BOSON, [mode(1, "H"), mode(2, "V")], 1 / RT2) + basis_state(
        BOSON, [mode(1, "V"), mode(2, "H")], 1 / RT2
    )
    expected = basis_state(
        BOSON, [mode(1, "H"), mode(1, "V")], 1 / RT2
    ) - basis_state(BOSON, [mode(2, "H"), mode(2, "V")], 1 / RT2)
    assert amplitude_distance(split(incoming), expected) <= 1e-12


def test_boson_antisymmetric_inputs_antibunch() -> None:
    incoming = basis_state(BOSON, [mode(1, "H"), mode(2, "V")], 1 / RT2) - basis_state(
        BOSON, [mode(1, "V"), mode(2, "H")], 1 / RT2
    )
    assert amplitude_distance(split(incoming), incoming.scaled(-1.0)) <= 1e-12


def test_fermion_parallel_inputs_antibunch() -> None:
    incoming = basis_state(FERMION, [mode(1, "H"), mode(2, "H")])
    assert amplitude_distance(split(incoming), incoming.scaled(-1.0)) <= 1e-12


def test_fermion_triplet_inputs_antibunch() -> None:
    incoming = basis_state(
        FERMION, [mode(1, "H"), mode(2, HBAR)], 1 / RT2
    ) + basis_state(FERMION, [mode(1, HBAR), mode(2, "H")], 1 / RT2)
    assert amplitude_distance(split(incoming), incoming.scaled(-1.0)) <= 1e-12


def test_fermion_singlet_inputs_bunch() -> None:
    incoming = basis_state(
        FERMION, [mode(1, "H"), mode(2, HBAR)], 1 / RT2
    ) - basis_state(FERMION, [mode(1, HBAR), mode(2, "H")], 1 / RT2)
    expected = basis_state(
        FERMION, [mode(1, "H"), mode(1, HBAR)], 1 / RT2
    ) - basis_state(FERMION, [mode(2, "H"), mode(2, HBAR)], 1 / RT2)
    assert amplitude_distance(split(incoming), expected) <= 1e-12


def test_atomic_parallel_inputs_bunch_with_quarter_phase() -> None:
    state = split(basis_state(BOSON, [mode(1, "a"), mode(2, "a")]), ATOMIC)
    expected = basis_state(BOSON, [mode(1, "a"), mode(1, "a")], -0.5j) + basis_state(
        BOSON, [mode(2, "a"), mode(2, "a")], -0.5j
    )
    assert amplitude_distance(state, expected) <= 1e-12


def test_atomic_symmetric_two_state_inputs_bunch() -> None:
    incoming = basis_state(BOSON, [mode(1, "a"), mode(2, "b")], 1 / RT2) + basis_state(
        BOSON, [mode(1, "b"), mode(2, "a")], 1 / RT2
    )
    expected = basis_state(
        BOSON, [mode(1, "a"), mode(1, "b")], -1j / RT2
    ) + basis_state(BOSON, [mode(2, "a"), mode(2, "b")], -1j / RT2)
    assert amplitude_distance(split(incoming, ATOMIC), expected) <= 1e-12


def test_atomic_antisymmetric_inputs_pass_unchanged() -> None:
    incoming = basis_state(BOSON, [mode(1, "a"), mode(2, "b")], 1 / RT2) - basis_state(
        BOSON, [mode(1, "b"), mode(2, "a")], 1 / RT2
    )
    assert amplitude_distance(split(incoming, ATOMIC), incoming) <= 1e-12


@pytest.mark.parametrize("theta", [0.3, 0.7853981634, 1.2])
def test_eigenstate_outcomes_hold_at_any_mixing_angle(theta: float) -> None:
    # the optical matrix has determinant -1, the atomic +1, so these
    # inputs stay eigenstates away from the balanced point too
    fermion_parallel = basis_state(FERMION, [mode(1, "H"), mode(2, "H")])
    boson_antisym = basis_state(
        BOSON, [mode(1, "H"), mode(2, "V")], 1 / RT2
    ) - basis_state(BOSON, [mode(1, "V"), mode(2, "H")], 1 / RT2)
    atomic_antisym = basis_state(
        BOSON, [mode(1, "a"), mode(2, "b")], 1 / RT2
    ) - basis_state(BOSON, [mode(1, "b"), mode(2, "a")], 1 / RT2)
    optical = beamsplitter(theta)
    atomic = beamsplitter(theta, ATOMIC)
    assert amplitude_distance(
        apply_mode_transform(fermion_parallel, optical), fermion_parallel.scaled(-1)
    ) <= 1e-12
    assert amplitude_distance(
        apply_mode_transform(boson_antisym, optical), boson_antisym.scaled(-1)
    ) <= 1e-12
    assert amplitude_distance(
        apply_mode_transform(atomic_antisym, atomic), atomic_antisym
    ) <= 1e-12


def coincidence_probability(state: StateVector) -> float:
    total = 0.0
    for occ, amp in state.as_dict().items():
        per_site: dict[int, int] = {}
        for m, count in occ.counts().items():
            per_site[m.site] = per_site.get(m.site, 0) + count
        if per_site.get(1) == 1 and per_site.get(2) == 1:
            total += abs(amp) ** 2
    return total


@pytest.mark.parametrize("theta", np.linspace(0.05, 1.5, 7))
def test_boson_coincidence_follows_cos_2theta(theta: float) -> None:
    out = apply_mode_transform(
        basis_state(BOSON, [mode(1, "H"), mode(2, "H")]), beamsplitter(theta)
    )
    assert coincidence_probability(out) == pytest.approx(
        math.cos(2 * theta) ** 2, abs=1e-12
    )


def test_balanced_coincidence_extremes() -> None:
    boson = split(basis_state(BOSON, [mode(1, "H"), mode(2, "H")]))
    fermion = split(basis_state(FERMION, [mode(1, "H"), mode(2, "H")]))
    assert coincidence_probability(boson) == pytest.approx(0.0, abs=1e-12)
    assert coincidence_probability(fermion) == pytest.approx(1.0, abs=1e-12)


# -- operator algebra ----------------------------------------------------


ALL_MODES = [Mode(1, "H"), Mode(1, HBAR), Mode(2, "H"), Mode(2, HBAR)]


def test_creation_order_fixes_the_sign() -> None:
    empty = basis_state(FERMION, [])
    for i, lo in enumerate(ALL_MODES):
        for hi in ALL_MODES[i + 1:]:
            reference = OccupationState.from_counts(FERMION, {lo: 1, hi: 1})
            ascending = create(create(empty, hi), lo)
            descending = create(create(empty, lo), hi)
            assert ascending.amplitude(reference) == pytest.approx(1.0, abs=0.0)
            assert descending.amplitude(reference) == pytest.approx(-1.0, abs=0.0)


def test_creators_anticommute_exactly() -> None:
    empty = basis_state(FERMION, [])
    for a in ALL_MODES:
        for b in ALL_MODES:
            left = create(create(empty, a), b)
            right = create(create(empty, b), a)
            assert (left + right).is_zero()
            if a == b:
                assert left.is_zero()


def test_pauli_exclusion_in_basis_state() -> None:
    state = basis_state(FERMION, [mode(1, "H"), mode(1, "H")])
    assert state.is_zero()
    # an occupation state stores only what exclusion allows, and no empty mode
    with pytest.raises(ValueError, match="fermionic occupancy exceeds 1"):
        OccupationState.from_counts(FERMION, {mode(1, "H"): 2})
    with pytest.raises(ValueError, match="must be positive"):
        OccupationState(((mode(1, "H"), 0),))


def test_boson_ladder_amplitudes() -> None:
    m = mode(1, "a")
    triple = basis_state(BOSON, [m, m, m])
    occ = OccupationState.from_counts(BOSON, {m: 3})
    assert triple.amplitude(occ) == pytest.approx(math.sqrt(6.0), abs=1e-15)
    lowered = annihilate(triple, m)
    assert lowered.amplitude(
        OccupationState.from_counts(BOSON, {m: 2})
    ) == pytest.approx(3 * math.sqrt(2.0), abs=1e-14)


def test_annihilate_is_adjoint_of_create() -> None:
    rng = np.random.default_rng(7)
    for statistics in (BOSON, FERMION):
        for _ in range(25):
            kets = [
                basis_state(statistics, [ALL_MODES[i] for i in idx], amp)
                for idx, amp in (
                    (rng.integers(0, 4, size=2), rng.normal() + 1j * rng.normal()),
                    (rng.integers(0, 4, size=1), rng.normal() + 1j * rng.normal()),
                )
            ]
            a = kets[0]
            b = kets[1]
            m = ALL_MODES[int(rng.integers(0, 4))]
            lhs = a.inner(create(b, m), 0j)
            rhs = annihilate(a, m).inner(b, 0j)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _bits(block) -> tuple:
    """Each entry's real and imaginary parts, signed zeros told apart."""
    return tuple(float.hex(part) for row in block for z in row for part in (z.real, z.imag))


def test_beamsplitter_matrices() -> None:
    # the blocks equal, bit for bit, those built through a complex array
    for k in range(-400, 401):
        theta = k * 0.0137
        c, s = math.cos(theta), math.sin(theta)
        for convention, matrix in (
            (OPTICAL, [[c, s], [s, -c]]),
            (ATOMIC, [[c, -1j * s], [-1j * s, c]]),
        ):
            assert _bits(beamsplitter(theta, convention).site_block) == _bits(
                transform_from_matrix(matrix).site_block
            ), (theta, convention)
    with pytest.raises(ValueError):
        beamsplitter(0.5, "acoustic")


def test_exact_layer_and_fock_engine_import_without_numpy() -> None:
    modules = ["exact", "sparse", "spin_algebra", "symmetric_group", "fock_engine"]
    code = (
        "import sys\n"
        + "".join(f"import fewbody.{name}\n" for name in modules)
        + "print('numpy' in sys.modules)"
    )
    path = [str(Path(fewbody.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "False\n")


def test_transform_requires_unitary_block() -> None:
    nan, inf = float("nan"), float("inf")
    rejected = [
        [[1.0, 0.0], [1.0, 1.0]],
        [[nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, complex(0.0, nan)]],
        [[inf, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [-inf, 1.0]],
        [[1.0, 1e-11], [0.0, 1.0]],  # |G_01| = 1e-11 > 1e-12
        [[1.0, 0.0], [1e-11j, 1.0]],
        [[1.0 + 1e-5, 0.0], [0.0, 1.0]],  # |G_00 - 1| = 2e-5 > 1e-12 + 1e-5
    ]
    for block in rejected:
        with pytest.raises(ValueError):
            transform_from_matrix(block)
    for theta in (0.0, math.pi / 4, math.pi / 2):
        for convention in (OPTICAL, ATOMIC):
            beamsplitter(theta, convention)
    # the bound is np.allclose(U U†, 1, atol=1e-12): 1e-12 off the
    # diagonal, 1e-12 + 1e-5 on it
    transform_from_matrix([[1.0, 1e-13], [0.0, 1.0]])
    transform_from_matrix([[1.0, 0.0], [-1e-13j, 1.0]])
    transform_from_matrix([[1.0 + 1e-13, 0.0], [0.0, 1.0]])
    transform_from_matrix([[1.0 + 4e-6, 0.0], [0.0, 1.0]])
    transform_from_matrix([[1.0, 0.0], [0.0, 1j]])


def test_compose_matches_sequential_application() -> None:
    first = beamsplitter(0.3)
    second = beamsplitter(0.9, ATOMIC)
    state = basis_state(BOSON, [mode(1, "a"), mode(2, "a"), mode(2, "a")], 0.8j)
    chained = apply_mode_transform(apply_mode_transform(state, first), second)
    fused = apply_mode_transform(
        state, transform_from_matrix(transform_matrix(second) @ transform_matrix(first))
    )
    assert amplitude_distance(chained, fused) <= 1e-12


def test_inverse_transform_restores_the_state() -> None:
    transform = beamsplitter(0.81, ATOMIC)
    inverse = transform_from_matrix(transform_matrix(transform).conj().T)
    state = basis_state(BOSON, [mode(1, "a"), mode(2, "b")], 0.6) + basis_state(
        BOSON, [mode(2, "a"), mode(2, "b")], 0.8j
    )
    restored = apply_mode_transform(apply_mode_transform(state, transform), inverse)
    assert amplitude_distance(restored, state) <= 1e-12


amplitudes = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=40, deadline=None)
@given(
    amplitudes,
    amplitudes,
    st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
    st.sampled_from([OPTICAL, ATOMIC]),
    st.sampled_from([BOSON, FERMION]),
)
def test_mode_transforms_preserve_the_norm(
    c1: complex, c2: complex, theta: float, convention: str, statistics: str
) -> None:
    state = basis_state(statistics, [mode(1, "H"), mode(2, "V")], c1) + basis_state(
        statistics, [mode(2, "H"), mode(1, "V")], c2
    )
    transformed = apply_mode_transform(state, beamsplitter(theta, convention))
    assert transformed.norm() == pytest.approx(state.norm(), abs=1e-10)


def test_statistics_never_mix() -> None:
    with pytest.raises(ValueError):
        basis_state(BOSON, [mode(1, "H")]) + basis_state(FERMION, [mode(1, "H")])
    with pytest.raises(ValueError):
        basis_state(BOSON, [mode(1, "H")]).inner(basis_state(FERMION, [mode(1, "H")]), 0j)


def test_state_vectors_prune_below_1e_13_and_sort_by_occupancy() -> None:
    occ = {
        name: OccupationState.from_counts(BOSON, {mode(site, "H"): 1})
        for name, site in (("one", 1), ("two", 2))
    }
    pair = OccupationState.from_counts(BOSON, {mode(1, "H"): 1, mode(2, "H"): 1})
    state = StateVector.from_dict(
        BOSON, {occ["two"]: 2e-13, pair: 1e-13, occ["one"]: 1}
    )
    assert state.terms == ((occ["one"], 1 + 0j), (occ["two"], 2e-13 + 0j))
    assert all(type(amp) is complex for _, amp in state.terms)
    assert StateVector.from_dict(BOSON, {pair: -1e-13j}).is_zero()
    total = state + basis_state(BOSON, [mode(1, "H"), mode(2, "H")])
    assert [o for o, _ in total.terms] == [occ["one"], pair, occ["two"]]


def test_single_occupancies_are_one_configuration_under_both_statistics() -> None:
    for counts in ({}, {mode(1, "H"): 1}, {mode(1, "H"): 1, mode(2, "V"): 1}):
        assert OccupationState.from_counts(BOSON, counts) == OccupationState.from_counts(
            FERMION, counts
        )


def test_fermion_state_rejects_a_doubly_occupied_term() -> None:
    double = OccupationState(((mode(1, "H"), 2),))
    assert StateVector.from_dict(BOSON, {double: 1}).amplitude(double) == 1
    with pytest.raises(ValueError, match="fermionic occupancy exceeds 1"):
        StateVector.from_dict(FERMION, {double: 1})


def test_adding_to_a_new_key_gives_negative_zero_components_a_plus_sign() -> None:
    """0 + amp, as the splitter's outputs have always been summed: a new
    amplitude -1-0j is stored as -1+0j, so reports print +0.000000i."""
    occ = OccupationState.from_counts(BOSON, {mode(1, "H"): 2})
    negative = StateVector(BOSON, ((occ, complex(-1.0, -0.0)),))
    ((_, amp),) = (StateVector.zero(BOSON) + negative).terms
    assert math.copysign(1.0, amp.imag) == 1.0


def test_mode_validation() -> None:
    with pytest.raises(ValueError):
        Mode(3, "H")
    with pytest.raises(ValueError):
        Mode(0, "H")


def test_make_and_replace_validate_like_the_constructor() -> None:
    with pytest.raises(ValueError, match="site must be 1 or 2"):
        Mode._make((3, "H"))
    with pytest.raises(ValueError, match="site must be 1 or 2"):
        Mode(1, "H")._replace(site=3)
    occ = OccupationState(((Mode(1, "H"), 1),))
    with pytest.raises(ValueError, match="stored occupancies must be positive"):
        OccupationState._make((((Mode(1, "H"), 0),),))
    with pytest.raises(ValueError, match="stored occupancies must be positive"):
        occ._replace(occupancy=((Mode(1, "H"), -1),))
    moved = Mode(1, "H")._replace(site=2)
    assert type(moved) is Mode and moved == Mode(2, "H")
    assert type(occ._replace()) is OccupationState and occ._replace() == occ


def test_modes_sort_site_major_then_by_label() -> None:
    modes = [Mode(2, "V"), Mode(1, HBAR), Mode(2, "H"), Mode(1, "V"), Mode(1, "H")]
    assert sorted(modes) == [
        Mode(1, "H"), Mode(1, HBAR), Mode(1, "V"), Mode(2, "H"), Mode(2, "V")
    ]
    assert Mode(1, "V") < Mode(2, "H") and Mode(2, "H") < Mode(2, "V")


def test_equal_configurations_are_one_key_and_a_repeated_step_is_one_lookup() -> None:
    built = OccupationState.from_counts(BOSON, {mode(2, "V"): 2, mode(1, "H"): 1})
    literal = OccupationState(((mode(1, "H"), 1), (mode(2, "V"), 2)))
    assert built is not literal and built == literal and hash(built) == hash(literal)
    assert len({built: 1, literal: 2}) == 1
    raised, factor = fock_engine._raised(built, mode(2, "V"), BOSON)
    assert raised == OccupationState(((mode(1, "H"), 1), (mode(2, "V"), 3)))
    assert factor == math.sqrt(3)
    assert fock_engine._raised(literal, mode(2, "V"), BOSON)[0] is raised


def test_configurations_keep_positive_occupancies() -> None:
    for n in (0, -1):
        with pytest.raises(ValueError, match="stored occupancies must be positive"):
            OccupationState(((mode(1, "H"), 1), (mode(2, "H"), n)))


def test_mode_and_configuration_reprs() -> None:
    assert repr(Mode(2, "V")) == "Mode(site=2, spin='V')"
    assert repr(OccupationState(((Mode(1, "H"), 1), (Mode(2, HBAR), 1)))) == (
        "OccupationState(occupancy=((Mode(site=1, spin='H'), 1), "
        "(Mode(site=2, spin='H̄'), 1)))"
    )
    assert repr(fock_engine.VACUUM) == "OccupationState(occupancy=())"


def test_global_phase_applies_uniformly() -> None:
    state = basis_state(BOSON, [mode(1, "a"), mode(2, "b")], 1 / RT2) + basis_state(
        BOSON, [mode(1, "b"), mode(2, "a")], 1 / RT2
    )
    rotated = state.scaled(cmath.exp(-0.75j))
    assert rotated.norm() == pytest.approx(1.0, abs=1e-12)
    overlap = state.inner(rotated, 0j)
    assert overlap == pytest.approx(cmath.exp(-0.75j), abs=1e-12)


# -- bit-for-bit reference for the splitter -------------------------------
#
# The splitter as written on the StateVector algebra: every creator builds
# a pruned, sorted StateVector, and pieces are summed with `+`.  The engine
# must give the same terms with the same amplitude bits, the sign of zero
# included (a report prints +0.000000i or -0.000000i from it).


def reference_create(state: StateVector, mode: Mode) -> StateVector:
    statistics = state.statistics
    out: dict[OccupationState, complex] = {}
    for occ, amp in state.terms:
        counts = occ.counts()
        n = counts.get(mode, 0)
        if statistics == FERMION:
            if n == 1:
                continue
            factor = -1.0 if occ.occupancy_before(mode) % 2 else 1.0
        else:
            factor = math.sqrt(n + 1)
        counts[mode] = n + 1
        new_occ = OccupationState.from_counts(statistics, counts)
        out[new_occ] = out.get(new_occ, 0j) + amp * factor
    return StateVector.from_dict(statistics, out)


def reference_annihilate(state: StateVector, mode: Mode) -> StateVector:
    out: dict[OccupationState, complex] = {}
    for occ, amp in state.terms:
        counts = occ.counts()
        n = counts.get(mode, 0)
        if n == 0:
            continue
        if state.statistics == FERMION:
            factor = -1.0 if occ.occupancy_before(mode) % 2 else 1.0
        else:
            factor = math.sqrt(n)
        counts[mode] = n - 1
        new_occ = OccupationState.from_counts(state.statistics, counts)
        out[new_occ] = out.get(new_occ, 0j) + amp * factor
    return StateVector.from_dict(state.statistics, out)


def reference_apply(state: StateVector, transform: ModeTransform) -> StateVector:
    statistics = state.statistics
    total = StateVector.zero(statistics)
    for occ, amp in state.terms:
        norm = 1.0
        for _, n in occ.occupancy:
            norm *= math.factorial(n)
        current = StateVector.from_dict(
            statistics, {OccupationState(()): amp / math.sqrt(norm)}
        )
        for mode_, n in reversed(occ.occupancy):
            images = transform.image(mode_)
            for _ in range(n):
                pieces = StateVector.zero(statistics)
                for out_mode, coeff in images:
                    if abs(coeff) <= 1e-13:
                        continue
                    pieces = pieces + reference_create(current, out_mode).scaled(coeff)
                current = pieces
        total = total + current
    return total


def amplitude_bits(state: StateVector) -> tuple:
    return state.statistics, [(occ, repr(amp)) for occ, amp in state.terms]


SPLIT_MODES = [Mode(1, "H"), Mode(1, "V"), Mode(2, "H"), Mode(2, "V")]


def occupation(statistics: str, modes) -> OccupationState:
    counts: dict[Mode, int] = {}
    for m in modes:
        counts[m] = counts.get(m, 0) + 1
    return OccupationState.from_counts(statistics, counts)


def splitter_inputs(statistics: str, rng) -> list[StateVector]:
    """Vacuum, one to three particles, one to three terms; for bosons also
    double and triple occupation; and terms near the 1e-13 prune bound."""
    H1, V1, H2, V2 = SPLIT_MODES
    fixed = [
        [((), 0.3 - 0.4j)],
        [((H1,), 1.0)],
        [((H1, V2), 0.6), ((V1, H2), -0.8j)],
        [((H1, H2), 1.0), ((), 0.5j), ((V1, V2, H2), -0.25)],
        # a term far below the others' scale: its pieces are pruned at
        # every step, so no bit of the large term's outputs may move
        [((H1, V2), 0.8 + 0.1j), ((V1, H2), 1.5e-13)],
        [((H1, V2), 0.8), ((V1, H2), 3e-13j), ((H1, H2), -2.2e-13)],
    ]
    if statistics == BOSON:
        fixed += [
            [((H1, H1), 1.0)],
            [((H1, H1, H2), -0.7j), ((V2, V2, V2), 0.7)],
            # 1.3e-13 / sqrt(2!) falls below the bound before any creator
            [((H1, H2), 0.9), ((H1, H1), 1.3e-13), ((H2, H2), 1.3e-13j)],
            [((H1, H1), 1.41421e-13), ((V2,), 0.5)],
        ]
    states = [
        StateVector.from_dict(
            statistics, {occupation(statistics, m): a for m, a in terms}
        )
        for terms in fixed
    ]
    while len(states) < len(fixed) + 12:
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            count = int(rng.integers(0, 4))
            picks = rng.choice(4, size=count, replace=statistics == BOSON)
            occ = occupation(statistics, [SPLIT_MODES[i] for i in picks])
            terms[occ] = complex(rng.normal(), rng.normal())
        states.append(StateVector.from_dict(statistics, terms))
    return states


def test_splitter_matches_the_state_vector_algebra_bit_for_bit() -> None:
    rng = np.random.default_rng(20261018)
    angles = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    angles += [float(t) for t in rng.uniform(-math.pi, 2 * math.pi, size=6)]
    for statistics in (BOSON, FERMION):
        inputs = splitter_inputs(statistics, rng)
        for convention in (OPTICAL, ATOMIC):
            for theta in angles:
                exact = beamsplitter(theta, convention)
                # inside the unitarity bound, with coefficients up to
                # 1 + 4e-6: a term just under 1e-13 that is not pruned
                # when it is created grows past the bound when scaled
                stretched = transform_from_matrix(transform_matrix(exact) * (1 + 4e-6))
                for transform in (exact, stretched):
                    for state in inputs:
                        assert amplitude_bits(
                            apply_mode_transform(state, transform)
                        ) == amplitude_bits(reference_apply(state, transform)), (
                            statistics, transform, state,
                        )


def test_create_and_annihilate_match_the_reference_bit_for_bit() -> None:
    rng = np.random.default_rng(1018)
    for statistics in (BOSON, FERMION):
        for state in splitter_inputs(statistics, rng):
            for m in SPLIT_MODES:
                assert amplitude_bits(create(state, m)) == amplitude_bits(
                    reference_create(state, m)
                )
                assert amplitude_bits(annihilate(state, m)) == amplitude_bits(
                    reference_annihilate(state, m)
                )
