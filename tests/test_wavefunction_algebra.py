"""Symmetrized position families, assembled states, spin-traced kernels."""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fewbody.exact import ONE, ZERO, rational, sqrt_rational
from fewbody.spin_algebra import DOWN, UP, SpinState, family_3, family_4
from fewbody.symmetric_group import Permutation
from fewbody.wavefunction_algebra import (
    GENERIC_ASSIGNMENT,
    PositionWavefunction,
    ReducedDensity,
    SpinPositionState,
    VanishingRepresentationError,
    assemble_state,
    build_position_family,
    collapsed_trace,
    evaluate_density,
    full_overlap,
    marginalize,
    project_out_symmetric_sum,
    spin_trace,
    spin_trace_pair,
)

THIRD = rational(Fraction(1, 3))
SIXTH = rational(Fraction(1, 6))


def test_standard_member_expansion_kind_0() -> None:
    family = build_position_family(3, 0, ("I", "II", "III"))
    expected = {
        ("I", "II", "III"): ONE,
        ("III", "II", "I"): -ONE,
        ("II", "I", "III"): ONE,
        ("II", "III", "I"): -ONE,
    }
    assert family[2].as_dict() == expected


def test_standard_member_expansion_kind_1() -> None:
    family = build_position_family(3, 1, ("I", "II", "III"))
    expected = {
        ("I", "II", "III"): ONE,
        ("III", "II", "I"): ONE,
        ("II", "I", "III"): -ONE,
        ("II", "III", "I"): -ONE,
    }
    assert family[2].as_dict() == expected


def _equality_patterns(n: int) -> list[tuple[str, ...]]:
    """One assignment per partition of the n slots into equal-label blocks
    (5 for n = 3, 15 for n = 4): the first slot of each new block takes
    the next unused label.  A family depends on its assignment only
    through this pattern."""
    patterns = []
    for digits in product(range(n), repeat=n):
        if all(d <= max(digits[:i], default=-1) + 1 for i, d in enumerate(digits)):
            patterns.append(tuple("abcd"[d] for d in digits))
    return patterns


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", [0, 1])
def test_family_members_sum_to_zero(n: int, kind: int) -> None:
    """Every assignment either annihilates the family or gives members that
    sum to zero: a (2,1) or (2,2) irrep holds no vector fixed by the
    3-cycle.  So project_out_symmetric_sum never changes a family, and an
    assembled state never has all its position parts zero."""
    patterns = _equality_patterns(n)
    assert len(patterns) == {3: 5, 4: 15}[n]
    for assignment in patterns:
        try:
            family = build_position_family(n, kind, assignment)
        except VanishingRepresentationError:
            continue
        total = family[0] + family[1] + family[2]
        assert total.is_zero()


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", [0, 1])
def test_symmetric_projection_is_noop_on_families(n: int, kind: int) -> None:
    family = build_position_family(n, kind)
    projected = project_out_symmetric_sum(family)
    for before, after in zip(family, projected):
        assert before.as_dict() == after.as_dict()


def test_symmetric_projection_rejects_unrelated_functions() -> None:
    a = PositionWavefunction.monomial(("a", "b", "c"))
    b = PositionWavefunction.monomial(("b", "a", "c"))
    with pytest.raises(ValueError):
        project_out_symmetric_sum([a, b, b])
    with pytest.raises(ValueError):
        project_out_symmetric_sum([a, b])


def test_position_family_arguments_are_checked() -> None:
    with pytest.raises(ValueError, match="kind = 2"):
        build_position_family(3, 2)
    with pytest.raises(ValueError, match="need 4 orbital labels, got 3"):
        build_position_family(4, 0, ("g", "g", "e"))


def test_fully_repeated_assignment_vanishes_for_kind_0() -> None:
    with pytest.raises(VanishingRepresentationError):
        build_position_family(3, 0, ("a", "a", "a"))
    # the role-swapped operator tolerates the repeat across its column
    family = build_position_family(3, 1, ("a", "a", "b"))
    assert not family[0].is_zero()


def test_position_inner_product_contracts_by_assignment() -> None:
    family = build_position_family(3, 0, ("I", "II", "III"))
    member = family[2]
    assert member.inner(member, ZERO) == rational(4)
    shifted = member.permuted(Permutation((2, 3, 1)))
    assert member.inner(shifted, ZERO) == -rational(2)


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("n", [3, 4])
def test_assembled_states_are_normalized_exactly(statistics: str, n: int) -> None:
    for coupling in ("low", "high"):
        for assignment in (GENERIC_ASSIGNMENT[n], None):
            state = assemble_state(n, coupling, statistics, assignment)
            assert full_overlap(state, state) == ONE


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("n", [3, 4])
def test_coupling_branches_are_orthogonal_for_distinct_orbitals(
    statistics: str, n: int
) -> None:
    ms = (UP, DOWN) if n == 3 else (UP,)
    for m in ms:
        psi1 = assemble_state(n, "low", statistics, GENERIC_ASSIGNMENT[n], m)
        psi2 = assemble_state(n, "high", statistics, GENERIC_ASSIGNMENT[n], m)
        assert full_overlap(psi1, psi2) == ZERO


@pytest.mark.parametrize(
    "n,statistics,expected",
    [
        (3, "fermion", -1),
        (3, "boson", 1),
        (4, "fermion", 1),
        (4, "boson", -1),
    ],
)
def test_doubly_occupied_assignment_collapses_both_branches(
    n: int, statistics: str, expected: int
) -> None:
    """One multiplet survives the repeated-orbital filling: Psi2 = ±Psi1."""
    psi1 = assemble_state(n, "low", statistics)
    psi2 = assemble_state(n, "high", statistics)
    assert full_overlap(psi1, psi2) == rational(expected)


def _permuted_state(state: SpinPositionState, p: Permutation) -> SpinPositionState:
    from fewbody.spin_algebra import SpinState

    pairs = []
    for chi, phi in state.pairs:
        moved = SpinState.from_dict(
            state.n,
            {p.apply_to_assignment(k): v for k, v in chi.as_dict().items()},
        )
        pairs.append((moved, phi.permuted(p)))
    return SpinPositionState(state.n, state.statistics, tuple(pairs))


@pytest.mark.parametrize("statistics,sign", [("fermion", -1), ("boson", 1)])
@pytest.mark.parametrize("n", [3, 4])
def test_simultaneous_transposition_statistics(
    statistics: str, sign: int, n: int
) -> None:
    for coupling in ("low", "high"):
        state = assemble_state(n, coupling, statistics, GENERIC_ASSIGNMENT[n])
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                swapped = _permuted_state(state, Permutation.from_mapping(n, {a: b, b: a}))
                # unit norm plus overlap ±1 pins swapped = ±state exactly
                assert full_overlap(swapped, swapped) == ONE
                assert full_overlap(swapped, state) == rational(sign)


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("coupling", ["low", "high"])
@pytest.mark.parametrize("assignment", ["ground", "generic"])
@pytest.mark.parametrize("n", [3, 4])
def test_spin_trace_collapses_to_the_position_sum(n, assignment, coupling, statistics) -> None:
    """Tr_spin |psi><psi| = (3/2) sum_i Phi_i Phi_i^+, entry by entry."""
    orbitals = GENERIC_ASSIGNMENT[n] if assignment == "generic" else None
    state = assemble_state(n, coupling, statistics, orbitals)
    assert spin_trace_pair(state, state) == collapsed_trace(state)


def _collapse_defect(state: SpinPositionState) -> ReducedDensity:
    return spin_trace_pair(state, state) - collapsed_trace(state)


@pytest.mark.parametrize("n", [3, 4])
def test_collapse_fails_off_the_family_grams(n: int) -> None:
    """The collapse needs position parts summing to zero and the spin Gram
    (3/2) I - (1/2) J; break either and the kernels differ."""
    state = assemble_state(n, "low", "fermion", GENERIC_ASSIGNMENT[n])
    spins = [chi for chi, _ in state.pairs]
    positions = [phi for _, phi in state.pairs]
    high_spins = family_3(1, UP) if n == 3 else family_4(1)

    def rebuilt(spins, positions):
        return SpinPositionState(n, "fermion", tuple(zip(spins, positions)))

    doubled = [positions[0].scaled(2), *positions[1:]]
    long_spin = [spins[0].scaled(2), *spins[1:]]
    mixed = [spins[0], spins[1], high_spins[2]]
    for broken in (
        rebuilt(spins, doubled),  # the position parts no longer sum to zero
        rebuilt(long_spin, positions),  # a Gram diagonal entry is 4, not 1
        rebuilt(mixed, positions),  # a cross-family entry replaces -1/2
    ):
        assert not _collapse_defect(broken).is_zero()
    # G is unchanged by a permutation applied to its rows and columns alike,
    # so pairing spin i with position i+1 leaves the trace collapsed: no
    # diagonal trace can detect a shifted pairing
    rotated = rebuilt(spins, positions[1:] + positions[:1])
    assert _collapse_defect(rotated).is_zero()


def test_pair_marginal_three_particles() -> None:
    state = assemble_state(3, "low", "fermion")
    kernel = marginalize(spin_trace_pair(state, state), (1, 2))
    expected = {
        (("g", "g"), ("g", "g")): THIRD,
        (("g", "e"), ("g", "e")): THIRD,
        (("e", "g"), ("e", "g")): THIRD,
        (("g", "e"), ("e", "g")): -SIXTH,
        (("e", "g"), ("g", "e")): -SIXTH,
    }
    assert kernel.as_dict() == expected


def test_pair_marginal_four_particles() -> None:
    state = assemble_state(4, "low", "fermion")
    kernel = marginalize(spin_trace_pair(state, state), (1, 2))
    expected = {
        (("g", "g"), ("g", "g")): SIXTH,
        (("e", "e"), ("e", "e")): SIXTH,
        (("g", "e"), ("g", "e")): THIRD,
        (("e", "g"), ("e", "g")): THIRD,
        (("g", "e"), ("e", "g")): -SIXTH,
        (("e", "g"), ("g", "e")): -SIXTH,
    }
    assert kernel.as_dict() == expected


@pytest.mark.parametrize("n,weights", [(3, (2, 1)), (4, (2, 2))])
def test_single_marginal_occupancies(n: int, weights: tuple[int, int]) -> None:
    state = assemble_state(n, "low", "fermion")
    single = marginalize(spin_trace_pair(state, state), (1,))
    wg, we = (Fraction(w, n) for w in weights)
    assert single.as_dict() == {
        (("g",), ("g",)): rational(wg),
        (("e",), ("e",)): rational(we),
    }


@pytest.mark.parametrize("n", [3, 4])
def test_pair_marginal_same_for_both_branches_and_statistics(n: int) -> None:
    reference = None
    for statistics in ("fermion", "boson"):
        for coupling in ("low", "high"):
            state = assemble_state(n, coupling, statistics)
            kernel = marginalize(spin_trace_pair(state, state), (1, 2))
            if reference is None:
                reference = kernel.as_dict()
            else:
                assert kernel.as_dict() == reference


def test_cross_kernel_nonempty_for_repeated_orbitals() -> None:
    """The branch-collapse makes the cross kernel a multiple of the direct one."""
    psi1 = assemble_state(3, "low", "fermion")
    psi2 = assemble_state(3, "high", "fermion")
    cross = spin_trace_pair(psi1, psi2)
    direct = spin_trace_pair(psi1, psi1)
    assert not cross.is_zero()
    assert cross.as_dict() == direct.scaled(-1).as_dict()


def test_marginalize_validation() -> None:
    state = assemble_state(3, "low", "fermion")
    kernel = spin_trace_pair(state, state)
    with pytest.raises(ValueError):
        marginalize(kernel, ())
    with pytest.raises(ValueError):
        marginalize(kernel, (1, 5))


def test_evaluate_density_with_constant_orbitals() -> None:
    state = assemble_state(3, "low", "fermion")
    kernel = marginalize(spin_trace_pair(state, state), (1, 2))
    evaluator = {"g": lambda x, y: 1.0, "e": lambda x, y: 2.0}
    value = evaluate_density(kernel, evaluator, [(0.0, 0.0), (0.0, 0.0)])
    # 1/3*g^4 + (1/3 + 1/3 - 1/3)*g^2 e^2 with g=1, e=2
    assert value == pytest.approx(5.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError, match="one point per kept coordinate"):
        evaluate_density(kernel, evaluator, [(0.0, 0.0)])
    empty = ReducedDensity.from_dict((1, 2), {})
    assert evaluate_density(empty, evaluator, [(0.0, 0.0), (0.0, 0.0)]) == 0.0


def test_c_weighted_kernel_evaluates_to_a_real_nonnegative_density() -> None:
    psi1 = assemble_state(3, "low", "fermion")
    kernel = spin_trace(0.6 + 0.8j, psi1, 0.8 - 0.6j, psi1)
    evaluator = {"g": lambda x, y: np.exp(-(x * x + y * y)), "e": lambda x, y: x}
    grid = np.linspace(-1.0, 1.0, 8)
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    values = evaluate_density(kernel, evaluator, [(xs, ys), (xs, ys), (xs, ys)])
    assert not np.iscomplexobj(values)
    assert np.all(values >= -1e-12)


def test_spin_trace_is_bilinear_in_the_branches() -> None:
    c1, c2 = 0.3 + 0.4j, -0.5 + 0.2j
    psi1 = assemble_state(3, "low", "boson", GENERIC_ASSIGNMENT[3])
    psi2 = assemble_state(3, "high", "boson", GENERIC_ASSIGNMENT[3])
    combined = spin_trace(c1, psi1, c2, psi2).as_dict()
    manual: dict = {}
    for coeff, bra_ket in (
        (abs(c1) ** 2, (psi1, psi1)),
        (abs(c2) ** 2, (psi2, psi2)),
        (c1 * np.conj(c2), (psi1, psi2)),
        (c2 * np.conj(c1), (psi2, psi1)),
    ):
        for key, val in spin_trace_pair(*bra_ket).as_dict().items():
            manual[key] = manual.get(key, 0j) + complex(coeff) * complex(val)
    manual = {k: v for k, v in manual.items() if abs(v) > 0}
    assert set(combined) == set(manual)
    for key, val in combined.items():
        assert complex(val) == pytest.approx(manual[key], abs=1e-15)


def test_superposition_statistics_mismatch_rejected() -> None:
    psi_f = assemble_state(3, "low", "fermion")
    psi_b = assemble_state(3, "low", "boson")
    with pytest.raises(ValueError, match="statistics mismatch between branches"):
        spin_trace(1.0, psi_f, 1.0, psi_b)
    with pytest.raises(ValueError, match="particle-count mismatch"):
        spin_trace(1.0, psi_f, 1.0, assemble_state(4, "low", "fermion"))
    with pytest.raises(ValueError, match="particle-count mismatch"):
        full_overlap(psi_f, assemble_state(4, "low", "fermion"))


def test_assemble_state_cache_key_ignores_argument_type() -> None:
    from_list = assemble_state(3, "low", "fermion", ["g", "g", "e"], 0.5)
    from_tuple = assemble_state(3, "low", "fermion", ("g", "g", "e"), Fraction(1, 2))
    assert from_list == from_tuple
    assert from_list is from_tuple
    assert full_overlap(from_list, from_list) == ONE


def test_assemble_state_invalid_arguments_raise_on_every_call() -> None:
    for _ in range(2):
        with pytest.raises(ValueError):
            assemble_state(3, "medium", "fermion")
        with pytest.raises(ValueError):
            assemble_state(3, "low", "anyon")
        with pytest.raises(ValueError):
            assemble_state(3, "low", "fermion", None, 0.3)
        with pytest.raises(ValueError):
            assemble_state(5, "low", "fermion")


def _complex_reference(density, evaluator, points):
    """The complex128 oracle for evaluate_density's float64 sum: every
    coefficient and orbital value complex, every label evaluated once per
    coordinate index, and an imaginary part within 1e-12 of the largest
    modulus dropped as roundoff."""
    cache = {}

    def phi(idx, label):
        if (idx, label) not in cache:
            x, y = points[idx]
            cache[idx, label] = evaluator[label](x, y)
        return cache[idx, label]

    total = None
    for (ket, bra), coef in density.terms:
        value = complex(coef)
        for idx in range(len(density.kept)):
            value = value * phi(idx, ket[idx]) * phi(idx, bra[idx]).conjugate()
        total = value if total is None else total + value
    arr = np.asarray(total)
    scale = float(np.max(np.abs(arr))) or 1.0
    if float(np.max(np.abs(arr.imag))) <= 1e-12 * scale:
        return arr.real if arr.shape else float(arr.real)
    return total


def _bits(values):
    values = np.asarray(values)
    return values.dtype, values.shape, values.tobytes()


def _odd_grid():
    # at an odd resolution x = 0 and y = 0 are grid points, where the odd
    # orbitals are exactly zero
    from fewbody.density_maps import GridSpec

    return GridSpec(resolution=(17, 17)).meshgrid()


@pytest.mark.parametrize("n, statistics", [(3, "fermion"), (4, "boson")])
def test_float_path_equals_the_complex_loop_bit_for_bit(n, statistics) -> None:
    from fewbody.orbitals import rectangle_mos, triangle_mos

    mos = triangle_mos(2.0, 2.5) if n == 3 else rectangle_mos(2.0, 2.0)
    evaluator = {label: mo.evaluate for label, mo in mos.items()}
    state = assemble_state(n, "low", statistics)
    kernel = marginalize(spin_trace_pair(state, state), (1, 2))
    grid = _odd_grid()
    for points in ([grid, grid], [grid, (1.0, 0.0)], [(0.0, 2.5), (0.25, -1.0)]):
        value = evaluate_density(kernel, evaluator, points)
        expected = _complex_reference(kernel, evaluator, points)
        assert not np.iscomplexobj(value)
        assert _bits(value) == _bits(expected)


def test_complex_orbital_values_raise() -> None:
    from fewbody.density_maps import PairDensityKernel
    from fewbody.orbitals import degenerate_superpositions, rectangle_mos

    mos = rectangle_mos(2.0, 2.0)
    circulating = degenerate_superpositions(mos["e"], mos["e'"])["e+ie'"]
    assert not circulating.is_real()
    evaluator = {"g": mos["g"].evaluate, "e": circulating.evaluate}
    state = assemble_state(4, "low", "fermion")
    kernel = marginalize(spin_trace_pair(state, state), (1, 2))
    with pytest.raises(ValueError, match="real orbital values"):
        evaluate_density(kernel, evaluator, [_odd_grid(), (1.0, -1.0)])
    pair = PairDensityKernel(kernel, {"g": mos["g"], "e": circulating})
    with pytest.raises(ValueError, match="real orbital values"):
        pair((0.5, 0.25), (1.0, -1.0))


@pytest.mark.parametrize(
    "n, assignment",
    [(4, "ground"), (4, "generic"), (3, "ground"), (3, "generic")],
    ids=["ground", "generic", "ground-3", "generic-3"],
)
def test_conjugate_weighted_kernels_match_the_complex_loop(n, assignment) -> None:
    """The balance check's kernel C1 Psi1 + C1* Psi2.  At the ground
    assignment the two branches lie on one ray and the imaginary parts of
    the cross terms cancel exactly; at the generic assignment they do not.
    At both, the float64 sum over the real parts of the coefficients equals
    the complex oracle bit for bit."""
    from fewbody.orbitals import rectangle_mos, triangle_mos

    mos = triangle_mos(2.0, 2.5) if n == 3 else rectangle_mos(2.0, 2.0)
    labels = GENERIC_ASSIGNMENT[n] if assignment == "generic" else ("g", "e")
    evaluator = {label: mo.evaluate for label, mo in zip(labels, mos.values())}
    orbitals = GENERIC_ASSIGNMENT[n] if assignment == "generic" else None
    c1 = complex(np.cos(0.39), np.sin(0.39))
    kernel = spin_trace(
        c1,
        assemble_state(n, "low", "boson", orbitals),
        c1.conjugate(),
        assemble_state(n, "high", "boson", orbitals),
    )
    has_imaginary = any(complex(coef).imag != 0 for _, coef in kernel.terms)
    assert has_imaginary == (assignment == "generic")
    rng = np.random.default_rng(1)
    for _ in range(6):
        points = [tuple(rng.uniform(-3.0, 3.0, 2)) for _ in range(n)]
        value = evaluate_density(kernel, evaluator, points)
        assert _bits(value) == _bits(_complex_reference(kernel, evaluator, points))


def test_each_coordinate_evaluates_each_of_its_labels_once() -> None:
    state = assemble_state(3, "low", "fermion")
    kernel = marginalize(spin_trace_pair(state, state), (1, 2))
    calls = []

    def counted(label, phi):
        def evaluate(x, y):
            calls.append(label)
            return phi(x, y)

        return evaluate

    evaluator = {
        "g": counted("g", lambda x, y: np.exp(-(x * x + y * y))),
        "e": counted("e", lambda x, y: x),
    }

    grid = _odd_grid()
    one_object = evaluate_density(kernel, evaluator, [grid, grid])
    assert sorted(calls) == ["e", "e", "g", "g"]
    calls.clear()
    separate = evaluate_density(kernel, evaluator, [grid, list(grid)])
    assert sorted(calls) == ["e", "e", "g", "g"]
    assert _bits(one_object) == _bits(separate)


# -- the shared sparse-vector algebra of the three exact types ------------

SMALL = rational(Fraction(1, 10**400))  # nonzero, though float(SMALL) == 0.0

# per type: its space, three keys in sorted order, and a space of another size
EXACT_TYPES = {
    "spin": (SpinState, 2, [(DOWN, DOWN), (DOWN, UP), (UP, DOWN)], 3),
    "position": (PositionWavefunction, 2, [("e", "e"), ("e", "g"), ("g", "e")], 3),
    "kernel": (
        ReducedDensity,
        (1,),
        [(("e",), ("e",)), (("e",), ("g",)), (("g",), ("e",))],
        (1, 2),
    ),
}


@pytest.mark.parametrize("kind", sorted(EXACT_TYPES))
def test_exact_vectors_prune_exact_zeros_only_and_sort_keys(kind: str) -> None:
    cls, space, keys, _ = EXACT_TYPES[kind]
    v = cls.from_dict(space, {keys[2]: SMALL, keys[1]: ZERO, keys[0]: ONE})
    assert v.terms == ((keys[0], ONE), (keys[2], SMALL))
    assert (v - v).terms == ()
    w = cls.from_dict(space, {keys[1]: sqrt_rational(2)})
    assert [k for k, _ in (w + v).terms] == sorted(keys)
    assert (v + w) == (w + v)
    assert v.scaled(2).as_dict() == {keys[0]: rational(2), keys[2]: SMALL * 2}


@pytest.mark.parametrize("kind", sorted(EXACT_TYPES))
def test_exact_vectors_of_other_spaces_do_not_mix(kind: str) -> None:
    cls, space, keys, other_space = EXACT_TYPES[kind]
    v = cls.from_dict(space, {keys[0]: ONE})
    other = cls.from_dict(other_space, {})
    with pytest.raises(ValueError, match="space mismatch"):
        v + other
    with pytest.raises(ValueError, match="space mismatch"):
        v.inner(other, ZERO)


def test_exact_keys_must_fit_the_space() -> None:
    with pytest.raises(ValueError):
        SpinState.from_dict(3, {(UP, DOWN): ONE})
    with pytest.raises(ValueError):
        PositionWavefunction.from_dict(3, {("g", "e"): 1})


def test_kernels_mixing_exact_and_complex_coefficients_add_as_complex() -> None:
    exact = ReducedDensity.from_dict((1,), {(("g",), ("g",)): sqrt_rational(2)})
    mixed = exact.scaled(0.5j) + exact
    ((key, coef),) = mixed.terms
    assert key == (("g",), ("g",))
    assert coef == complex(sqrt_rational(2)) * 0.5j + complex(sqrt_rational(2))
    assert (exact.scaled(1j) - exact.scaled(1j)).is_zero()


def test_spin_trace_rejects_a_coefficient_whose_square_overflows() -> None:
    # abs(C1) ** 2 overflows float; the error names C1, not an OverflowError
    with pytest.raises(ValueError, match=r"\|C1\|\^2 is not finite"):
        spin_trace(
            1e200 * complex(0.9, 0.4),
            assemble_state(3, "low", "fermion"),
            1.0,
            assemble_state(3, "high", "fermion"),
        )
