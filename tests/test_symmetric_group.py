"""Permutations, standard tableaux, tableau symmetrizers."""
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from fewbody.symmetric_group import Permutation, apply_symmetrizer, build_symmetrizer
from fewbody.symmetric_group import _group_over_blocks
from fewbody.wavefunction_algebra import PositionWavefunction


def test_permutation_basics() -> None:
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(2) == 3 and p(3) == 1
    assert p.compose(Permutation((3, 1, 2))) == Permutation.identity(3)
    assert p.sign() == 1
    assert Permutation.from_mapping(3, {1: 2, 2: 1}).sign() == -1


def test_apply_to_assignment_moves_values_with_coordinates() -> None:
    p = Permutation((2, 3, 1))
    # value at coordinate c moves to coordinate p(c)
    assert p.apply_to_assignment(("a", "b", "c")) == ("c", "a", "b")
    assert Permutation.identity(3).apply_to_assignment((1, 2, 3)) == (1, 2, 3)


def test_from_mapping_partial() -> None:
    p = Permutation.from_mapping(4, {1: 3, 3: 1})
    assert p == Permutation((3, 2, 1, 4))
    with pytest.raises(ValueError):
        Permutation.from_mapping(3, {1: 1, 2: 1})


def test_all_permutations_sizes() -> None:
    # the group over one block of every coordinate is all of S_n
    for n, size in ((2, 2), (3, 6), (4, 24)):
        perms = _group_over_blocks(n, [tuple(range(1, n + 1))])
        assert len(perms) == size
        assert len(set(perms)) == size
    assert sum(p.sign() for p in _group_over_blocks(4, [(1, 2, 3, 4)])) == 0


perm_strategy = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(
        lambda images: Permutation(tuple(images))
    )
)


@given(perm_strategy)
def test_sign_of_inverse(p: Permutation) -> None:
    # inverse(k) is the coordinate p sends to k
    inverse = Permutation(tuple(sorted(range(1, p.n + 1), key=p)))
    assert p.sign() == inverse.sign()
    assert p.compose(inverse) == Permutation.identity(p.n)


@given(st.permutations([1, 2, 3, 4]), st.permutations([1, 2, 3, 4]))
def test_sign_is_multiplicative(a, b) -> None:
    p, q = Permutation(tuple(a)), Permutation(tuple(b))
    assert p.compose(q).sign() == p.sign() * q.sign()


def test_young_diagram_validation() -> None:
    # the diagram is the tableau's row lengths, which must be a partition:
    # no empty row, no row longer than the row above it
    for rows in (((1,), (2, 3)), ((1, 2), ()), ((1, 2, 3), (), (4,)), ()):
        with pytest.raises(ValueError):
            build_symmetrizer(rows)
    assert len(build_symmetrizer(((1, 2), (3,)))) == 4


def test_nonstandard_tableau_rejected() -> None:
    with pytest.raises(ValueError):
        build_symmetrizer(((2, 1), (3,)))
    with pytest.raises(ValueError):
        build_symmetrizer(((1, 2), (4,)))
    build_symmetrizer(((1, 3), (2,)))


def test_single_column_gives_full_antisymmetrizer() -> None:
    sym = build_symmetrizer(((1,), (2,), (3,)))
    base = PositionWavefunction.monomial(("a", "b", "c"))
    result = apply_symmetrizer(sym, base)
    expansion = result.as_dict()
    assert len(expansion) == 6
    for p in map(Permutation, permutations((1, 2, 3))):
        key = p.apply_to_assignment(("a", "b", "c"))
        assert expansion[key].as_rational() == p.sign()


def test_single_row_gives_full_symmetrizer() -> None:
    sym = build_symmetrizer(((1, 2, 3),))
    result = apply_symmetrizer(sym, PositionWavefunction.monomial(("a", "b", "c")))
    assert all(v.as_rational() == 1 for v in result.as_dict().values())
    assert len(result.as_dict()) == 6


@pytest.mark.parametrize("conjugate", [False, True])
def test_hook_symmetrizer_essentially_idempotent(conjugate: bool) -> None:
    # e^2 = (n! / dim) e with n! = 6 and dim = 2 for the (2,1) module
    sym = build_symmetrizer(((1, 2), (3,)), conjugate=conjugate)
    base = PositionWavefunction.monomial(("a", "b", "c"))
    once = apply_symmetrizer(sym, base)
    twice = apply_symmetrizer(sym, once)
    assert twice.as_dict() == once.scaled(3).as_dict()


def test_conjugate_swaps_roles_on_same_tableau() -> None:
    tableau = ((1, 2), (3,))
    plain = apply_symmetrizer(
        build_symmetrizer(tableau, conjugate=False),
        PositionWavefunction.monomial(("a", "b", "c")),
    )
    swapped = apply_symmetrizer(
        build_symmetrizer(tableau, conjugate=True),
        PositionWavefunction.monomial(("a", "b", "c")),
    )
    assert plain.as_dict() != swapped.as_dict()
    # role swap on repeated labels: columns {1,3} antisymmetrize normally,
    # so a repeat across the column kills the plain operator only
    repeated = PositionWavefunction.monomial(("a", "b", "a"))
    assert apply_symmetrizer(
        build_symmetrizer(tableau, conjugate=False), repeated
    ).is_zero()
    assert not apply_symmetrizer(
        build_symmetrizer(tableau, conjugate=True), repeated
    ).is_zero()


def test_symmetrizer_term_count() -> None:
    sym = build_symmetrizer(((1, 2), (3, 4)))
    assert len(sym) == 16
    assert all(isinstance(p, Permutation) and sign in (1, -1) for p, sign in sym)
