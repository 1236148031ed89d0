"""PairDensityKernel against the evaluator path it replaced, bit for bit.

PairDensityKernel turns each point into orbital values (one
evaluate_orbitals call per (x, y) point, the _grid_values cache per
GridSpec), and evaluate_density only sums over them.  Before that,
evaluate_density took one evaluator per label and resolved each
coordinate's labels itself: an (x, y) point by one MolecularOrbital.evaluate
call per label, a mapping of labels to values as given, which is what the
kernel made of a GridSpec.  That path is kept here, as it was, for an
oracle: every value of the new path equals it in dtype, shape and bytes
(a float by float.hex).
"""
import cmath
from collections.abc import Mapping

import numpy as np
import pytest

from fewbody import density_maps, grid_tiles
from fewbody.cli import BALANCE_DRAWS
from fewbody.density_maps import GridSpec, PairDensityKernel, pair_density
from fewbody.grid_tiles import tile_rows, tiled
from fewbody.orbitals import (
    MolecularOrbital,
    degenerate_superpositions,
    rectangle_mos,
    triangle_mos,
)
from fewbody.wavefunction_algebra import ReducedDensity, assemble_state, spin_trace

GEOMETRIES = {"triangle": (3, triangle_mos(2.0, 2.5)), "square": (4, rectangle_mos(2.0, 2.0))}
SPEC = GridSpec(x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=(33, 29))
RAGGED = GridSpec(x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=(97, 61))
R0 = (0.37, -0.81)


def _evaluator_density(density, orbital_evaluator, points):
    """evaluate_density on the evaluator path: points holds one (x, y) pair or
    one label -> values mapping per kept coordinate."""
    if len(points) != len(density.kept):
        raise ValueError("one point per kept coordinate required")
    if not density.terms:
        return 0.0
    labels: list[dict[str, None]] = [{} for _ in points]  # each coordinate's, in first use
    for (ket, bra), _ in density.terms:
        for used, *pair in zip(labels, ket, bra):
            used.update(dict.fromkeys(pair))
    phi = [
        {label: point[label] for label in used}
        if isinstance(point, Mapping)
        else {label: orbital_evaluator[label](*point) for label in used}
        for point, used in zip(points, labels)
    ]
    if any(np.iscomplexobj(v) for values in phi for v in values.values()):
        raise ValueError("a density takes real orbital values, not complex ones")
    coefs = [complex(coef).real for _, coef in density.terms]

    def term_sum(i0, i1):
        rows = [{label: tile_rows(v, i0, i1) for label, v in values.items()} for values in phi]
        total = None
        for ((ket, bra), _), coef in zip(density.terms, coefs):
            factors = [row[label] for row, k, b in zip(rows, ket, bra) for label in (k, b)]
            value = coef * factors[0]
            for factor in factors[1:]:
                value *= factor
            if total is None:
                total = value
            else:
                total += value
        return total

    shape = np.broadcast_shapes(*(np.shape(v) for values in phi for v in values.values()))
    total = tiled(term_sum, shape if len(shape) == 2 else ())
    return total if np.ndim(total) else float(total)


def _evaluator_call(kernel: PairDensityKernel, *points):
    """PairDensityKernel's call on the evaluator path: a GridSpec becomes the
    mapping of the kernel's labels to their cached grid values."""
    evaluator = {label: mo.evaluate for label, mo in kernel.mos.items()}
    labels = sorted({label for (ket, bra), _ in kernel.density.terms for label in ket + bra})
    mos = tuple(kernel.mos[label] for label in labels)
    points = [
        dict(zip(labels, density_maps._grid_values(mos, r))) if isinstance(r, GridSpec) else r
        for r in points
    ]
    return _evaluator_density(kernel.density, evaluator, points)


def _bits(value):
    if isinstance(value, float):
        return "float", value.hex()
    return value.dtype.str, value.shape, value.tobytes()


def _assert_same(kernel: PairDensityKernel, *points) -> None:
    got = kernel(*points)
    assert _bits(got) == _bits(_evaluator_call(kernel, *points))


def _balance_kernel(n, mos, phase=0.39) -> PairDensityKernel:
    c1 = cmath.rect(1.0, phase)
    psi1 = assemble_state(n, "low", "boson")
    psi2 = assemble_state(n, "high", "boson")
    return PairDensityKernel(spin_trace(c1, psi1, c1.conjugate(), psi2), mos)


@pytest.fixture(params=list(GEOMETRIES))
def geometry(request):
    return GEOMETRIES[request.param]


def test_grid_points_read_through_the_cache(geometry) -> None:
    n, mos = geometry
    density_maps._grid_values.cache_clear()
    kernel = pair_density(n, mos)
    for points in ((SPEC, SPEC), (SPEC, R0), (R0, SPEC), (SPEC, SPEC.meshgrid())):
        _assert_same(kernel, *points)


def test_the_balance_checks_stacked_points(geometry) -> None:
    n, mos = geometry
    draws = list(zip(BALANCE_DRAWS[::2], BALANCE_DRAWS[1::2]))
    configurations = [draws[k * n : (k + 1) * n] for k in range(6)]
    # each particle's coordinates over every configuration, as balance_residual stacks them
    points = [np.array(coords, dtype=float).T for coords in zip(*configurations, strict=True)]
    for phase in (0.39, 1.1, 1e-8):
        _assert_same(_balance_kernel(n, mos, phase), *points)


def test_scalar_points_give_a_python_float(geometry) -> None:
    n, mos = geometry
    kernel = pair_density(n, mos)
    assert type(kernel(R0, (1.0, 0.5))) is float
    _assert_same(kernel, R0, (1.0, 0.5))
    _assert_same(kernel, R0, R0)
    _assert_same(_balance_kernel(n, mos), *[(0.1 * k, 0.5 - 0.3 * k) for k in range(n)])


def test_one_point_object_passed_twice(geometry) -> None:
    n, mos = geometry
    kernel = pair_density(n, mos)
    for mesh in (SPEC.meshgrid(), SPEC.open_mesh()):
        _assert_same(kernel, mesh, mesh)
        assert _bits(kernel(mesh, mesh)) == _bits(kernel(mesh, [np.copy(a) for a in mesh]))


def test_ragged_grid_in_small_tiles(geometry, monkeypatch) -> None:
    n, mos = geometry
    monkeypatch.setattr(grid_tiles, "TILE_CELLS", 7 * 61 + 3)
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 3)
    density_maps._grid_values.cache_clear()
    kernel = pair_density(n, mos)
    for points in ((RAGGED, RAGGED), (RAGGED, R0), (RAGGED.meshgrid(), R0)):
        _assert_same(kernel, *points)


def test_a_complex_orbital_raises() -> None:
    mos = rectangle_mos(2.0, 2.0)
    circulating = degenerate_superpositions(mos["e"], mos["e'"])["e+ie'"]
    kernel = PairDensityKernel(pair_density(4, mos).density, {**mos, "e": circulating})
    for points in ((R0, (1.0, -1.0)), (SPEC, R0), (SPEC, SPEC)):
        with pytest.raises(ValueError, match="real orbital values"):
            kernel(*points)


def test_an_empty_kernel_is_zero_and_evaluates_no_orbital(monkeypatch) -> None:
    def unexpected(*args):
        raise AssertionError("an empty kernel evaluated an orbital")

    monkeypatch.setattr(density_maps, "evaluate_orbitals", unexpected)
    monkeypatch.setattr(density_maps, "_grid_values", unexpected)
    monkeypatch.setattr(MolecularOrbital, "evaluate", unexpected)
    kernel = PairDensityKernel(ReducedDensity.from_dict((1, 2), {}), rectangle_mos(2.0, 2.0))
    for points in ((R0, (1.0, -1.0)), (SPEC, SPEC), (SPEC.meshgrid(), R0)):
        value = kernel(*points)
        assert type(value) is float and value == 0.0
    with pytest.raises(ValueError, match="one point per kept coordinate"):
        kernel(R0)


def test_a_wrong_point_count_raises(geometry) -> None:
    n, mos = geometry
    pair = pair_density(n, mos)
    for points in ((R0,), (R0, R0, R0), (SPEC,), ()):
        with pytest.raises(ValueError, match="one point per kept coordinate"):
            pair(*points)
    with pytest.raises(ValueError, match="one point per kept coordinate"):
        _balance_kernel(n, mos)(*[R0] * (n - 1))
