"""Grid densities, conditional maps, antibunching, probability flux."""
import math
from fractions import Fraction

import numpy as np
import pytest

from fewbody.density_maps import (
    AntibunchingReport,
    DensityGrid,
    GridSpec,
    PairDensityKernel,
    antibunching_check,
    balance_residual,
    conditional_density,
    discrete_divergence,
    ground_pair_kernel,
    local_maxima,
    pair_density,
    probability_flux,
    single_density,
)
from fewbody.exact import rational
from fewbody.orbitals import (
    degenerate_superpositions,
    evaluate_orbitals,
    rectangle_mos,
    triangle_mos,
)
from fewbody.wavefunction_algebra import (
    ReducedDensity,
    assemble_state,
    evaluate_density,
    marginalize,
    spin_trace_pair,
)

COARSE = GridSpec(resolution=(96, 96))


def test_grid_spec_validation() -> None:
    with pytest.raises(ValueError):
        GridSpec(resolution=(4, 64))
    with pytest.raises(ValueError):
        GridSpec(x_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec(y_range=(2.0, -2.0))
    for bad in ((math.nan, 6.0), (-math.inf, 6.0), (-6.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(x_range=bad)
        with pytest.raises(ValueError, match="finite"):
            GridSpec(y_range=bad)
    # the width overflows, the area overflows, the area underflows to 0
    for xr, yr in (((-1e308, 1e308), (-6.0, 6.0)), ((-8e307, 8e307),) * 2, ((0.0, 1e-200),) * 2):
        with pytest.raises(ValueError, match="cell area"):
            GridSpec(xr, yr)


def test_grid_axes_use_cell_midpoints() -> None:
    spec = GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 2.0), resolution=(10, 20))
    xs, ys = spec.axes()
    assert xs[0] == pytest.approx(0.05)
    assert xs[-1] == pytest.approx(0.95)
    assert ys[0] == pytest.approx(0.05)
    assert spec.cell_area == pytest.approx(0.01)
    ones = DensityGrid(spec, np.ones(spec.resolution))
    assert ones.integral() == pytest.approx(2.0, abs=1e-12)


def test_density_grid_rejects_negative_values() -> None:
    spec = GridSpec(resolution=(8, 8))
    values = np.zeros((8, 8))
    values[3, 3] = -1e-6
    with pytest.raises(ValueError):
        DensityGrid(spec, values)
    with pytest.raises(ValueError):
        DensityGrid(spec, np.zeros((8, 9)))


@pytest.mark.parametrize(
    "n,mos", [(3, triangle_mos(2.0, 2.5)), (4, rectangle_mos(2.0, 2.5))]
)
def test_single_density_integrates_to_one(n: int, mos: dict) -> None:
    grid = single_density(n, mos)
    assert grid.integral() == pytest.approx(1.0, abs=1e-6)
    assert np.all(grid.values >= 0.0)


def test_single_density_rejects_other_counts() -> None:
    with pytest.raises(ValueError):
        single_density(5, triangle_mos(2.0, 2.5))


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize(
    "n,weights", [(3, (Fraction(2, 3), Fraction(1, 3))), (4, (Fraction(1, 2), Fraction(1, 2)))]
)
def test_one_coordinate_marginal_has_the_occupancy_weights(n, weights, statistics) -> None:
    # the doubly occupied orbital g carries 2 of 3 particles, or 2 of 4
    marginal = marginalize(ground_pair_kernel(n, statistics), (1,))
    wg, we = map(rational, weights)
    assert marginal.as_dict() == {(("e",), ("e",)): we, (("g",), ("g",)): wg}


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("n", [3, 4])
def test_ground_pair_kernel_is_traced_once(n, statistics) -> None:
    assert ground_pair_kernel(n, statistics) is ground_pair_kernel(n, statistics)


@pytest.mark.parametrize(
    "n,mos,weights",
    [(3, triangle_mos(2.0, 2.5), (2 / 3, 1 / 3)), (4, rectangle_mos(2.0, 2.0), (0.5, 0.5))],
)
def test_single_density_is_the_closed_form_bit_for_bit(n, mos, weights) -> None:
    # 300 x 257 cells span two row tiles of grid_tiles.TILE_CELLS
    spec = GridSpec(x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=(300, 257))
    wg, we = weights
    g, e = evaluate_orbitals((mos["g"], mos["e"]), *spec.open_mesh())
    closed_form = wg * g * g + we * e * e
    assert single_density(n, mos, spec).values.tobytes() == closed_form.tobytes()


@pytest.mark.parametrize(
    "n,mos,weights",
    [
        (3, triangle_mos(2.0, 2.5), (2 / 3, 1 / 3)),
        (4, rectangle_mos(2.0, 2.5), (0.5, 0.5)),
    ],
)
def test_single_density_matches_kernel_marginal(n, mos, weights) -> None:
    """Occupancy-weighted formula against the one-coordinate kernel trace."""
    from fewbody.wavefunction_algebra import (
        assemble_state,
        marginalize,
        spin_trace_pair,
    )

    state = assemble_state(n, "low", "fermion")
    kernel = marginalize(spin_trace_pair(state, state), (1,))
    evaluator = {label: mo.evaluate for label, mo in mos.items()}
    xs, ys = COARSE.meshgrid()
    from_kernel = evaluate_density(kernel, evaluator, [(xs, ys)])
    direct = single_density(n, mos, COARSE).values
    np.testing.assert_allclose(direct, from_kernel, atol=1e-12)


@pytest.mark.parametrize(
    "n,mos", [(3, triangle_mos(2.0, 2.5)), (4, rectangle_mos(2.0, 2.5))]
)
def test_pair_kernel_routes_and_statistics_agree(n, mos) -> None:
    rng = np.random.default_rng(0)
    pts = rng.uniform(-4.0, 4.0, size=(500, 4))
    r1 = (pts[:, 0], pts[:, 1])
    r2 = (pts[:, 2], pts[:, 3])
    fermion = pair_density(n, mos, "fermion")(r1, r2)
    boson = pair_density(n, mos, "boson")(r1, r2)
    np.testing.assert_allclose(fermion, boson, atol=1e-12)
    state = assemble_state(n, "high", "fermion")
    high = marginalize(spin_trace_pair(state, state), (1, 2))
    evaluator = {label: mo.evaluate for label, mo in mos.items()}
    dual = evaluate_density(high, evaluator, [r1, r2])
    np.testing.assert_allclose(fermion, dual, atol=1e-12)


def test_pair_kernel_exchange_symmetric() -> None:
    mos = triangle_mos(2.0, 2.5)
    kernel = pair_density(3, mos)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3.0, 3.0, size=(200, 4))
    forward = kernel((pts[:, 0], pts[:, 1]), (pts[:, 2], pts[:, 3]))
    backward = kernel((pts[:, 2], pts[:, 3]), (pts[:, 0], pts[:, 1]))
    np.testing.assert_allclose(forward, backward, atol=1e-14)


def test_three_particle_coincidence_line() -> None:
    # rho2(r, r) = (phi_g^4 + phi_g^2 phi_e^2) / 3
    mos = triangle_mos(2.0, 2.5)
    kernel = pair_density(3, mos)
    xs, ys = COARSE.meshgrid()
    diag = kernel((xs, ys), (xs, ys))
    g = mos["g"].evaluate(xs, ys)
    e = mos["e"].evaluate(xs, ys)
    printed = (g**4 + g * g * e * e) / 3.0
    np.testing.assert_allclose(diag, printed, atol=1e-12)


def test_four_particle_coincidence_line() -> None:
    # rho2(r, r) = (phi_g^4 / 2 + phi_e^4 / 2 + phi_g^2 phi_e^2) / 3
    mos = rectangle_mos(2.0, 2.5)
    kernel = pair_density(4, mos)
    xs, ys = COARSE.meshgrid()
    diag = kernel((xs, ys), (xs, ys))
    g = mos["g"].evaluate(xs, ys)
    e = mos["e"].evaluate(xs, ys)
    printed = (0.5 * g**4 + 0.5 * e**4 + g * g * e * e) / 3.0
    np.testing.assert_allclose(diag, printed, atol=1e-12)


def _hund_marginal(n: int, mos: dict):
    wg, we = (2 / 3, 1 / 3) if n == 3 else (0.5, 0.5)

    def marginal(x, y):
        g = mos["g"].evaluate(x, y)
        e = mos["e"].evaluate(x, y)
        return wg * g * g + we * e * e

    return marginal


@pytest.mark.parametrize(
    "n,mos,ratio",
    [
        (3, triangle_mos(2.0, 2.5), 0.75),
        (4, rectangle_mos(2.0, 2.5), 2.0 / 3.0),
    ],
)
def test_ground_states_are_antibunched(n, mos, ratio) -> None:
    report = antibunching_check(pair_density(n, mos), _hund_marginal(n, mos), COARSE)
    assert isinstance(report, AntibunchingReport)
    assert report.antibunched
    assert report.max_ratio == pytest.approx(ratio, rel=1e-9)
    assert report.points_checked > 1000


def test_uncorrelated_benchmark_is_not_antibunched() -> None:
    mos = triangle_mos(2.0, 2.5)
    single = marginalize(ground_pair_kernel(3, "fermion"), (1,)).terms
    product = ReducedDensity.from_dict(
        (1, 2),
        {(k1 + k2, b1 + b2): c1 * c2 for (k1, b1), c1 in single for (k2, b2), c2 in single},
    )
    report = antibunching_check(PairDensityKernel(product, mos), _hund_marginal(3, mos), COARSE)
    assert not report.antibunched
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_no_qualifying_point_is_not_antibunched() -> None:
    # the grid lies far from every site: no marginal value passes the floor
    mos = triangle_mos(2.0, 2.5)
    far = GridSpec((1000.0, 1010.0), (1000.0, 1010.0), (8, 8))
    report = antibunching_check(pair_density(3, mos), _hund_marginal(3, mos), far)
    assert report.points_checked == 0
    assert not report.antibunched


def test_balance_residual_takes_a_huge_c1_at_unit_modulus() -> None:
    # the check does not depend on the scale of C1, whose square overflows
    mos = triangle_mos(2.0, 2.5)
    points = [[(0.1, 0.2), (0.3, -0.4), (1.0, 0.5)]]
    for c1 in (1e200 * complex(0.9, 0.4), complex(1.7e308, -1.7e308)):
        residual = balance_residual(3, mos, c1, points)
        assert math.isfinite(residual) and residual <= 1e-10
    for c1 in (complex(math.inf, 0.0), complex(0.5, math.nan)):
        with pytest.raises(ValueError, match="C1 must be finite"):
            balance_residual(3, mos, c1, points)


def test_conditional_density_normalizes_on_the_grid() -> None:
    mos = triangle_mos(2.0, 2.5)
    kernel = pair_density(3, mos)
    cond = conditional_density(kernel, (0.0, 2.5), COARSE)
    assert cond.integral() == pytest.approx(1.0, abs=1e-10)


def test_conditional_density_rejects_remote_conditioning_points() -> None:
    mos = triangle_mos(2.0, 2.5)
    kernel = pair_density(3, mos)
    with pytest.raises(ValueError):
        conditional_density(kernel, (60.0, 60.0), COARSE)


def test_flux_of_real_mos_vanishes_identically() -> None:
    mos = rectangle_mos(2.0, 2.0)
    for label in ("g", "e", "e'", "e''"):
        flux = probability_flux(mos[label], COARSE)
        assert np.all(flux.values == 0.0)


def test_complex_pair_fluxes_are_pointwise_opposite() -> None:
    sups = degenerate_superpositions(*(rectangle_mos(2.0, 2.0)[k] for k in ("e", "e'")))
    plus = probability_flux(sups["e+ie'"], COARSE)
    minus = probability_flux(sups["e-ie'"], COARSE)
    assert float(np.max(np.abs(plus.values))) > 1e-3
    np.testing.assert_allclose(plus.values, -minus.values, atol=1e-15)


def test_flux_circulates_around_the_plaquette_center() -> None:
    sups = degenerate_superpositions(*(rectangle_mos(2.0, 2.0)[k] for k in ("e", "e'")))
    flux = probability_flux(sups["e+ie'"], COARSE)
    xs, ys = COARSE.meshgrid()
    jx, jy = flux.values[..., 0], flux.values[..., 1]
    angular = xs * jy - ys * jx
    weight = np.hypot(jx, jy)
    mask = weight > 1e-4 * weight.max()
    # a single chirality everywhere the current is appreciable
    assert abs(float(np.sign(angular[mask]).mean())) == pytest.approx(1.0, abs=1e-12)


def test_divergence_of_linear_solenoidal_field_is_exact() -> None:
    spec = GridSpec(x_range=(-2, 2), y_range=(-2, 2), resolution=(32, 32))
    xs, ys = spec.meshgrid()
    values = np.stack([-ys, xs], axis=-1)
    flux = DensityGrid(spec, values)
    div = discrete_divergence(flux)
    assert np.max(np.abs(div)) == pytest.approx(0.0, abs=1e-14)


def test_divergence_of_lcao_flux_plateaus_off_zero() -> None:
    # the complex combination is not an exact stationary state, so its
    # current keeps a finite source term under refinement
    sups = degenerate_superpositions(*(rectangle_mos(2.0, 2.0)[k] for k in ("e", "e'")))
    values = []
    for res in (96, 192, 384):
        spec = GridSpec(resolution=(res, res))
        div = discrete_divergence(probability_flux(sups["e+ie'"], spec))
        values.append(float(np.max(np.abs(div))))
    assert values[-1] == pytest.approx(2.757e-2, rel=5e-3)
    assert values[-1] > 1e-2
    # refinement moves the level by a few percent, never toward zero
    assert max(values) - min(values) < 0.05 * values[-1]


def test_local_maxima_on_synthetic_bumps() -> None:
    spec = GridSpec(x_range=(-4, 4), y_range=(-4, 4), resolution=(128, 128))
    xs, ys = spec.meshgrid()
    bumps = np.exp(-((xs - 1.5) ** 2 + ys**2)) + 0.5 * np.exp(
        -((xs + 1.5) ** 2 + (ys - 1.0) ** 2)
    )
    peaks = local_maxima(DensityGrid(spec, bumps))
    assert len(peaks) == 2
    located = sorted((round(x, 1), round(y, 1)) for x, y in peaks)
    assert located == [(-1.5, 1.0), (1.5, 0.0)]


def test_local_maxima_merge_plateau_cells() -> None:
    spec = GridSpec(x_range=(0, 1), y_range=(0, 1), resolution=(16, 16))
    values = np.zeros((16, 16))
    values[7, 7] = values[7, 8] = values[8, 7] = values[8, 8] = 1.0
    peaks = local_maxima(DensityGrid(spec, values))
    assert len(peaks) == 1
    assert peaks[0][0] == pytest.approx(0.5, abs=1e-12)
    assert peaks[0][1] == pytest.approx(0.5, abs=1e-12)


def test_interior_plateau_shoulder_is_not_a_peak() -> None:
    spec = GridSpec(x_range=(0, 1), y_range=(0, 1), resolution=(16, 16))
    values = np.zeros((16, 16))
    values[4:12, 4:12] = 1.0
    values[6, 6] = 2.0
    peaks = local_maxima(DensityGrid(spec, values))
    assert len(peaks) == 1


def test_kernel_grid_values_are_read_only_and_results_are_fresh() -> None:
    mos = rectangle_mos(2.0, 2.0)
    kernel = pair_density(4, mos)
    spec = GridSpec(resolution=(33, 33))
    r0 = (-1.0, 1.0)
    first = conditional_density(kernel, r0, spec).values.copy()
    diagonal = kernel(spec, spec).copy()
    single = single_density(4, mos, spec).values.copy()

    cached = kernel._on_grid(spec)
    assert sorted(cached) == ["e", "g"]
    for values in cached.values():
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0
    # what the grid path returns belongs to the caller: writing into it
    # must not reach a later call
    conditional_density(kernel, r0, spec).values[...] = -1.0
    kernel(spec, spec)[...] = -1.0
    kernel(spec, r0)[...] = -1.0

    assert np.array_equal(conditional_density(kernel, r0, spec).values, first)
    assert np.array_equal(kernel(spec, spec), diagonal)
    assert np.array_equal(single_density(4, mos, spec).values, single)
    # the cached path agrees bit for bit with evaluating on the meshgrid
    x, y = spec.meshgrid()
    assert np.array_equal(kernel(spec, r0), kernel((x, y), r0))
    assert np.array_equal(kernel(spec, spec), kernel((x, y), (x, y)))


def test_grid_values_are_cached_per_kernel_and_per_grid() -> None:
    mos = triangle_mos(2.0, 2.5)
    kernel = pair_density(3, mos)
    other = pair_density(3, mos)
    spec = GridSpec(resolution=(17, 17))
    conditional_density(kernel, (0.0, 2.5), spec)
    assert kernel._on_grid(spec) is kernel._on_grid(spec)
    assert other._on_grid(spec) is not kernel._on_grid(spec)
    assert kernel._on_grid(COARSE) is not kernel._on_grid(spec)


def test_antibunching_accepts_the_single_density_as_marginal() -> None:
    mos = triangle_mos(2.0, 2.5)
    kernel = pair_density(3, mos)
    single = single_density(3, mos, COARSE)
    from_grid = antibunching_check(kernel, single, COARSE)
    assert from_grid == antibunching_check(kernel, _hund_marginal(3, mos), COARSE)
    with pytest.raises(ValueError):
        antibunching_check(kernel, single, GridSpec(resolution=(17, 17)))


def test_callable_marginal_is_evaluated_on_the_open_mesh() -> None:
    """A pointwise marginal gets the grid's open mesh and may return any
    shape that broadcasts to the grid, here a function of x alone."""
    mos = triangle_mos(2.0, 2.5)
    kernel = pair_density(3, mos)
    spec = GridSpec(x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=(64, 48))
    shapes = []

    def marginal(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return np.exp(-0.1 * x * x)

    report = antibunching_check(kernel, marginal, spec)
    assert shapes == [((64, 1), (1, 48))]
    x, _ = spec.meshgrid()
    sampled = DensityGrid(spec, np.exp(-0.1 * x * x))
    assert report == antibunching_check(kernel, sampled, spec)
