"""Gaussian site orbitals and symmetry-adapted combinations."""
import math
import warnings

import numpy as np
import pytest

from fewbody.density_maps import GridSpec
from fewbody.orbitals import (
    Geometry,
    MolecularOrbital,
    SiteOrbital,
    degenerate_superpositions,
    evaluate_orbitals,
    mo_gram,
    overlap,
    rectangle_mos,
    triangle_mos,
)


def quadrature_overlap(a: SiteOrbital, b: SiteOrbital, extent: float = 12.0) -> float:
    xs = np.arange(-extent, extent, 0.05)
    ys = xs
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    values = a.evaluate(gx, gy) * b.evaluate(gx, gy)
    return float(values.sum()) * 0.05 * 0.05


@pytest.mark.parametrize("d", [0.0, 0.5, 1.0, 2.0, 3.5, 6.0])
def test_overlap_matches_quadrature(d: float) -> None:
    a = SiteOrbital((-d / 2, 0.0))
    b = SiteOrbital((d / 2, 0.0))
    closed = overlap(a, b)
    assert closed == pytest.approx(math.exp(-d * d / 4), abs=1e-15)
    assert closed == pytest.approx(quadrature_overlap(a, b), abs=1e-10)


def test_overlap_depends_only_on_distance() -> None:
    a = SiteOrbital((0.3, -1.2))
    b = SiteOrbital((1.3, 0.8))
    d2 = (1.3 - 0.3) ** 2 + (0.8 + 1.2) ** 2
    assert overlap(a, b) == pytest.approx(math.exp(-d2 / 4), abs=1e-15)


def test_overlap_rejects_mixed_widths() -> None:
    with pytest.raises(ValueError):
        overlap(SiteOrbital((0, 0), 1.0), SiteOrbital((1, 0), 2.0))


def test_site_orbital_normalization_and_gradient() -> None:
    site = SiteOrbital((0.5, -0.25), width=1.0)
    assert quadrature_overlap(site, site) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.uniform(-2.5, 2.5, 2)
        gx, gy = site.value_and_gradient(x, y)[1:]
        eps = 1e-6
        fx = (site.evaluate(x + eps, y) - site.evaluate(x - eps, y)) / (2 * eps)
        fy = (site.evaluate(x, y + eps) - site.evaluate(x, y - eps)) / (2 * eps)
        assert gx == pytest.approx(fx, abs=1e-8)
        assert gy == pytest.approx(fy, abs=1e-8)


def test_triangle_geometry_sites() -> None:
    geo = Geometry.triangle(2.0, 2.5)
    assert geo.site("A").center == (0.0, 2.5)
    assert geo.site("B").center == (-1.0, 0.0)
    assert geo.site("C").center == (1.0, 0.0)
    with pytest.raises(KeyError):
        geo.site("D")
    with pytest.raises(ValueError):
        Geometry.triangle(0.0, 1.0)


def test_rectangle_geometry_sites_run_clockwise_from_top_left() -> None:
    geo = Geometry.rectangle(2.0, 2.5)
    assert geo.site("A").center == (-1.0, 1.25)
    assert geo.site("B").center == (1.0, 1.25)
    assert geo.site("C").center == (1.0, -1.25)
    assert geo.site("D").center == (-1.0, -1.25)


def test_rectangle_overlaps_pair_up_by_edge() -> None:
    s = Geometry.rectangle(2.0, 2.5).overlap_matrix()
    assert s[0, 1] == pytest.approx(s[3, 2], abs=1e-15)  # horizontal edges
    assert s[0, 3] == pytest.approx(s[1, 2], abs=1e-15)  # vertical edges
    assert s[0, 2] == pytest.approx(s[1, 3], abs=1e-15)  # diagonals
    assert s[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)


@pytest.mark.parametrize(
    "mos",
    [
        triangle_mos(2.0, 2.5),
        triangle_mos(1.2, 1.0),
        rectangle_mos(2.0, 2.5),
        rectangle_mos(2.0, 2.0),
        rectangle_mos(3.0, 1.1),
    ],
    ids=["tri-fig", "tri-tight", "rect-fig", "square", "rect-wide"],
)
def test_mo_sets_are_orthonormal(mos: dict) -> None:
    gram = mo_gram(mos)
    np.testing.assert_allclose(gram, np.eye(len(mos)), atol=1e-12)


def test_triangle_mo_parities() -> None:
    mos = triangle_mos(2.0, 2.5)
    pts = np.array([[0.3, 0.8], [1.1, 0.2], [0.7, 2.0]])
    for x, y in pts:
        assert mos["g"].evaluate(x, y) == pytest.approx(
            mos["g"].evaluate(-x, y), abs=1e-14
        )
        assert mos["e"].evaluate(x, y) == pytest.approx(
            mos["e"].evaluate(-x, y), abs=1e-14
        )
        assert mos["e'"].evaluate(x, y) == pytest.approx(
            -mos["e'"].evaluate(-x, y), abs=1e-14
        )


def test_rectangle_mo_parities() -> None:
    mos = rectangle_mos(2.0, 2.5)
    pts = np.array([[0.4, 0.9], [1.3, -0.5], [0.2, 1.8]])
    for x, y in pts:
        g = mos["g"]
        assert g.evaluate(x, y) == pytest.approx(g.evaluate(-x, y), abs=1e-14)
        assert g.evaluate(x, y) == pytest.approx(g.evaluate(x, -y), abs=1e-14)
        # first excited: node across x = 0, even along y
        e = mos["e"]
        assert e.evaluate(x, y) == pytest.approx(-e.evaluate(-x, y), abs=1e-14)
        assert e.evaluate(x, y) == pytest.approx(e.evaluate(x, -y), abs=1e-14)
        ep = mos["e'"]
        assert ep.evaluate(x, y) == pytest.approx(ep.evaluate(-x, y), abs=1e-14)
        assert ep.evaluate(x, y) == pytest.approx(-ep.evaluate(x, -y), abs=1e-14)
        epp = mos["e''"]
        assert epp.evaluate(x, y) == pytest.approx(-epp.evaluate(-x, y), abs=1e-14)
        assert epp.evaluate(x, y) == pytest.approx(-epp.evaluate(x, -y), abs=1e-14)


def test_separated_limit_coefficients() -> None:
    # with all overlaps underflowed to zero the closed forms degenerate
    mos = triangle_mos(40.0, 40.0)
    inv_rt3 = 1.0 / math.sqrt(3.0)
    assert mos["g"].coefficients == (inv_rt3, inv_rt3, inv_rt3)
    inv_rt2 = 1.0 / math.sqrt(2.0)
    assert mos["e'"].coefficients[0] == 0.0
    assert abs(mos["e'"].coefficients[1]) == inv_rt2
    # apex-to-base coefficient ratio equals the limiting mixing factor 2
    c = mos["e"].coefficients
    assert c[0] / c[1] == pytest.approx(-2.0, abs=1e-15)
    assert c[1] == c[2]


def test_mo_gradient_matches_finite_differences() -> None:
    """Real orbitals and the complex superpositions whose flux is drawn."""
    square = rectangle_mos(2.0, 2.0)
    mos = [
        *rectangle_mos(2.0, 2.5).values(),
        *degenerate_superpositions(square["e"], square["e'"]).values(),
    ]
    rng = np.random.default_rng(11)
    for mo in mos:
        for _ in range(25):
            x, y = rng.uniform(-3.0, 3.0, 2)
            gx, gy = mo.gradient(x, y)
            eps = 1e-6
            fx = (mo.evaluate(x + eps, y) - mo.evaluate(x - eps, y)) / (2 * eps)
            fy = (mo.evaluate(x, y + eps) - mo.evaluate(x, y - eps)) / (2 * eps)
            assert gx == pytest.approx(fx, abs=1e-8)
            assert gy == pytest.approx(fy, abs=1e-8)


def test_degenerate_superpositions_require_a_square() -> None:
    rect = rectangle_mos(2.0, 2.5)
    with pytest.raises(ValueError):
        degenerate_superpositions(rect["e"], rect["e'"])
    tri = triangle_mos(2.0, 2.0)
    with pytest.raises(ValueError):
        degenerate_superpositions(tri["e"], tri["e'"])


def test_degenerate_superpositions_structure() -> None:
    sq = rectangle_mos(2.0, 2.0)
    sups = degenerate_superpositions(sq["e"], sq["e'"])
    assert set(sups) == {"e+e'", "e-e'", "e+ie'", "e-ie'"}
    np.testing.assert_allclose(np.sqrt(np.diag(mo_gram(sups)).real), 1.0, rtol=0, atol=1e-12)
    plus = np.array(sups["e+ie'"].coefficients)
    minus = np.array(sups["e-ie'"].coefficients)
    np.testing.assert_allclose(minus, plus.conj(), atol=1e-15)
    assert not sups["e+ie'"].is_real()
    assert sups["e+e'"].is_real()
    assert sq["e"].is_real()


def test_complex_square_state_has_fourfold_symmetric_modulus() -> None:
    sq = rectangle_mos(2.0, 2.0)
    mo = degenerate_superpositions(sq["e"], sq["e'"])["e+ie'"]
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-2.5, 2.5, 2)
        rotated = abs(mo.evaluate(-y, x))
        assert abs(mo.evaluate(x, y)) == pytest.approx(rotated, abs=1e-13)


def test_square_side_boundary_of_the_orthonormality_check() -> None:
    # the closed-form set of the square keeps its Gram bound at side 0.06
    # and loses it to rounding at 0.05
    assert np.max(np.abs(mo_gram(rectangle_mos(0.06, 0.06)) - np.eye(4))) <= 1e-10
    with pytest.raises(ValueError, match="sites too close for an orthonormal orbital set"):
        rectangle_mos(0.05, 0.05)


def test_orbital_without_norm_is_reported_as_sites_too_close() -> None:
    # at side 1e-9 every overlap rounds to 1 and a pattern's norm^2 to <= 0;
    # only coefficients that are all zero have no norm for another reason
    with pytest.raises(ValueError, match="sites too close for an orthonormal orbital set"):
        rectangle_mos(1e-9, 1e-9)
    geometry = Geometry.rectangle(1e-9, 1e-9)
    with pytest.raises(ValueError, match="sites too close for an orthonormal orbital set"):
        MolecularOrbital.normalized("e", geometry, (1.0, -1.0, -1.0, 1.0))
    with pytest.raises(ValueError, match="coefficients have no norm under the overlap metric"):
        MolecularOrbital.normalized("0", Geometry.rectangle(2.0, 2.0), (0.0, 0.0, 0.0, 0.0))


def test_far_site_evaluates_to_zero_without_a_warning() -> None:
    site = SiteOrbital((1e300, -1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert site.evaluate(0.0, 0.0) == 0.0
        assert np.all(site.evaluate(np.zeros((3, 1)), np.zeros((1, 2))) == 0.0)


def test_figure_mo_sets_never_need_the_fallback() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triangle_mos(2.0, 2.5)
        rectangle_mos(2.0, 2.5)
        rectangle_mos(2.0, 2.0)


def _reference_site(site: SiteOrbital, x, y):
    cx, cy = site.center
    r2 = (np.asarray(x, dtype=float) - cx) ** 2 + (np.asarray(y, dtype=float) - cy) ** 2
    return np.exp(-r2 / (2.0 * site.width**2)) / (site.width * math.sqrt(math.pi))


def _reference_mo(mo: MolecularOrbital, x, y):
    """Complex accumulation, real part taken at the end when is_real()."""
    total = None
    for coeff, (_, site) in zip(mo.coefficients, mo.geometry.sites):
        term = complex(coeff) * _reference_site(site, x, y)
        total = term if total is None else total + term
    return np.real(total) if mo.is_real() else total


def _reference_mo_gradient(mo: MolecularOrbital, x, y):
    """Complex accumulation of coeff * grad(site), real part taken at the end
    when is_real()."""
    gx_total = gy_total = None
    for coeff, (_, site) in zip(mo.coefficients, mo.geometry.sites):
        cx, cy = site.center
        phi = _reference_site(site, x, y)
        gx = -(np.asarray(x, dtype=float) - cx) / site.width**2 * phi
        gy = -(np.asarray(y, dtype=float) - cy) / site.width**2 * phi
        gx_total = coeff * gx if gx_total is None else gx_total + coeff * gx
        gy_total = coeff * gy if gy_total is None else gy_total + coeff * gy
    if mo.is_real():
        return np.real(gx_total), np.real(gy_total)
    return gx_total, gy_total


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.tobytes()


def test_site_evaluation_matches_the_closed_form_bit_for_bit() -> None:
    """On arrays and on scalars: for a scalar `** 2` is pow, not a product,
    and the two round differently at about one point in a thousand."""
    site = SiteOrbital((-1.0, 1.25), 1.3)
    x, y = np.random.default_rng(7).uniform(-8.0, 8.0, (2, 20000))
    assert _bits(site.evaluate(x, y)) == _bits(_reference_site(site, x, y))
    for a, b in zip(x.tolist(), y.tolist()):
        assert _bits(site.evaluate(a, b)) == _bits(_reference_site(site, a, b))


def test_mo_evaluation_matches_complex_accumulation_bit_for_bit() -> None:
    square = rectangle_mos(2.0, 2.0)
    sets = [triangle_mos(2.0, 2.5), square, degenerate_superpositions(square["e"], square["e'"])]
    # an odd grid puts the symmetry axes, where odd orbitals vanish, on grid points
    x, y = GridSpec(resolution=(17, 17)).meshgrid()
    for mos in sets:
        for mo in mos.values():
            assert _bits(mo.evaluate(x, y)) == _bits(_reference_mo(mo, x, y))
            for a, b in ((0.0, 0.0), (1.0, -1.0), (0.3, 2.5)):
                assert _bits(mo.evaluate(a, b)) == _bits(_reference_mo(mo, a, b))


def _figure_mo_sets():
    square = rectangle_mos(2.0, 2.0)
    return [triangle_mos(2.0, 2.5), square, degenerate_superpositions(square["e"], square["e'"])]


# non-square, with asymmetric ranges: an x/y swap of the open mesh shows
ASYMMETRIC = GridSpec(x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=(64, 48))


def test_open_mesh_matches_the_full_meshgrid_bit_for_bit() -> None:
    open_x, open_y = ASYMMETRIC.open_mesh()
    assert open_x.shape == (64, 1) and open_y.shape == (1, 48)
    x, y = ASYMMETRIC.meshgrid()
    for mos in _figure_mo_sets():
        for _, site in next(iter(mos.values())).geometry.sites:
            assert _bits(site.evaluate(open_x, open_y)) == _bits(site.evaluate(x, y))
            on_open = site.value_and_gradient(open_x, open_y)[1:]
            on_full = site.value_and_gradient(x, y)[1:]
            for open_part, full_part in zip(on_open, on_full):
                assert _bits(open_part) == _bits(full_part)
        for mo in mos.values():
            phi = mo.evaluate(x, y)
            assert _bits(mo.evaluate(open_x, open_y)) == _bits(phi)
            on_open, on_full = mo.gradient(open_x, open_y), mo.gradient(x, y)
            reference = _reference_mo_gradient(mo, x, y)
            for open_part, full_part, ref_part in zip(on_open, on_full, reference):
                assert _bits(open_part) == _bits(full_part) == _bits(ref_part)
            # the flux's one pass gives evaluate's values
            assert _bits(mo.value_and_gradient(open_x, open_y)[0]) == _bits(phi)


def test_orbitals_sharing_site_values_match_their_own_evaluation() -> None:
    """evaluate_orbitals folds one site array into every orbital of the set:
    a fold that wrote into that shared array would corrupt the next one."""
    x, y = ASYMMETRIC.open_mesh()
    for mos in _figure_mo_sets():
        own = {label: _bits(mo.evaluate(x, y)) for label, mo in mos.items()}
        for labels in (list(mos), list(reversed(mos))):
            values = evaluate_orbitals([mos[label] for label in labels], x, y)
            assert {label: _bits(v) for label, v in zip(labels, values)} == own


def test_orbitals_evaluated_together_share_one_geometry() -> None:
    with pytest.raises(ValueError):
        evaluate_orbitals([triangle_mos(2.0, 2.5)["g"], rectangle_mos(2.0, 2.0)["g"]], 0.0, 0.0)
