"""The grid checks against their allocating formulas.

local_maxima compares in-grid slices tile by tile, and antibunching_check
and conditional_density work in place in the kernel's array, instead of
building full-grid temporaries.  The formulas they replaced are kept here
as oracles and compared bit for bit on awkward grids (plateaus, NaN, +-inf,
+-0.0, maxima on the edges, odd shapes), in one tile and in many; a
tracemalloc test pins each check's own peak allocation in units of one
float64 grid.
"""
import tracemalloc

import numpy as np
import pytest

from fewbody import density_maps, grid_tiles, orbitals
from fewbody.density_maps import (
    DENSITY_FLOOR,
    DensityGrid,
    GridSpec,
    antibunching_check,
    conditional_density,
    local_maxima,
)

SHAPES = [(97, 61), (257, 260)]
#: 7 rows of 61 columns per tile; 257 x 260 (more than TILE_CELLS) also tiles by default
TILES = {"small": 7 * 61 + 3, "default": grid_tiles.TILE_CELLS}


@pytest.fixture(params=list(TILES))
def tiles(request, monkeypatch) -> str:
    monkeypatch.setattr(grid_tiles, "TILE_CELLS", TILES[request.param])
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 3)
    density_maps._grid_values.cache_clear()
    return request.param


def _spec(shape) -> GridSpec:
    return GridSpec(x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=shape)


def _unchecked(spec: GridSpec, values: np.ndarray) -> DensityGrid:
    """A DensityGrid without the constructor's checks, which reject -inf."""
    grid = object.__new__(DensityGrid)
    object.__setattr__(grid, "spec", spec)
    object.__setattr__(grid, "values", values)
    return grid


def _awkward(rng, shape, specials=(np.nan, np.inf, -np.inf, 0.0, -0.0)) -> np.ndarray:
    """Values on eight levels (plateaus everywhere), a sprinkling of special
    values, and the top level on every edge."""
    values = rng.integers(0, 8, shape) / 8.0
    flat = values.reshape(-1)
    picked = rng.choice(flat.size, flat.size // 40, replace=False)
    flat[picked] = rng.choice(np.array(specials), picked.size)
    nx, ny = shape
    values[0, 0] = values[-1, ny // 3] = values[nx // 2, -1] = values[nx - 1, ny - 1] = 2.0
    values[nx // 3, 0] = values[nx // 3, 1] = 2.0  # an edge plateau
    return values


def _handed_over(array: np.ndarray):
    """A kernel whose one call returns array as the caller's own."""
    return lambda *points: array


def _bits(value) -> tuple:
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


# -- the replaced formulas ---------------------------------------------


def _padded_local_maxima(grid: DensityGrid) -> list:
    """local_maxima as a -inf-padded copy of the grid scanned by np.argwhere."""
    v = grid.values
    nx, ny = v.shape
    padded = np.full((nx + 2, ny + 2), -np.inf)
    padded[1:-1, 1:-1] = v
    flat = np.ones_like(v, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                flat &= v >= padded[1 + di : nx + 1 + di, 1 + dj : ny + 1 + dj]
    xs, ys = grid.spec.axes()
    seen = np.zeros_like(flat)
    results = []
    for i0, j0 in np.argwhere(flat):
        if seen[i0, j0]:
            continue
        stack = [(int(i0), int(j0))]
        cluster = []
        rim = -np.inf
        seen[i0, j0] = True
        while stack:
            i, j = stack.pop()
            cluster.append((i, j))
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ii, jj = i + di, j + dj
                    if not (0 <= ii < nx and 0 <= jj < ny):
                        continue
                    if not flat[ii, jj]:
                        rim = max(rim, v[ii, jj])
                    elif not seen[ii, jj]:
                        seen[ii, jj] = True
                        stack.append((ii, jj))
        if rim >= v[i0, j0]:
            continue
        cx = float(np.mean([xs[i] for i, _ in cluster]))
        cy = float(np.mean([ys[j] for _, j in cluster]))
        results.append((cx, cy))
    return results


def _where_antibunching(coincidence, rho, spec: GridSpec) -> tuple:
    """antibunching_check's report from the np.where ratio, as a tuple of bits."""
    mask = rho > DENSITY_FLOOR
    ratios = np.where(mask, coincidence / np.where(mask, rho * rho, 1.0), -np.inf)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    max_ratio = float(ratios[i, j])
    xs, ys = spec.axes()
    return (
        bool(mask.any() and max_ratio < 1.0), max_ratio.hex(),
        float(xs[i]).hex(), float(ys[j]).hex(), int(mask.sum()),
    )


def _report_bits(report) -> tuple:
    x, y = report.location
    return (report.antibunched, report.max_ratio.hex(), x.hex(), y.hex(), report.points_checked)


def _hex(points) -> list:
    return [(x.hex(), y.hex()) for x, y in points]


# -- bit for bit --------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_local_maxima_match_the_padded_scan(shape, tiles) -> None:
    rng = np.random.default_rng(sum(shape))
    spec = _spec(shape)
    grids = [_awkward(rng, shape), _awkward(rng, shape, (0.0, -0.0)), np.full(shape, 0.5)]
    single = density_maps.single_density(4, orbitals.rectangle_mos(2.0, 2.0), spec).values
    grids += [single, np.maximum(single, np.quantile(single, 0.9))]  # a flat top
    for values in grids:
        grid = _unchecked(spec, values)
        expected = _padded_local_maxima(grid)
        assert _hex(local_maxima(grid)) == _hex(expected)
    assert expected  # the clipped single density keeps a maximum


@pytest.mark.parametrize("shape", SHAPES)
def test_antibunching_matches_the_where_ratio(shape, tiles) -> None:
    rng = np.random.default_rng(sum(shape) + 1)
    spec = _spec(shape)
    cases = []
    for _ in range(3):
        rho = _awkward(rng, shape) * rng.choice([1e-9, 1e-4, 1.0], shape)
        cases.append((_awkward(rng, shape), rho))
    # every qualifying ratio negative; no qualifying point at all
    cases += [(-_awkward(rng, shape), rho), (_awkward(rng, shape), np.full(shape, DENSITY_FLOOR))]
    mos = orbitals.triangle_mos(2.0, 2.5)
    single = density_maps.single_density(3, mos, spec)
    kernel = density_maps.pair_density(3, mos)
    cases.append((kernel(spec, spec), single.values))
    for coincidence, rho in cases:
        with np.errstate(all="ignore"):
            expected = _where_antibunching(coincidence, rho, spec)
            on_grid = antibunching_check(
                _handed_over(coincidence.copy()), lambda x, y, r=rho: r, spec
            )
        assert _report_bits(on_grid) == expected
    assert _report_bits(antibunching_check(kernel, single, spec)) == expected


@pytest.mark.parametrize("shape", SHAPES)
def test_conditional_density_matches_the_divided_slice(shape, tiles) -> None:
    rng = np.random.default_rng(sum(shape) + 2)
    spec = _spec(shape)
    # a density grid takes no -inf
    slices = [_awkward(rng, shape, (0.0, -0.0)), _awkward(rng, shape, (np.nan, np.inf, -0.0))]
    kernel = density_maps.pair_density(4, orbitals.rectangle_mos(2.0, 2.0))
    slices.append(kernel(spec, (0.37, 0.81)))
    for values in slices:
        with np.errstate(all="ignore"):
            expected = values / (float(values.sum()) * spec.cell_area)
            got = conditional_density(_handed_over(values.copy()), (0.0, 0.0), spec)
        assert _bits(got.values) == _bits(expected)
    assert _bits(conditional_density(kernel, (0.37, 0.81), spec).values) == _bits(expected)


# -- peak allocations ---------------------------------------------------

PEAK_SPEC = GridSpec(resolution=(512, 512))
GRID_BYTES = 512 * 512 * 8


def _peak_grids(fn) -> float:
    """fn's tracemalloc peak, in float64 grids of PEAK_SPEC."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / GRID_BYTES
    finally:
        tracemalloc.stop()


def test_each_check_allocates_no_full_grid_temporary(monkeypatch) -> None:
    """Each check's own peak beyond its inputs and the kernel's array: the
    padded copy of local_maxima (1 grid), the ratio temporaries of the
    antibunching check (2 grids) or the divided slice (1 grid) would show."""
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 1)  # tiles one at a time
    mos = orbitals.rectangle_mos(2.0, 2.0)
    single = density_maps.single_density(4, mos, PEAK_SPEC)
    kernel = density_maps.pair_density(4, mos)
    # the boolean dominance grid and its visited copy, 1/8 grid each, and a tile's masks
    assert _peak_grids(lambda: local_maxima(single)) <= 0.5
    # the mask (1/8 grid) and rho * rho (1 grid)
    coincidence = _handed_over(kernel(PEAK_SPEC, PEAK_SPEC))
    assert _peak_grids(lambda: antibunching_check(coincidence, single, PEAK_SPEC)) <= 1.25
    conditional = _handed_over(kernel(PEAK_SPEC, (-1.0, 1.0)))
    assert _peak_grids(lambda: conditional_density(conditional, (-1.0, 1.0), PEAK_SPEC)) <= 0.05
