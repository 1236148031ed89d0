"""Row tiles of the grid layer: the bytes of every field do not depend on them.

Each test computes a field once on the whole grid (it fits in one tile) and
once with TILE_CELLS patched down, so that a ragged 97x61 grid splits into
uneven row tiles on three workers, and compares the two by `.tobytes()`:
a value, a dtype or the sign of a zero that moved would show.
"""
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import fewbody
from fewbody import density_maps, grid_tiles, orbitals
from fewbody.density_maps import GridSpec

RAGGED = GridSpec(x_range=(-5.3, 4.1), y_range=(-3.7, 6.2), resolution=(97, 61))
R0 = (0.37, 0.81)
#: 7 rows of 61 columns per tile: 13 tiles of 7 rows and one of 6
SMALL_TILE = 7 * 61 + 3


def _tiled(monkeypatch) -> list:
    """Patch in small tiles on three workers; record the tiles that run."""
    monkeypatch.setattr(grid_tiles, "TILE_CELLS", SMALL_TILE)
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 3)
    ran = []
    tiled = grid_tiles.tiled

    def recording(fn, shape, dtype=float):
        def tile(i0, i1):
            ran.append((i0, i1, threading.get_ident()))
            return fn(i0, i1)

        return tiled(tile, shape, dtype)

    for module in (orbitals, density_maps, fewbody.wavefunction_algebra):
        monkeypatch.setattr(module, "tiled", recording)
    return ran


def _bytes(values) -> tuple:
    if isinstance(values, list):
        return tuple(_bytes(v) for v in values)
    if isinstance(values, density_maps.DensityGrid):
        values = values.values
    values = np.asarray(values)
    return values.dtype.str, values.shape, values.tobytes()


def _compare(monkeypatch, compute) -> None:
    whole = _bytes(compute())
    ran = _tiled(monkeypatch)
    in_tiles = _bytes(compute())
    assert in_tiles == whole
    # nested calls on one tile run whole, as (0, None)
    rows = sorted({(i0, i1) for i0, i1, _ in ran if i1 is not None})
    assert rows[0] == (0, 7) and rows[-1] == (91, 97)
    assert len({ident for *_, ident in ran}) >= 2


def _square():
    mos = orbitals.rectangle_mos(2.0, 2.0)
    return mos, orbitals.degenerate_superpositions(mos["e"], mos["e'"])


def test_orbitals_do_not_depend_on_the_tiling(monkeypatch) -> None:
    mos, combos = _square()
    chosen = (mos["g"], mos["e'"], combos["e+ie'"], combos["e-e'"])
    assert [mo.is_real() for mo in chosen] == [True, True, False, True]
    _compare(monkeypatch, lambda: orbitals.evaluate_orbitals(chosen, *RAGGED.open_mesh()))


def test_orbitals_on_a_full_mesh_do_not_depend_on_the_tiling(monkeypatch) -> None:
    tri = list(orbitals.triangle_mos(2.0, 2.5).values())
    _compare(monkeypatch, lambda: orbitals.evaluate_orbitals(tri, *RAGGED.meshgrid()))


@pytest.mark.parametrize("n", [3, 4])
def test_single_density_does_not_depend_on_the_tiling(n: int, monkeypatch) -> None:
    mos = orbitals.triangle_mos(2.0, 2.5) if n == 3 else _square()[0]
    _compare(monkeypatch, lambda: density_maps.single_density(n, mos, RAGGED))


@pytest.mark.parametrize("where", ["grid", "conditional", "diagonal", "meshgrid"])
def test_pair_density_does_not_depend_on_the_tiling(where: str, monkeypatch) -> None:
    mos = _square()[0]

    def compute():
        kernel = density_maps.pair_density(4, mos)  # a new kernel: no cached grid
        if where == "grid":
            return list(kernel._on_grid(RAGGED).values())
        if where == "conditional":
            return kernel(RAGGED, R0)
        if where == "diagonal":
            return kernel(RAGGED, RAGGED)
        return kernel(RAGGED.meshgrid(), R0)

    _compare(monkeypatch, compute)


@pytest.mark.parametrize("label", ["e+ie'", "e'"])
def test_flux_does_not_depend_on_the_tiling(label: str, monkeypatch) -> None:
    mos, combos = _square()
    mo = {**mos, **combos}[label]
    _compare(monkeypatch, lambda: density_maps.probability_flux(mo, RAGGED))


def test_local_maxima_do_not_depend_on_the_tiling(monkeypatch) -> None:
    single = density_maps.single_density(4, _square()[0], RAGGED)
    # plateau cells tied across a tile boundary (rows 6 and 7) merge into one peak
    values = single.values.copy()
    values[6:8, 30:32] = values.max() * 2
    plateau = density_maps.DensityGrid(RAGGED, values)
    whole = [density_maps.local_maxima(single), density_maps.local_maxima(plateau)]
    ran = _tiled(monkeypatch)
    assert [density_maps.local_maxima(single), density_maps.local_maxima(plateau)] == whole
    assert len(whole[1]) == len(whole[0]) + 1
    assert len({ident for *_, ident in ran}) >= 2


def test_one_tile_runs_fn_once_on_the_whole_grid_in_this_thread() -> None:
    result = np.zeros((256, 256))
    calls = []

    def fn(i0, i1):
        calls.append((i0, i1, threading.get_ident()))
        return result

    assert grid_tiles.tiled(fn, (256, 256)) is result  # no buffer, no copy
    assert grid_tiles.tiled(fn, ()) is result
    assert calls == [(0, None, threading.get_ident())] * 2


def test_an_error_in_a_worker_tile_reaches_the_caller(monkeypatch) -> None:
    monkeypatch.setattr(grid_tiles, "TILE_CELLS", 10 * 10)
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 4)
    caller = threading.get_ident()
    before = threading.active_count()

    def fn(i0, i1):
        if threading.get_ident() != caller and i0 == 30:
            raise ZeroDivisionError(f"tile {i0}:{i1}")
        return np.full((i1 - i0, 10), float(i0))

    with pytest.raises(ZeroDivisionError, match="tile 30:40"):
        grid_tiles.tiled(fn, (80, 10))
    assert threading.active_count() == before
    out = grid_tiles.tiled(lambda i0, i1: np.full((i1 - i0, 10), float(i0)), (80, 10))
    assert out[::10, 0].tolist() == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]


def test_the_callers_errstate_holds_in_every_tile(monkeypatch) -> None:
    monkeypatch.setattr(grid_tiles, "TILE_CELLS", 4 * 8)
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 3)
    seen = []

    def fn(i0, i1):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        return np.exp(np.full((i1 - i0, 8), 1e3))  # overflows to inf

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            out = grid_tiles.tiled(fn, (40, 8))
        assert np.all(np.isinf(out))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            grid_tiles.tiled(fn, (40, 8))
    assert len({ident for ident, _ in seen}) >= 2
    assert {state for _, state in seen} == {"ignore", "raise"}
    assert sorted(state for _, state in seen[:10]) == ["ignore"] * 10


def test_many_workers_under_fast_thread_switching_write_every_row(monkeypatch) -> None:
    # more workers than cores, switching threads every microsecond: each row
    # is written once, by its own tile, and the errors of several tiles
    # reach the caller as one
    monkeypatch.setattr(grid_tiles, "TILE_CELLS", 3 * 4)
    monkeypatch.setattr(grid_tiles, "usable_cpus", lambda: 8)

    def rows(i0, i1):
        return np.array([[float(4 * i + j) for j in range(4)] for i in range(i0, i1)])

    def failing(i0, i1):
        raise OSError(f"tile {i0}")

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = grid_tiles.tiled(rows, (203, 4))
        with pytest.raises(OSError, match="tile "):
            grid_tiles.tiled(failing, (203, 4))
    finally:
        sys.setswitchinterval(interval)
    assert out.ravel().tolist() == [float(k) for k in range(203 * 4)]
    assert threading.active_count() == before


def test_cli_import_and_tiled_fields_leave_one_thread() -> None:
    # concurrent.futures and multiprocessing would cost import time and
    # memory; the tiled passes end every thread they start
    code = (
        "import sys, threading\n"
        "import fewbody.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        "from fewbody import density_maps, grid_tiles, orbitals\n"
        "grid_tiles.TILE_CELLS, grid_tiles.usable_cpus = 1000, lambda: 3\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda t: (started.append(t), start(t))[1]\n"
        "spec = density_maps.GridSpec(resolution=(120, 100))\n"
        "density_maps.single_density(3, orbitals.triangle_mos(2.0, 2.5), spec)\n"
        "print(len(started), threading.active_count())\n"
    )
    path = [str(Path(fewbody.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    # two tiled passes (the orbitals, then the kernel's sum), two threads each
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n4 1\n")
