"""The exact layer's caches: bounded by their arguments, none keyed by a float."""
import contextlib
import dataclasses
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fewbody import density_maps, exact, spin_algebra, wavefunction_algebra
from fewbody.cli import main
from fewbody.exact import SqrtRational

CACHED_MODULES = (exact, spin_algebra, wavefunction_algebra, density_maps)


def _caches() -> dict:
    """Every functools cache that a cached module defines, by dotted name."""
    return {
        f"{module.__name__}.{name}": value
        for module in CACHED_MODULES
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }


def _round(out_dir: Path) -> None:
    grid = ["--set", "nx=16", "--set", "ny=16"]
    grid += ["--set", "c2_magnitude=1", "--set", "c1_phase=0.39"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(["verify"])
        main(["density", "--geometry", "triangle", "--output-dir", str(out_dir), *grid])
        main(["density", "--geometry", "rectangle", "--a", "2", "--b", "2",
              "--output-dir", str(out_dir), *grid])


def _inexact(value) -> bool:
    """Whether value holds a float or complex anywhere, walking containers,
    dataclass fields and the terms of exact values."""
    if isinstance(value, SqrtRational):
        value = tuple(value.terms.items())
    elif dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list, frozenset)):
        return any(map(_inexact, value))
    return isinstance(value, (float, complex))


def test_caches_stay_bounded_and_take_no_float_key(tmp_path: Path, monkeypatch) -> None:
    caches = _caches()
    keys: dict[str, list] = {name: [] for name in caches}

    def spy(name, cached):
        def call(*args, **kwargs):
            keys[name].append((args, tuple(kwargs.items())))
            return cached(*args, **kwargs)

        return call

    # every module holding a cached function calls it through the spy
    holders = [m for n, m in sys.modules.items() if n.startswith("fewbody") and m is not None]
    for name, cached in caches.items():
        wrapper = spy(name, cached)
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is cached:
                    monkeypatch.setattr(module, attr, wrapper)

    _round(tmp_path / "first")
    sizes = {name: cached.cache_info().currsize for name, cached in caches.items()}
    _round(tmp_path / "second")
    assert {name: cached.cache_info().currsize for name, cached in caches.items()} == sizes
    for name in ("wavefunction_algebra._spin_gram", "wavefunction_algebra.spin_trace_pair"):
        assert sizes[f"fewbody.{name}"] > 0 and keys[f"fewbody.{name}"]
    # the one-entry grid cache is keyed on the float geometry and grid
    floats = {
        name: k for name, calls in keys.items() for k in calls
        if _inexact(k) and not name.endswith("._grid_values")
    }
    assert floats == {}


@pytest.mark.parametrize("m", [0.5, -0.5])
def test_a_float_projection_shares_the_exact_state(m: float) -> None:
    state = wavefunction_algebra.assemble_state(3, "low", "fermion", m=m)
    assert state is wavefunction_algebra.assemble_state(3, "low", "fermion", m=Fraction(m))
    assert not _inexact(state)


def test_equal_states_share_one_trace() -> None:
    # m is unused at n = 4, so the two assembled states are one value
    up = wavefunction_algebra.assemble_state(4, "low", "fermion", m=spin_algebra.UP)
    down = wavefunction_algebra.assemble_state(4, "low", "fermion", m=spin_algebra.DOWN)
    assert up == down
    trace = wavefunction_algebra.spin_trace_pair
    assert trace(up, up) is trace(down, down)


def test_a_balanced_run_traces_each_branch_pair_once(tmp_path: Path) -> None:
    # spin_trace takes rho_21 as the transpose of rho_12: per statistics only
    # (low, low), (high, high) and (low, high) are traced
    trace = wavefunction_algebra.spin_trace_pair
    trace.cache_clear()
    argv = ["density", "--geometry", "rectangle", "--a", "2", "--b", "2",
            "--set", "nx=16", "--set", "ny=16", "--set", "c2_magnitude=1",
            "--set", "c1_phase=0.39", "--output-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert trace.cache_info().currsize == 6
    for statistics in ("fermion", "boson"):
        low = wavefunction_algebra.assemble_state(4, "low", statistics)
        high = wavefunction_algebra.assemble_state(4, "high", statistics)
        hits = trace.cache_info().hits
        trace(high, low)
        assert trace.cache_info().hits == hits
