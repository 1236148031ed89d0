"""The benchmark's library-level workloads still run and check out.

perfbench/workloads.py drives the `maps-1024` and `hom-sweep` workloads
through the fewbody library, not the CLI.  A change that removes or renames
a name it calls would otherwise break only the benchmark; here its two
drivers run in-process on small inputs, loaded under a module name of their
own the way tests/test_tracer_spans.py loads the tracer.
"""
import importlib.util
import math
import random
from pathlib import Path

from fewbody import cli, fock_engine

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


def test_maps_driver_checks_out_at_16x16() -> None:
    points = {
        geometry: [site.center for _, site in build()["g"].geometry.sites]
        for geometry, (_, build) in WORKLOADS.GEOMETRIES.items()
    }
    checks = WORKLOADS.maps(16, points)["checks"]
    assert checks and all(checks.values()), checks


def test_hom_driver_checks_out_at_two_angles() -> None:
    result = WORKLOADS.hom([0.3, math.pi / 4])
    assert all(result["checks"].values()), result["checks"]
    assert result["values"]["operations"] == 2 * len(WORKLOADS.HOM_CASES)


def test_hom_caches_stay_bounded_as_the_angles_grow() -> None:
    """The splitter and report caches are keyed by configurations, never by
    an amplitude or an angle: 64 more angles add no entry to them."""
    caches = (fock_engine._raised, cli._ket, cli._on_one_site)
    rng = random.Random(7)
    WORKLOADS.hom([rng.uniform(0.0, math.pi / 2) for _ in range(8)])
    sizes = [cache.cache_info().currsize for cache in caches]
    WORKLOADS.hom([rng.uniform(0.0, math.pi / 2) for _ in range(64)])
    assert [cache.cache_info().currsize for cache in caches] == sizes
