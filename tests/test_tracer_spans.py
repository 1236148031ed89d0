"""Every function the benchmark's per-layer tracer wraps still exists.

perfbench/tracer.py names the traced functions of each fewbody module in
SPANS (and the counted SqrtRational methods in COUNTED) and patches them the
way Tracer._replace does: a module attribute, or `Class.__dict__[attr]` for
a method, so a method inherited from a base class cannot be traced.  A
refactor that renames or moves one of them would break only the traced
benchmark run; this test finds it here without installing the tracer.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()
TRACED = [(layer, name) for layer, names in TRACER.SPANS.items() for name in names] + [
    ("exact", name) for name in TRACER.COUNTED.values()
]


@pytest.mark.parametrize("layer, name", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_name_resolves_as_the_tracer_resolves_it(layer: str, name: str) -> None:
    module = importlib.import_module(f"fewbody.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        assert callable(vars(getattr(module, cls_name)).get(attr))
    else:
        assert callable(getattr(module, name))


# -- the traced benchmark path, run as the benchmark runs it -----------------

ROOT = TRACER_PATH.parents[1]
SITES = "triangle:0,2.5;-1,0;1,0|square:-1,1;1,1;1,-1;-1,-1"
TRACED_RUNS = {
    "density": [
        "cli", "density", "--geometry", "rectangle", "--a", "2", "--b", "2",
        "--set", "c2_magnitude=1", "--set", "c1_phase=0.39",
        "--set", "nx=16", "--set", "ny=16", "--output-dir", "out",
    ],
    "verify": ["cli", "verify"],
    "hom": ["workload", "hom", "--thetas", "0.7"],
    "maps": ["workload", "maps", "--grid", "16", "--points", SITES],
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict:
    """Each run of TRACED_RUNS through tracer.py in a fresh process, in a
    directory of its own: its exit code, standard error and trace path.
    No bytecode is written, so the benchmark's directory is only read."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = {}
    for name, argv in TRACED_RUNS.items():
        cwd = tmp_path_factory.mktemp(name)
        trace = cwd / "trace.json"
        proc = subprocess.run(
            [sys.executable, str(TRACER_PATH), str(trace), "--", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )
        out[name] = (proc.returncode, proc.stderr, trace)
    return out


@pytest.mark.parametrize("name", TRACED_RUNS)
def test_a_traced_operation_exits_0_and_writes_its_trace(traces, name: str) -> None:
    code, stderr, trace = traces[name]
    assert code == 0, stderr
    assert set(json.loads(trace.read_text())) >= {"calls", "self_s", "total_s", "work"}


@pytest.mark.parametrize("layer", [*TRACER.SPANS, "exact"])
def test_every_traced_layer_records_a_call(traces, layer: str) -> None:
    reports = [json.loads(trace.read_text()) for _, _, trace in traces.values()]
    calls = sum(
        count for report in reports for name, count in report["calls"].items()
        if name.startswith(f"{layer}.")
    )
    assert calls > 0


def test_the_density_sum_counts_its_term_points(traces) -> None:
    _, _, trace = traces["density"]
    work = json.loads(trace.read_text())["work"]
    assert work["wavefunction_algebra.evaluate_density.term_points"] > 0
