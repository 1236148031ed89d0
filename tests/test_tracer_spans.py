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
