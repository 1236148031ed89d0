"""Per-layer trace of one benchmark operation, run in the operation's process.

    python perfbench/tracer.py TRACE.json -- cli verify
    python perfbench/tracer.py TRACE.json -- workload maps --grid 1024 ...

The tracer wraps the public functions of each fewbody module (the table in
NOTES.md), runs the operation in this process and writes, per wrapped
function, its call count, self time, inclusive time and the work counters
below to TRACE.json.  A function imported by name into another module is
replaced in every module namespace that holds it, so calls made through
`from .wavefunction_algebra import assemble_state` are traced too.

Self time is a span's duration minus the time of the wrapped spans it
called.  The exact layer is counted only: a span per arithmetic operation
would swamp the trace.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> wrapped functions, named as attributes of fewbody.<layer>
SPANS = {
    "spin_algebra": (
        "clebsch_gordan", "wigner6j", "coupled_state_3", "coupled_state_4",
        "spin_overlap", "recoupling_identity", "family_3", "family_4",
    ),
    "symmetric_group": ("build_symmetrizer", "apply_symmetrizer"),
    "wavefunction_algebra": (
        "build_position_family", "project_out_symmetric_sum", "assemble_state",
        "full_overlap", "spin_trace_pair", "spin_trace", "marginalize",
        "evaluate_density",
    ),
    "orbitals": (
        "triangle_mos", "rectangle_mos", "degenerate_superpositions",
        "MolecularOrbital.evaluate", "MolecularOrbital.gradient",
    ),
    "density_maps": (
        "single_density", "ground_pair_kernel", "pair_density",
        "PairDensityKernel.__call__", "conditional_density", "antibunching_check",
        "probability_flux", "local_maxima", "discrete_divergence",
    ),
    "fock_engine": (
        "basis_state", "beamsplitter", "apply_mode_transform",
        "StateVector.__add__", "StateVector.__sub__", "StateVector.norm",
    ),
    "cli": (
        "run_verify", "run_density", "run_hom",
        "_write_csv", "_write_pgm", "_write_ppm",
        "_balance_residual", "_prefactor_checks",
    ),
}
COUNTED = {"exact.mul": "SqrtRational.__mul__", "exact.add": "SqrtRational.__add__"}
DISTINCT = (
    "spin_algebra.clebsch_gordan",
    "wavefunction_algebra.assemble_state",
    "wavefunction_algebra.spin_trace_pair",
)


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.work = defaultdict(int)  # named work counters, see _MEASURES
        self.keys = {name: set() for name in DISTINCT}
        self._children = []  # one accumulator of child-span time per open span

    def span(self, name, fn):
        keys = self.keys.get(name)
        measure = _MEASURES.get(name)
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if keys is not None:
                keys.add(_key(args, kwargs))
            if measure is not None:
                measure(self.work, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function wherever a fewbody module or the
        benchmark's workloads module holds it."""
        import fewbody.cli  # noqa: F401  imports every traced module

        holders = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n.startswith("fewbody") or n == "workloads")
        ]
        for layer, names in SPANS.items():
            module = sys.modules[f"fewbody.{layer}"]
            for attr in names:
                self._replace(module, attr, holders, functools.partial(self.span, f"{layer}.{attr}"))
        exact = sys.modules["fewbody.exact"]
        for name, attr in COUNTED.items():
            self._replace(exact, attr, holders, functools.partial(self.counter, name))

    @staticmethod
    def _replace(module, dotted, holders, make):
        if "." in dotted:  # a method: patch the class and every alias in it
            cls_name, attr = dotted.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            wrapper = make(original)
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapper)
            return
        original = getattr(module, dotted)
        wrapper = make(original)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "work": dict(self.work),
        }


def _grid_cells(work, args, result):
    values = getattr(result, "values", None)
    if values is not None and getattr(values, "ndim", 0) >= 2:
        work["map_cells"] += int(values.shape[0] * values.shape[1])


def _orbital_points(work, args, result):
    work["orbitals.evaluate.points"] += int(np.size(result))


def _term_points(work, args, result):
    work["wavefunction_algebra.evaluate_density.term_points"] += len(args[0].terms) * int(
        np.size(result)
    )


def _written_bytes(kind):
    def measure(work, args, result):
        work[f"cli.{kind}.bytes"] += os.path.getsize(args[1])

    return measure


_MEASURES = {
    "orbitals.MolecularOrbital.evaluate": _orbital_points,
    "wavefunction_algebra.evaluate_density": _term_points,
    "cli._write_csv": _written_bytes("write_csv"),
    "cli._write_pgm": _written_bytes("write_image"),
    "cli._write_ppm": _written_bytes("write_image"),
}
_MEASURES.update(
    {f"density_maps.{name}": _grid_cells for name in SPANS["density_maps"]}
)


def main(argv: list[str]) -> int:
    out_path, sep, kind, *rest = argv
    if sep != "--" or kind not in ("cli", "workload"):
        raise SystemExit("usage: tracer.py TRACE.json -- {cli|workload} ARGS...")
    if kind == "cli":
        import fewbody.cli as entry
    else:
        import workloads as entry
    tracer = Tracer()
    tracer.install()
    try:
        return entry.main(rest)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
