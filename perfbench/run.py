#!/usr/bin/env python3
"""The fewbody benchmark.

    python3 perfbench/run.py --workload hom-sweep --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Each operation runs in a fresh Python process, issued by one closed-loop
client (the next operation starts when the previous one has exited).  Every
operation's output is checked against perfbench/reference.json, recorded
from the seed commit.  Between operations a fixed calibration (calibrate.py)
gauges the host's current speed, and the end-to-end times are scaled by it
to the speed of one reference host.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates traced and untraced
operations and reports the per-layer metrics of tracer.py.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.

Run from any directory; the program under test is the `src/` beside this
directory.  See NOTES.md for why each workload was chosen.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
# Median wall and CPU seconds of calibrate.py's work on the reference host
# (NOTES.md, "Calibration").  End-to-end times are scaled to this speed:
# time * REFERENCE_CAL / (calibration time measured around it).  Fixed, like
# calibrate.py itself, so that two commits compare on one scale.
REFERENCE_CAL = {"wall_s": 0.25, "cpu_s": 0.25}

SETUP_SAMPLES = 5
MIN_OPS = 3
# children get one thread per numeric library, so one operation uses at most
# one core beside the waiting client
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# The end-to-end metrics (BENCHMARK.json "end_to_end"), name -> unit.
END_TO_END = {
    "op_wall_s.p50": "s",
    "op_cpu_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The per-layer metrics (BENCHMARK.json "per_layer"), name -> unit.
_DENSITY_MAPS = (
    "single_density", "ground_pair_kernel", "pair_density", "PairDensityKernel.__call__",
    "conditional_density", "antibunching_check", "probability_flux", "local_maxima",
    "discrete_divergence",
)
PER_LAYER = {
    **{f"{layer}.busy_s": "s" for layer in (
        "spin_algebra", "symmetric_group", "wavefunction_algebra", "orbitals",
        "density_maps", "fock_engine", "cli",
    )},
    "exact.mul.calls": "count",
    "exact.add.calls": "count",
    "spin_algebra.clebsch_gordan.calls": "count",
    "spin_algebra.clebsch_gordan.distinct": "count",
    "symmetric_group.apply_symmetrizer.calls": "count",
    "wavefunction_algebra.assemble_state.calls": "count",
    "wavefunction_algebra.assemble_state.distinct": "count",
    "wavefunction_algebra.spin_trace_pair.calls": "count",
    "wavefunction_algebra.spin_trace_pair.distinct": "count",
    "wavefunction_algebra.evaluate_density.term_points": "count",
    "orbitals.evaluate.points": "count",
    "orbitals.evaluate.points_per_cell": "ratio",
    **{f"density_maps.{name}.busy_s": "s" for name in _DENSITY_MAPS},
    "cli.write_csv.busy_s": "s",
    "cli.write_csv.bytes": "bytes",
    "cli.write_image.busy_s": "s",
    "cli.write_image.bytes": "bytes",
    "cli.checks.busy_s": "s",
    "cli.checks.total_s": "s",
    "fock_engine.apply_mode_transform.calls": "count",
    "trace.overhead_s": "s",
}
COUNTS = ("count", "bytes")  # units of the metrics that must repeat exactly


# -- workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    default_grid: int | None
    # (seeded rng, grid) -> ("cli" | "workload", arguments)
    operation: Callable[[random.Random, int | None], tuple[str, list[str]]]
    # reference values that depend on the seed (compared at REFERENCE_SEED only)
    seeded: Callable[[str], bool] = lambda key: False


def _verify(rng, grid):
    return "cli", ["verify"]


BALANCED_SQUARE = [
    "density", "--geometry", "rectangle", "--a", "2", "--b", "2",
    "--set", "c2_magnitude=1", "--set", "c1_phase=0.39", "--set", "c2_phase=-0.39",
    "--output-dir", "out",
]


def _density(rng, grid):
    size = [] if grid == 256 else ["--set", f"nx={grid}", "--set", f"ny={grid}"]
    return "cli", BALANCED_SQUARE + size


SITES = {
    "triangle": ((0.0, 2.5), (-1.0, 0.0), (1.0, 0.0)),
    "square": ((-1.0, 1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)),
}
JITTER = 0.25


def _maps(rng, grid):
    blocks = []
    for geometry, centers in SITES.items():
        pts = ";".join(
            f"{x + rng.uniform(-JITTER, JITTER)!r},{y + rng.uniform(-JITTER, JITTER)!r}"
            for x, y in centers
        )
        blocks.append(f"{geometry}:{pts}")
    return "workload", ["maps", "--grid", str(grid), "--points", "|".join(blocks)]


HOM_ANGLES = 64


def _hom(rng, grid):
    thetas = [rng.uniform(0.0, math.pi / 2) for _ in range(HOM_ANGLES)]
    return "workload", ["hom", "--thetas", ",".join(repr(t) for t in thetas)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", None, _verify),
        Workload("density-square-balanced", 256, _density),
        Workload("maps-1024", 1024, _maps, seeded=lambda key: ".conditional_" in key),
        Workload("hom-sweep", None, _hom, seeded=lambda key: True),
    )
}


# -- one operation -----------------------------------------------------


@dataclass
class OpResult:
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    env.update(THREAD_ENV)
    return env


def _argv(kind: str, args: list[str], trace_path: Path | None) -> list[str]:
    if trace_path is not None:
        return [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", kind, *args]
    if kind == "cli":
        return [sys.executable, "-m", "fewbody.cli", *args]
    return [sys.executable, str(HERE / "workloads.py"), *args]


def timed(argv: list[str], cwd: Path, env: dict, out, err) -> tuple[int, float, os.struct_rusage]:
    """Run one process to its end: its exit code, wall seconds from spawn
    to exit, and its resource usage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


def run_op(kind: str, args: list[str], env: dict, traced: bool) -> tuple[OpResult, dict]:
    """Run one operation in a fresh process inside a fresh directory.

    Returns its timing record and what it produced, in the form the
    reference stores: exit code, and stdout with the {name: [bytes, sha256]}
    manifest of the files it wrote (CLI) or its JSON result (workloads.py)."""
    op_dir = WORK / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    trace_path = op_dir / "trace.json" if traced else None
    argv = _argv(kind, args, trace_path)
    with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
        code, wall, usage = timed(argv, op_dir, env, out, err)
    stdout = (op_dir / "stdout").read_text()
    seen: dict = {"exit": code}
    if kind == "cli":
        seen["stdout"] = stdout
        out_dir = op_dir / "out"
        seen["files"] = {}
        for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
            data = path.read_bytes()
            seen["files"][path.name] = [len(data), hashlib.sha256(data).hexdigest()]
    else:
        try:
            seen.update(json.loads(stdout.strip().splitlines()[-1]))
        except (IndexError, ValueError):
            seen["stdout"] = stdout
    stderr = (op_dir / "stderr").read_text().strip()
    if code != 0 and stderr:
        seen["stderr_tail"] = stderr.splitlines()[-1]
    trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
    shutil.rmtree(op_dir, ignore_errors=True)
    timing = OpResult(
        traced=traced,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        problems=[],
        trace=trace,
    )
    return timing, seen


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def problems_against(workload: Workload, seen: dict, ref: dict, compare_seeded: bool) -> list[str]:
    """Every way an operation's output differs from the seed reference."""
    out = []
    if seen["exit"] != 0:
        out.append(f"exit code {seen['exit']}: {seen.get('stderr_tail', '')}")
    if "[FAIL]" in seen.get("stdout", ""):
        out.append("a [FAIL] line")
    if "stdout" in ref and seen.get("stdout") != ref["stdout"]:
        out.append("stdout differs from the reference")
    if "files" in ref:
        got, want = seen.get("files", {}), ref["files"]
        for name in sorted(set(got) | set(want)):
            if got.get(name) != want.get(name):
                out.append(f"file {name}: {got.get(name)} != reference {want.get(name)}")
    for name, passed in seen.get("checks", {}).items():
        if not passed:
            out.append(f"check failed: {name}")
    if "checks" in ref and set(seen.get("checks", {})) != set(ref["checks"]):
        out.append("the set of checks differs from the reference")
    for key, want in ref.get("values", {}).items():
        if workload.seeded(key) and not compare_seeded:
            continue
        got = seen.get("values", {}).get(key)
        if not _close(got, want):
            out.append(f"value {key}: {got!r} != reference {want!r}")
    return out


# -- metrics -----------------------------------------------------------


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    calls, self_s, total_s = trace["calls"], trace["self_s"], trace["total_s"]
    work, distinct = trace["work"], trace["distinct"]
    m: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".busy_s") and name.count(".") == 1:
            layer = name.split(".")[0]
            m[name] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for name in _DENSITY_MAPS:
        m[f"density_maps.{name}.busy_s"] = self_s.get(f"density_maps.{name}", 0.0)
    for fn in (
        "exact.mul", "exact.add", "spin_algebra.clebsch_gordan",
        "symmetric_group.apply_symmetrizer", "wavefunction_algebra.assemble_state",
        "wavefunction_algebra.spin_trace_pair", "fock_engine.apply_mode_transform",
    ):
        m[f"{fn}.calls"] = calls.get(fn, 0)
    for fn, count in distinct.items():
        m[f"{fn}.distinct"] = count
    for name in (
        "wavefunction_algebra.evaluate_density.term_points", "orbitals.evaluate.points",
        "cli.write_csv.bytes", "cli.write_image.bytes",
    ):
        m[name] = work.get(name, 0)
    cells = work.get("map_cells", 0)
    m["orbitals.evaluate.points_per_cell"] = (
        work.get("orbitals.evaluate.points", 0) / cells if cells else 0.0
    )
    m["cli.write_csv.busy_s"] = self_s.get("cli._write_csv", 0.0)
    m["cli.write_image.busy_s"] = self_s.get("cli._write_pgm", 0.0) + self_s.get("cli._write_ppm", 0.0)
    checks = ("cli._balance_residual", "cli._prefactor_checks")
    m["cli.checks.busy_s"] = sum(self_s.get(k, 0.0) for k in checks)
    m["cli.checks.total_s"] = sum(total_s.get(k, 0.0) for k in checks)
    return m


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


# -- environment record ------------------------------------------------


def _filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1].replace("\\040", " ")
                if path.is_relative_to(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def _commit() -> str | None:
    """HEAD of the git checkout rooted at ROOT; None outside one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(env: dict, child_numpy: str) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numpy_in_child": child_numpy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "filesystem": _filesystem_type(WORK),
        "thread_env": {k: env[k] for k in THREAD_ENV},
        "loadavg_start": list(os.getloadavg()),
    }


# -- one run -----------------------------------------------------------


SETUP_CODE = "import fewbody.cli, numpy; print(fewbody.cli.__file__); print(numpy.__version__)"


@contextmanager
def calibrator(env: dict) -> Iterator[Callable[[], dict[str, float]]]:
    """calibrate.py in a process of its own for one run, so that numpy is
    imported once and this process stays small (a child's peak RSS counts
    this process's RSS at fork).  Yields a function that makes one
    calibration and returns the wall and CPU seconds of its work, and each
    relative to the reference host's."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "calibrate.py")], cwd=WORK, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as proc:
        yield lambda: _calibrate(proc)


def _calibrate(proc: subprocess.Popen) -> dict[str, float]:
    try:
        proc.stdin.write("\n")
        proc.stdin.flush()
        wall, cpu = map(float, proc.stdout.readline().split())
    except (BrokenPipeError, ValueError):
        raise SystemExit("calibrate.py failed; see its error above") from None
    return {
        "wall_s": wall, "cpu_s": cpu,
        "wall_rel": wall / REFERENCE_CAL["wall_s"], "cpu_rel": cpu / REFERENCE_CAL["cpu_s"],
    }


def scaled(values: list[float], around: list[list[dict]], rel: str) -> list[float]:
    """values[i] on the reference host's scale: divided by the mean relative
    time (rel: "wall_rel" or "cpu_rel") of the calibrations around[i], made
    just before and just after it."""
    return [v / statistics.fmean(c[rel] for c in cals) for v, cals in zip(values, around)]


def time_import(env: dict) -> tuple[float, str]:
    """Wall seconds of a fresh interpreter importing the program, and the
    child's numpy version; checks that the child imports the checkout's src/."""
    with open(WORK / ".output", "w+b") as out:
        code, wall, _ = timed([sys.executable, "-c", SETUP_CODE], WORK, env, out, subprocess.STDOUT)
        out.seek(0)
        text = out.read().decode(errors="replace")
    (WORK / ".output").unlink()
    if code != 0:
        raise SystemExit(f"importing the program failed:\n{text}")
    module_file, numpy_version = text.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise SystemExit(f"children import fewbody from {module_file}, not from {SRC}")
    return wall, numpy_version


def measure_setup(env: dict, calibrate: Callable[[], dict]) -> tuple[list[float], list[dict], str]:
    """Time SETUP_SAMPLES imports of the program, each between two
    calibrations, after an untimed import that compiles bytecode and warms
    the file cache.  Returns the import times, the SETUP_SAMPLES + 1
    calibrations and the child's numpy version."""
    _, numpy_version = time_import(env)
    samples: list[float] = []
    cals = [calibrate()]
    for _ in range(SETUP_SAMPLES):
        samples.append(time_import(env)[0])
        cals.append(calibrate())
    return samples, cals, numpy_version


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool,
    grid: int | None, max_ops: int | None, reference: dict,
) -> dict:
    start = time.perf_counter()  # set-up counts against --seconds too
    env = child_env()
    WORK.mkdir(exist_ok=True)
    grid = (grid or workload.default_grid) if workload.default_grid else None
    ref_key = str(grid) if workload.default_grid else "-"
    try:
        ref = reference[workload.name][ref_key]
    except KeyError:
        raise SystemExit(f"no reference for {workload.name} at grid {ref_key}; see NOTES.md")
    compare_seeded = seed == REFERENCE_SEED
    kind, args = workload.operation(random.Random(seed), grid)

    ops: list[OpResult] = []
    costs: list[float] = []  # seconds per operation, checks and calibration included
    limit = max_ops if max_ops is not None else math.inf
    min_ops = min(MIN_OPS * (2 if trace else 1), limit)
    with calibrator(env) as calibrate:
        setup_samples, setup_cals, child_numpy = measure_setup(env, calibrate)
        record = environment(env, child_numpy)
        # ops[i] runs between the calibrations cals[i] and cals[i + 1]
        cals = setup_cals[-1:]
        while len(ops) < limit:
            elapsed = time.perf_counter() - start
            if len(ops) >= min_ops and elapsed + median(costs) > seconds:
                break
            began = time.perf_counter()
            traced = trace and len(ops) % 2 == 1
            op, seen = run_op(kind, args, env, traced)
            op.problems = problems_against(workload, seen, ref, compare_seeded)
            if traced and op.trace is None:
                op.problems.append("the traced operation wrote no trace")
            ops.append(op)
            cals.append(calibrate())
            costs.append(time.perf_counter() - began)
    measured_s = time.perf_counter() - start
    record["loadavg_end"] = list(os.getloadavg())

    plain_at = [i for i, op in enumerate(ops) if not op.traced]
    plain = [ops[i] for i in plain_at]
    around = [cals[i:i + 2] for i in plain_at]
    traced_ops = [op for op in ops if op.traced and op.trace is not None]
    raw = {
        "op_wall_s.p50": [op.wall_s for op in plain],
        "op_cpu_s.p50": [op.cpu_s for op in plain],
        "setup_s": setup_samples,
    }
    samples = {
        "op_wall_s.p50": scaled(raw["op_wall_s.p50"], around, "wall_rel"),
        "op_cpu_s.p50": scaled(raw["op_cpu_s.p50"], around, "cpu_rel"),
        "setup_s": scaled(setup_samples, [setup_cals[i:i + 2] for i in range(SETUP_SAMPLES)], "wall_rel"),
        "peak_rss_mb": [op.rss_mb for op in plain],
    }
    if trace:
        per_op = [layer_metrics(op.trace) for op in traced_ops]
        samples = {name: [m[name] for m in per_op] for name in PER_LAYER if name != "trace.overhead_s"}
        samples["trace.overhead_s"] = [
            median([op.wall_s for op in traced_ops]) - median([op.wall_s for op in plain])
        ]
        units = PER_LAYER
        counts_repeat = all(len(set(samples[k])) <= 1 for k, unit in units.items() if unit in COUNTS)
    else:
        units = END_TO_END
        counts_repeat = None
    metrics = {
        name: {"value": (statistics.median_low if unit in COUNTS else median)(samples[name]), "unit": unit}
        for name, unit in units.items()
    }
    failed = sum(1 for op in ops if op.problems)
    all_cals = setup_cals + cals[1:]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured_s,
        "trace": int(trace),
        "grid": grid,
        "inputs": [kind, *args],
        "environment": record,
        "attempted": len(ops),
        "failed": failed,
        "failed_op_ratio": failed / len(ops),
        "counts_repeat": counts_repeat,
        "sample_counts": {name: len(samples[name]) for name in units},
        "metrics": metrics,
        # the time metrics as measured, before scaling, and the calibration
        "unscaled": {name: median(values) for name, values in raw.items()},
        "calibration": {
            "n": len(all_cals),
            "wall_s": median([c["wall_s"] for c in all_cals]),
            "cpu_s": median([c["cpu_s"] for c in all_cals]),
        },
        "problems": [p for op in ops for p in op.problems],
        "ops": [
            {"traced": op.traced, "wall_s": op.wall_s, "cpu_s": op.cpu_s, "rss_mb": op.rss_mb,
             "wall_rel": statistics.fmean(c["wall_rel"] for c in cals[i:i + 2]),
             "problems": op.problems}
            for i, op in enumerate(ops)
        ],
    }


def print_summary(result: dict) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"grid {result['grid'] or '-'}  ({result['measured_s']:.1f} s measured) =="
    )
    for name, metric in result["metrics"].items():
        n = result["sample_counts"][name]
        print(f"   {name:<52} {metric['value']:>14.6g} {metric['unit']:<6} n={n}")
    print(
        f"   {'failed_op_ratio':<52} {result['failed_op_ratio']:>14.6g} {'':<6} "
        f"({result['failed']}/{result['attempted']})"
    )
    unscaled = ", ".join(f"{k} {v:.4g}" for k, v in result["unscaled"].items())
    print(f"   unscaled: {unscaled}")
    cal = result["calibration"]
    print(
        f"   calibration: {cal['wall_s']:.4g} s wall, {cal['cpu_s']:.4g} s CPU, n={cal['n']} "
        f"(reference host: {REFERENCE_CAL['wall_s']} s, {REFERENCE_CAL['cpu_s']} s)"
    )
    if result["counts_repeat"] is False:
        print("   WARNING: a count metric differed between traced operations")
    for problem in sorted(set(result["problems"]))[:20]:
        print(f"   [MISMATCH] {problem}")
    print(f"   environment: {json.dumps(result['environment'], sort_keys=True)}")


def save(result: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")


# -- reference ---------------------------------------------------------


def record_reference() -> dict:
    """One operation per workload at REFERENCE_SEED, at the default grid and
    at the smoke-test grid of 16; run this on the seed commit only."""
    env = child_env()
    WORK.mkdir(exist_ok=True)
    reference: dict = {"recorded_from": _commit(), "seed": REFERENCE_SEED}
    for workload in WORKLOADS.values():
        grids = (workload.default_grid, 16) if workload.default_grid else (None,)
        for grid in grids:
            kind, args = workload.operation(random.Random(REFERENCE_SEED), grid)
            _, seen = run_op(kind, args, env, traced=False)
            problems = problems_against(workload, seen, {}, True)
            if problems:
                raise SystemExit(f"{workload.name} at grid {grid}: {problems}")
            del seen["exit"]
            reference.setdefault(workload.name, {})[str(grid) if grid else "-"] = seen
    return reference


# -- entry point -------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="The fewbody benchmark.")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=int, help="grid size per axis (smoke test: 16)")
    parser.add_argument("--max-ops", type=int, help="stop after this many operations")
    parser.add_argument(
        "--record-reference", action="store_true",
        help=f"rewrite {REFERENCE.name} from this checkout's program (seed commit only)",
    )
    args = parser.parse_args(argv)
    if args.max_ops is not None and args.max_ops < 1 + args.trace:
        parser.error("--max-ops must be at least 1, and 2 for a traced run (one traced, one untraced)")

    if not (SRC / "fewbody" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'fewbody' / 'cli.py'}", file=sys.stderr)
        return 2
    if args.record_reference:
        REFERENCE.write_text(json.dumps(record_reference(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    reference = json.loads(REFERENCE.read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
            args.grid, args.max_ops, reference,
        )
        save(result)
        print_summary(result)
        results.append(result)

    shutil.rmtree(WORK / "op", ignore_errors=True)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
