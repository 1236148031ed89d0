"""A fixed unit of work that gauges how fast the host runs right now.

    python perfbench/calibrate.py    # one measurement per line of input

run.py keeps this running in a process of its own for a whole run, asks
for one measurement between operations and divides each operation's time
by the calibration times around it (see NOTES.md, "Calibration").  It does not touch the program under test and must never
change: changing it changes the scale of every end-to-end time.

The work is elementwise numpy on 1024x1024 grids, the kind the orbital and
density maps do.  Only the work is timed, not interpreter start or the
numpy import: in alternating calibrations and operations, that timing
followed every workload's operation time more closely than the whole
calibration process did, or than rational arithmetic did (NOTES.md).
"""
from __future__ import annotations

import hashlib
import sys
import time

CHECKSUM = "67759374cbb5"


def work(np) -> str:
    x, y = np.meshgrid(np.linspace(-3.0, 3.0, 1024), np.linspace(-3.0, 3.0, 1024))
    grid = np.zeros_like(x)
    for k in range(4):
        grid += np.exp(-((x - 0.5 * k) ** 2 + y**2)) * np.cos(k * x) * (1.0 + 0.1 * y)
    grid /= grid.sum()
    moments = [round(float((grid * x**n).sum()), 6) for n in range(1, 4)]
    return hashlib.sha256(repr(moments).encode()).hexdigest()[:12]


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one run of work(); raises if its result is wrong."""
    import numpy as np

    wall, cpu = time.perf_counter(), time.process_time()
    checksum = work(np)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if checksum != CHECKSUM:
        raise RuntimeError(f"calibration checksum {checksum}, expected {CHECKSUM}")
    return wall, cpu


def serve() -> None:
    """For each line read from stdin, measure once and print the wall and
    CPU seconds; stop at the end of input."""
    for _ in sys.stdin:
        print(*measure(), flush=True)


if __name__ == "__main__":
    serve()
