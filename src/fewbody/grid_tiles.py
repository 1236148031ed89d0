"""Elementwise grid passes in cache-sized row tiles on every usable CPU.
Each cell goes through the operations it would on the whole grid."""
import contextvars
import os
import threading

import numpy as np

TILE_CELLS = 1 << 16  # 64 rows of a 1024-column grid; all of the default 256 x 256


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def tile_rows(operand, i0: int, i1: int | None):
    """Rows i0:i1 of a 2D grid's operand; a scalar or one row broadcasts as it is."""
    return operand[i0:i1] if np.ndim(operand) == 2 and len(operand) > 1 else operand


def tiled(fn, shape: tuple[int, ...], dtype=float):
    """fn(0, None) for no grid (shape ()) or one tile; else fn(i0, i1) of
    each row tile, written into a new array of shape and dtype (a list of
    them for a list of dtypes).  Tiles run on usable_cpus() threads at most,
    this one included, in copies of its context (so np.errstate holds);
    all have ended on return, and a tile's first error is raised here."""
    if len(shape) < 2 or shape[0] * shape[1] <= TILE_CELLS:
        return fn(0, None)
    step = max(1, TILE_CELLS // shape[1])
    bounds = [(i0, min(i0 + step, shape[0])) for i0 in range(0, shape[0], step)]
    several = isinstance(dtype, list)
    outs = [np.empty(shape, d) for d in (dtype if several else [dtype])]
    count = min(usable_cpus(), len(bounds))
    errors: list[BaseException] = []

    def work(first: int) -> None:
        try:
            for i0, i1 in bounds[first::count]:
                tile = fn(i0, i1)
                for out, part in zip(outs, tile if several else [tile]):
                    out[i0:i1] = part
                del tile, part  # before fn builds the next tile
        except BaseException as exc:
            errors.append(exc)

    context = contextvars.copy_context
    threads = [threading.Thread(target=context().run, args=(work, k)) for k in range(1, count)]
    try:
        for thread in threads:
            thread.start()
        work(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[0]
    return outs if several else outs[0]
