"""Parallel linear algebra over windows.

"Operations: ... Linear algebra operations: inner product, vector
operations, etc." and, from the hardware requirements, "fast linear
algebra operations (to extract the low-level parallelism available in
these operations)".

The building blocks are *chunk tasks* — small registered task types
that read a window partition, do the arithmetic, and write/return —
plus sub-generator helpers (``inner``, ``norm2``, ``matvec``)
that partition windows, fan the chunk tasks out with forall-style
initiation, and combine the partial results.  Call
:func:`ensure_registered` once per program before using the helpers.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import LangVMError
from .windows import Window

#: task-type names registered by :func:`ensure_registered`
LINALG_TASKS = ("la.dot", "la.norm", "la.matvec")


# -- chunk task bodies -------------------------------------------------------

def _la_dot(ctx, xw: Window, yw: Window):
    x = yield ctx.read(xw)
    y = yield ctx.read(yw)
    yield ctx.compute(flops=2 * x.size)
    return float(np.dot(x.ravel(), y.ravel()))


def _la_norm(ctx, xw: Window):
    x = yield ctx.read(xw)
    yield ctx.compute(flops=2 * x.size)
    return float(np.dot(x.ravel(), x.ravel()))


def _la_matvec(ctx, aw: Window, xw: Window, yw: Window):
    """y_band <- A_band @ x over one row band."""
    a = yield ctx.read(aw)
    x = yield ctx.read(xw)
    yield ctx.compute(flops=2 * a.size)
    y = a.reshape(aw.shape) @ x.ravel()
    yield ctx.write(yw, y)
    return None


def ensure_registered(program) -> None:
    """Register the chunk task types with a program (idempotent)."""
    registry = program.runtime.registry
    bodies = {
        "la.dot": _la_dot,
        "la.norm": _la_norm,
        "la.matvec": _la_matvec,
    }
    for name, body in bodies.items():
        if name not in registry:
            program.define(name, body, code_words=128, constants_words=16)


# -- helpers (sub-generators for task bodies) ---------------------------------

def _fan_out(ctx, task_type: str, arg_sets):
    tids: List[int] = []
    for args in arg_sets:
        sub = yield ctx.initiate(task_type, *args, count=1, index_arg=False)
        tids.extend(sub)
    results = yield ctx.wait(tids)
    return [results[t] for t in tids]


def inner(ctx, xw: Window, yw: Window, workers: int):
    """Parallel inner product <x, y> with *workers* chunk tasks."""
    if xw.words != yw.words:
        raise LangVMError(f"inner: size mismatch {xw.words} vs {yw.words}")
    xs, ys = xw.split_cols(workers), yw.split_cols(workers)
    partials = yield from _fan_out(ctx, "la.dot", list(zip(xs, ys)))
    yield ctx.compute(flops=len(partials))
    return float(sum(partials))


def norm2(ctx, xw: Window, workers: int):
    """Parallel squared 2-norm of x."""
    xs = xw.split_cols(workers)
    partials = yield from _fan_out(ctx, "la.norm", [(p,) for p in xs])
    yield ctx.compute(flops=len(partials))
    return float(sum(partials))


def matvec(ctx, aw: Window, xw: Window, yw: Window, workers: int):
    """Parallel y <- A @ x by row bands of A."""
    nr, nc = aw.shape
    if xw.words != nc or yw.words != nr:
        raise LangVMError(
            f"matvec: A is {aw.shape}, x has {xw.words}, y has {yw.words}"
        )
    bands = aw.split_rows(workers)
    args = []
    offset = 0
    for band in bands:
        r = band.shape[0]
        ylo = yw.cols[0] + offset if yw.shape[0] == 1 else None
        if ylo is not None:
            yband = Window(yw.handle, yw.rows, (ylo, ylo + r))
        else:
            yband = Window(yw.handle, (yw.rows[0] + offset, yw.rows[0] + offset + r), yw.cols)
        args.append((band, xw, yband))
        offset += r
    yield from _fan_out(ctx, "la.matvec", args)
    return None
