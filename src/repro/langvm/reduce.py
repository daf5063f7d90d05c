"""Parallel reductions: flat gather vs combining trees.

A reduction collects partial results (often whole vectors, e.g. element
load contributions) from N leaf tasks.  The *flat* strategy initiates
all leaves from one task and combines at that task — every partial
funnels through one kernel.  The *tree* strategy spawns a recursive
task tree of fan-out f; partials combine pairwise up the tree, so no
kernel ever fields more than f result messages and subtree combines
overlap in time.

The ablation benchmark (A3) measures where the tree starts paying —
the kind of design question the FEM-2 simulations existed to answer.
"""

from __future__ import annotations

from typing import Any, List, Tuple

import numpy as np

from ..errors import LangVMError

#: task-type names registered by :func:`ensure_reduce_registered`
REDUCE_NODE = "red.node"


def _combine(values: List[Any]):
    """Sum partials (scalars or equal-shape arrays); returns (result, flops)."""
    if not values:
        raise LangVMError("nothing to combine")
    first = values[0]
    if isinstance(first, np.ndarray):
        out = np.zeros_like(first)
        for v in values:
            out = out + v
        return out, first.size * (len(values) - 1)
    return sum(values), len(values) - 1


def _reduce_node(ctx, leaf_type: str, args: tuple, lo: int, hi: int, fanout: int):
    """Internal tree node: cover leaf indices [lo, hi)."""
    span = hi - lo
    if span <= fanout:
        tids = []
        for index in range(lo, hi):
            got = yield ctx.initiate(leaf_type, *args, index, count=1,
                                     index_arg=False)
            tids.extend(got)
        results = yield ctx.wait(tids)
        combined, flops = _combine([results[t] for t in tids])
        yield ctx.compute(flops=flops)
        return combined
    # split into fan-out child ranges of near-equal size
    bounds = np.linspace(lo, hi, fanout + 1).astype(int)
    tids = []
    for i in range(fanout):
        clo, chi = int(bounds[i]), int(bounds[i + 1])
        if clo == chi:
            continue
        got = yield ctx.initiate(REDUCE_NODE, leaf_type, args, clo, chi, fanout,
                                 count=1, index_arg=False)
        tids.extend(got)
    results = yield ctx.wait(tids)
    combined, flops = _combine([results[t] for t in tids])
    yield ctx.compute(flops=flops)
    return combined


def ensure_reduce_registered(program) -> None:
    """Register the internal tree-node task type (idempotent)."""
    if REDUCE_NODE not in program.runtime.registry:
        program.define(REDUCE_NODE, _reduce_node, code_words=192,
                       constants_words=16)


def flat_reduce(ctx, leaf_type: str, n: int, args: Tuple[Any, ...] = ()):
    """Initiate *n* leaves, gather all partials here, combine locally."""
    if n < 1:
        raise LangVMError("flat_reduce needs n >= 1")
    tids = yield ctx.initiate(leaf_type, *args, count=n)
    results = yield ctx.wait(tids)
    combined, flops = _combine([results[t] for t in tids])
    yield ctx.compute(flops=flops)
    return combined


def tree_reduce(ctx, leaf_type: str, n: int, args: Tuple[Any, ...] = (),
                fanout: int = 2):
    """Combine *n* leaf results up a task tree of the given fan-out.

    Leaves receive ``(*args, index)`` with ``index`` in ``[0, n)``,
    matching :func:`flat_reduce`'s convention.
    """
    if n < 1:
        raise LangVMError("tree_reduce needs n >= 1")
    if fanout < 2:
        raise LangVMError("tree fan-out must be >= 2")
    result = yield from _reduce_node(ctx, leaf_type, tuple(args), 0, n, fanout)
    return result
