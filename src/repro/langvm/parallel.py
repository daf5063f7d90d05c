"""Sequence control: forall and pardo.

"Sequence control: Forall loops -- do all iterations in parallel if
possible; Pardo ... end -- do all statements in parallel."

Both are sub-generators used with ``yield from`` inside a task body:

    results = yield from forall(ctx, "chunk", n=8, args=(win,))
    a, b = yield from pardo(ctx, ("assemble", (k_win,)), ("loads", (f_win,)))
    sums = yield from pardo(ctx, *(("band", (w,)) for w in win.split_rows(4)))

``forall`` initiates *n* replications of one task type (each receives
its iteration index as the last argument) and waits for all of them,
returning results in iteration order.  ``pardo`` initiates one task per
*statement* (task type, args) pair and waits for all, returning results
in statement order; generated statements give each task its own band.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..errors import LangVMError


def forall(
    ctx,
    task_type: str,
    n: int,
    args: Tuple[Any, ...] = (),
    cluster: Optional[int] = None,
):
    """Run *n* parallel iterations of *task_type*; gather ordered results."""
    if n < 1:
        raise LangVMError(f"forall needs at least one iteration, got {n}")
    span = ctx.obs_begin("langvm.forall", task_type, n=n)
    tids = yield ctx.initiate(task_type, *args, count=n, cluster=cluster)
    results = yield ctx.wait(tids)
    ctx.obs_end(span, tasks=len(tids))
    return [results[t] for t in tids]


def pardo(ctx, *statements: Tuple[str, Tuple[Any, ...]]):
    """Run heterogeneous statements in parallel; gather ordered results."""
    if not statements:
        raise LangVMError("pardo needs at least one statement")
    span = ctx.obs_begin("langvm.pardo", statements[0][0], n=len(statements))
    all_tids: List[int] = []
    for stmt in statements:
        if len(stmt) == 2:
            task_type, args = stmt
            cluster = None
        elif len(stmt) == 3:
            task_type, args, cluster = stmt
        else:
            raise LangVMError(f"pardo statement must be (type, args[, cluster]): {stmt!r}")
        tids = yield ctx.initiate(
            task_type, *args, count=1, cluster=cluster, index_arg=False
        )
        all_tids.extend(tids)
    results = yield ctx.wait(all_tids)
    ctx.obs_end(span, tasks=len(all_tids))
    return [results[t] for t in all_tids]

