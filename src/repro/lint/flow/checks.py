"""Flow-based program checks: happens-before W2, plus W3 / D2 / X1.

W2  (rewritten) Read of a window some *pending* initiation may
    plain-write.  Pending is tracked per site through local tid
    bindings, so a ``wait`` that provably covers the writing site
    discharges it — a wait-ordered read no longer false-positives —
    and writes are *transitive*: a write performed three spawns down
    still marks the window dirty.

W3  Write-write conflict across the spawn graph, which sibling-local
    W1 cannot see: two concurrently-pending initiations whose
    transitive write sets overlap, a replicated initiation whose
    target writes the shared window only via tasks it spawns, or the
    task's own plain write while a pending initiation may write the
    same window.

D2  A ``wait`` over an id set that is provably empty on every path
    (never initiated into) or whose sites were all already waited for.

X1  A task registered with the program but unreachable from any entry
    task through initiations, sub-generator calls and remote calls (dead
    code, or a chain only reachable from dead tasks).  Suppressed entirely
    while any dynamic (unresolvable) initiation exists in the task set.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..astutil import TaskIndex, TaskInfo
from ..findings import Finding
from .dataflow import Summaries, interpret_task

_W3_MESSAGES = {
    "pair": ("initiated tasks {a!r} and {b!r} may run concurrently and "
             "both plain-write window {window!r} through their spawn "
             "chains — overlapping plain writes race"),
    "replicated": ("all replications of {target!r} plain-write the same "
                   "window {window!r} through tasks they spawn; the "
                   "sibling subtrees race"),
    "own": ("plain-writes window {window!r} while initiated task {b!r} "
            "(which may also plain-write it) has not been waited for"),
}

_D2_MESSAGES = {
    "empty": ("waits on {names} which is provably empty on every path — "
              "no task ids were ever initiated into it"),
    "rewait": ("waits on {names} whose task ids were all already waited "
               "for — a second wait can never be matched"),
}


class _Collector:
    """Dedup-and-collect sink for the interpreter's report callback."""

    def __init__(self, task: TaskInfo) -> None:
        self.task = task
        self._seen: Set[tuple] = set()
        self.findings: List[Finding] = []

    def __call__(self, code: str, line: int, key: tuple,
                 args: Dict) -> None:
        full_key = (code,) + key
        if full_key in self._seen:
            return
        self._seen.add(full_key)
        if code == "W2":
            via = (" (via a task it spawns)" if args.get("transitive") else "")
            message = (
                f"reads window {args['window']!r} while initiated task "
                f"{args['writer']!r} (which plain-writes it{via}) has not "
                f"been waited for"
            )
            severity = "error"
        elif code == "W3":
            message = _W3_MESSAGES[args["case"]].format(**args)
            severity = "error"
        else:  # D2
            names = "/".join(n for n in args["names"] if n)
            message = _D2_MESSAGES[args["case"]].format(names=names or "ids")
            severity = "warning"
        self.findings.append(Finding(
            code, message, self.task.file, line,
            severity=severity, task=self.task.name,
        ))


def check_x1(tasks: List[TaskInfo], index: TaskIndex,
             summaries: Summaries) -> List[Finding]:
    """Registered tasks unreachable from any entry task."""
    edges: Dict[str, Set[str]] = {t.name: set() for t in tasks}
    indegree: Dict[str, int] = {t.name: 0 for t in tasks}
    for t in tasks:
        for item in summaries.of_task(t).spawns:
            if item[0] != "lit":
                # a dynamic initiation can reach anything: no task is
                # provably unreachable, so the check stands down
                return []
            target = index.resolve(item[1], t)
            if target is None or target.name == t.name:
                continue
            if target.name not in edges[t.name]:
                edges[t.name].add(target.name)
                indegree[target.name] += 1
        # a registered task used as a sub-generator, or called at its
        # data (``ctx.call``), is reachable too
        for event in t.events:
            if event.kind in ("subcall", "rpc") and event.name:
                target = index.resolve(event.name, t)
                if target is not None and target.name != t.name \
                        and target.name not in edges[t.name]:
                    edges[t.name].add(target.name)
                    indegree[target.name] += 1

    roots = [name for name, deg in indegree.items() if deg == 0]
    # entries are the drivers: roots that actually spawn something.  A
    # root that neither spawns nor is spawned is an orphan — unless no
    # driver exists at all, in which case every root is its own entry.
    drivers = [name for name in roots if edges.get(name)]
    entries = drivers or roots
    reachable: Set[str] = set()
    stack = list(entries)
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        stack.extend(edges.get(name, ()))

    findings: List[Finding] = []
    if not roots:
        return findings  # pure cycle, no entries at all: D1 owns that case
    for t in tasks:
        if t.name in reachable or not t.registered or t.invoked:
            continue
        findings.append(Finding(
            "X1",
            f"task {t.name!r} is registered but unreachable from any "
            f"entry task through the spawn graph — dead code, or a "
            f"spawn chain only live tasks never enter",
            t.file, t.line, severity="warning", task=t.name,
        ))
    return findings


def check_flow(tasks: List[TaskInfo], index: TaskIndex,
               summaries: Summaries) -> List[Finding]:
    """All flow-engine checks over one resolved task set, its target
    index and its :func:`~.dataflow.summarize_tasks` fixpoint."""
    findings: List[Finding] = []
    for task in tasks:
        sink = _Collector(task)
        interpret_task(task, summaries, sink)   # W2 / W3 / D2
        findings.extend(sink.findings)
    findings.extend(check_x1(tasks, index, summaries))
    return findings
