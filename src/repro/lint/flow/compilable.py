"""P1 — which task types have every spawn fact statically resolved.

A task type's dispatch shape is known ahead of time only when the flow
analysis resolves every spawn it makes; anything it returns as TOP is
reported.  Exactly two constructs are blocking, and each maps to one
:class:`Blocker`:

* a **dynamic spawn target** — ``ctx.initiate(task_type_var, ...)``
  where the type is a runtime value, so no static route exists for the
  INITIATE messages;
* an **unresolved replication count** — a spawn count that is neither a
  literal nor a single unclobbered local bound to a literal int, so the
  fan-out shape (and the burst-chain length behind it) is TOP.

:func:`check_compilable` renders the blockers as P1 *warnings*: a
blocked task runs exactly like any other, so P1 is advisory and not in
the default lint rule set.  :func:`task_blockers` also feeds the
coverage figure of :func:`repro.compile.compile_program`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..astutil import TaskInfo
from ..findings import Finding

__all__ = ["Blocker", "check_compilable", "task_blockers"]

#: event kinds that (re)bind local names — a count binding is trusted
#: only when every def touching it is a ``const`` with one value
_DEF_KINDS = ("initiate", "subcall", "assign", "assign_empty", "const",
              "augment", "clobber", "window")


@dataclass(frozen=True)
class Blocker:
    """One construct the flow analysis cannot resolve statically."""

    line: int
    kind: str       # "dynamic_target" | "top_count"
    detail: str     # human-readable, names the construct

    def __str__(self) -> str:
        return f"line {self.line}: {self.detail}"


def _const_binding(task: TaskInfo, name: str) -> Tuple[bool, object]:
    """(resolved, value) for a bare-name replication count.

    Resolved iff at least one ``const`` event binds *name* and every
    other def event leaves it alone — a name that is also rebound by an
    assign/clobber/augment (or aliases tids, windows, subcall results)
    may hold anything by the time the spawn runs, so it is TOP.
    """
    values = set()
    for ev in task.events:
        if ev.kind not in _DEF_KINDS or name not in ev.names:
            continue
        if ev.kind != "const" or ev.value is None:
            return False, None
        values.add(ev.value)
    if len(values) == 1:
        return True, values.pop()
    return False, None


def task_blockers(task: TaskInfo) -> List[Blocker]:
    """Every statically unresolved spawn construct in *task*."""
    out: List[Blocker] = []
    for site in task.initiates:
        if site.task_type is None:
            named = (f" ({site.task_type_name!r} is a runtime value)"
                     if site.task_type_name else "")
            out.append(Blocker(
                site.line, "dynamic_target",
                f"dynamic spawn target{named}: no static route for the "
                f"INITIATE messages",
            ))
            continue
        if site.count is not None:
            continue
        if site.count_name is None:
            out.append(Blocker(
                site.line, "top_count",
                f"replication count of {site.task_type!r} spawn is a "
                f"computed expression (TOP)",
            ))
            continue
        resolved, _ = _const_binding(task, site.count_name)
        if not resolved:
            out.append(Blocker(
                site.line, "top_count",
                f"replication count {site.count_name!r} of "
                f"{site.task_type!r} spawn does not resolve to a single "
                f"literal (TOP)",
            ))
    return out


def check_compilable(tasks: List[TaskInfo]) -> List[Finding]:
    """P1 findings: one warning per blocking construct, anchored to it."""
    findings: List[Finding] = []
    for task in tasks:
        for b in task_blockers(task):
            findings.append(Finding(
                "P1",
                f"statically unresolved — {b.detail}",
                task.file, b.line, severity="warning", task=task.name,
            ))
    return findings
