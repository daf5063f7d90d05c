"""Program checkers: the data-control and task-control rules, statically.

The run-time enforces the paper's data-control rules per access
(:mod:`repro.langvm.ownership`, :mod:`repro.langvm.audit`); these
checkers reject whole *classes* of violation before a single simulated
cycle is spent, by inspecting task-function ASTs:

W1  Replicated initiations (``forall``, ``ctx.initiate(count=n)``) hand
    *identical* arguments to every replication — so a task type that
    plain-writes a window parameter is a guaranteed write-write overlap
    across siblings.  Accumulating writes commute and are exempt,
    exactly mirroring :class:`~repro.langvm.audit.WindowAudit`.
    ``pardo``/``scatter_gather`` siblings sharing one window name at
    plain-written positions are flagged the same way.

W2  Reading a window that an initiated-but-unwaited task plain-writes
    is a read-write race: the writer may run before or after the read.
    Implemented on the :mod:`repro.lint.flow` happens-before engine: a
    ``wait`` that provably covers the writing site discharges it (no
    false positive), and writes performed by tasks the target spawns
    count too.

W3/D2/X1 (see :mod:`repro.lint.flow.checks`): write-write conflicts
    across spawn chains, waits that can never match, and registered
    tasks unreachable from any entry task — the interprocedural rules
    the flow engine makes possible.

D1  An ``initiate`` whose task ids are discarded (or bound to a name
    that is never used again) has no matching ``wait`` — its results
    are unobservable and a waiting ancestor can deadlock.  Also flags
    unconditional initiate cycles between task types (unbounded
    recursive spawning; the conditional/base-case form is legal).

O1  ``ctx.local(h)`` on a handle received as a *parameter* touches raw
    storage the task does not own — the rule "all data owned by a
    single task; non-local access only via windows" demands a window.

All checks are name-conservative: windows passed as derived expressions
(``vec(a, lo, hi)``, ``w.split_rows(n)[i]``) are never tracked, so
partitioned fan-outs — the canonical legal idiom — cannot false-positive.

:func:`analyze_tasks` is the one analysis of a task set: it builds the
target index and the interprocedural summaries once and hands them to
every checker, the flow summary and the cost report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .astutil import InitiateSite, TaskInfo, task_index
from .cost.checks import check_c1
from .cost.model import TaskCost, analyze_costs
from .cost.report import CostReport, build_cost_report
from .findings import Finding
from .flow.checks import check_flow
from .flow.dataflow import summarize_tasks
from .flow.summary import FlowSummary, summarize


# -- W1: overlapping plain writes across parallel siblings --------------------

def _written_shared_args(site: InitiateSite,
                         index: Dict[str, TaskInfo]) -> List[Tuple[str, str]]:
    """(arg name, param name) pairs the target task plain-writes."""
    if site.task_type is None:
        return []
    target = index.get(site.task_type)
    if target is None:
        return []
    out = []
    for pos, arg in enumerate(site.arg_names):
        if arg is None:
            continue
        param = target.writes_param(pos)
        if param is not None:
            out.append((arg, param))
    return out


def check_w1(tasks: List[TaskInfo],
             index: Dict[str, TaskInfo]) -> List[Finding]:
    findings: List[Finding] = []
    for t in tasks:
        for site in t.initiates:
            if not site.replicated:
                continue
            for arg, param in _written_shared_args(site, index):
                findings.append(Finding(
                    "W1",
                    f"all replications of {site.task_type!r} plain-write the "
                    f"same window {arg!r} (parameter {param!r}); overlapping "
                    f"plain writes race — accumulate commutes and is exempt",
                    t.file, site.line, task=t.name,
                ))
        for line, stmts in t.pardo_groups:
            for (type_a, args_a), (type_b, args_b) in combinations(stmts, 2):
                shared = _pair_conflict(type_a, args_a, type_b, args_b, index)
                if shared is not None:
                    findings.append(Finding(
                        "W1",
                        f"parallel statements {type_a!r} and {type_b!r} both "
                        f"plain-write window {shared!r}",
                        t.file, line, task=t.name,
                    ))
    return findings


def _pair_conflict(type_a: Optional[str], args_a: Tuple[Optional[str], ...],
                   type_b: Optional[str], args_b: Tuple[Optional[str], ...],
                   index: Dict[str, TaskInfo]) -> Optional[str]:
    ta = index.get(type_a) if type_a else None
    tb = index.get(type_b) if type_b else None
    if ta is None or tb is None:
        return None
    written_a = {arg for pos, arg in enumerate(args_a)
                 if arg and ta.writes_param(pos)}
    written_b = {arg for pos, arg in enumerate(args_b)
                 if arg and tb.writes_param(pos)}
    shared = written_a & written_b
    return sorted(shared)[0] if shared else None


# -- D1: initiate without wait / unconditional initiate cycles ----------------

def check_d1(tasks: List[TaskInfo],
             index: Dict[str, TaskInfo]) -> List[Finding]:
    findings: List[Finding] = []
    for t in tasks:
        for site in t.initiates:
            if site.waits_inline:
                continue
            label = site.task_type or "<dynamic task type>"
            if site.discarded:
                findings.append(Finding(
                    "D1",
                    f"initiate of {label!r} discards its task ids — no wait "
                    f"can ever match; results are lost",
                    t.file, site.line, task=t.name,
                ))
                continue
            # names bound to the tids must be used somewhere (a wait, a
            # return, a collection that is later waited on, ...)
            used = any(t.name_uses.get(n, 0) > 0 for n in site.assigned)
            if site.assigned and not used:
                findings.append(Finding(
                    "D1",
                    f"initiate of {label!r} binds task ids "
                    f"{'/'.join(site.assigned)!s} that are never used — "
                    f"no matching wait",
                    t.file, site.line, task=t.name,
                ))
    findings.extend(_check_cycles(tasks, index))
    return findings


def _check_cycles(tasks: List[TaskInfo],
                  index: Dict[str, TaskInfo]) -> List[Finding]:
    """Unconditional initiate cycles between task types (A spawns B spawns
    A with no base case: unbounded recursion / guaranteed deadlock)."""
    edges: Dict[str, Set[str]] = {}
    sites: Dict[Tuple[str, str], InitiateSite] = {}
    for t in tasks:
        for site in t.initiates:
            if site.conditional or site.task_type is None:
                continue
            if site.task_type not in index:
                continue
            target = index[site.task_type].name
            edges.setdefault(t.name, set()).add(target)
            sites.setdefault((t.name, target), site)

    findings: List[Finding] = []
    reported: Set[frozenset] = set()

    def dfs(node: str, path: List[str], on_path: Set[str]) -> None:
        for nxt in sorted(edges.get(node, ())):
            if nxt in on_path:
                cycle = path[path.index(nxt):] + [nxt]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    t = index[cycle[0]]
                    site = sites[(cycle[0], cycle[1])]
                    findings.append(Finding(
                        "D1",
                        f"unconditional initiate cycle "
                        f"{' -> '.join(cycle)}: every replication spawns "
                        f"another with no base case (deadlock / unbounded "
                        f"recursion)",
                        t.file, site.line, task=t.name,
                    ))
                continue
            dfs(nxt, path + [nxt], on_path | {nxt})

    for start in sorted(edges):
        dfs(start, [start], {start})
    return findings


# -- O1: raw storage access on a non-owned handle -----------------------------

def check_o1(tasks: List[TaskInfo]) -> List[Finding]:
    findings: List[Finding] = []
    for t in tasks:
        for line, name in t.local_uses:
            if name in t.params and name not in t.created:
                findings.append(Finding(
                    "O1",
                    f"ctx.local({name!r}) on a handle received as a "
                    f"parameter: only the owning task may touch raw storage "
                    f"— non-local data is reachable only through windows",
                    t.file, line, task=t.name,
                ))
    return findings


@dataclass(frozen=True)
class Analysis:
    """Everything the static passes derive from one resolved task set,
    each pass run once: the findings of every program checker, the
    ``fem2-flow/1`` summary, the per-task cost bounds and the
    ``fem2-cost/1`` report composed from them."""

    tasks: Tuple[TaskInfo, ...]
    findings: Tuple[Finding, ...]
    flow: FlowSummary
    costs: Tuple[TaskCost, ...]
    cost: CostReport


def analyze_tasks(tasks: Sequence[TaskInfo]) -> Analysis:
    """Run every pass over one resolved task set: one target index, one
    interprocedural summary fixpoint and one cost interpretation feed
    the checkers, the flow summary and the cost report alike."""
    tasks = list(tasks)
    index = task_index(tasks)
    summaries = summarize_tasks(tasks, index)
    flow = summarize(tasks, index, summaries)
    costs = analyze_costs(tasks, index)
    cost = build_cost_report(costs)
    findings: List[Finding] = []
    findings.extend(check_w1(tasks, index))
    findings.extend(check_flow(tasks, index, summaries))  # W2 / W3 / D2 / X1
    findings.extend(check_d1(tasks, index))
    findings.extend(check_o1(tasks))
    findings.extend(check_c1(costs))
    return Analysis(tuple(tasks), tuple(findings), flow, tuple(costs), cost)
