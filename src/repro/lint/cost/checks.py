"""Cost-model lint rules: C1 (unbounded cost) and C2 (window capacity).

C1 fires where the interval model loses all static control over
program cost: an initiation whose replication count is unresolvable
*inside* a loop whose trip count is also unresolvable (or a recursive
sub-generator chain).  Each such site multiplies two free parameters —
no closed-form bound exists, so admission by predicted cost degrades
to the declared-quota fallback.  It is a warning (an error under
``--strict``): dynamic spawning is legal, but the author should either
make one of the two bounds a literal/const or declare quota units
explicitly.

C2 cross-checks a window's declared ``capacity=`` annotation (an
analysis-only keyword on ``ctx.create``/``ctx.zeros``) against the
cost model: the predicted number of activations of task types that
plain-write or accumulate into the window.  Only provably-constant
activation counts are compared — a symbolic bound can not *prove* an
excess, and C2 never guesses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..astutil import TaskInfo
from ..findings import Finding
from ..flow.summary import FlowSummary, summarize
from .model import TaskCost, analyze_costs
from .report import CostReport, build_cost_report


def check_c1(costs: List[TaskCost]) -> List[Finding]:
    findings: List[Finding] = []
    for cost in costs:
        for site in cost.unbounded:
            findings.append(Finding(
                "C1",
                f"statically unbounded cost: {site.reason} — no "
                f"closed-form bound exists; bind the loop or the "
                f"replication count to a literal/const, or declare "
                f"quota units explicitly",
                cost.file, site.line, severity="warning", task=cost.task,
            ))
    return findings


def _window_roots(task: TaskInfo) -> Dict[str, str]:
    """Each window variable's create-site root within one task body.

    ``w = ctx.window(h)`` makes ``w`` an alias of the handle ``h``; the
    flow summary keys its cells by the derived name while the cost
    model's :class:`~repro.lint.cost.model.WindowDecl` carries the
    create-site target, so C2 must resolve through the alias chain."""
    roots: Dict[str, str] = {}
    for ev in task.events:
        if ev.kind != "window":
            continue
        if ev.args:  # a create/zeros site: its targets are roots
            for name in ev.names:
                if name:
                    roots[name] = name
        elif ev.name:  # ctx.window(h): targets alias h's root
            root = roots.get(ev.name, ev.name)
            for name in ev.names:
                if name:
                    roots[name] = root
    return roots


def check_c2(costs: List[TaskCost], report: CostReport,
             tasks: List[TaskInfo], summary: FlowSummary) -> List[Finding]:
    by_name = {t.name: t for t in tasks}
    findings: List[Finding] = []
    for cost in costs:
        info = by_name.get(cost.task)
        roots = _window_roots(info) if info is not None else {}
        for decl in cost.windows:
            if decl.capacity is None or decl.name is None:
                continue
            matched = [
                w for w in summary.windows
                if w["task"] == cost.task
                and roots.get(w["window"], w["window"]) == decl.name
            ]
            if not matched:
                continue
            writers = [n for cell in matched
                       for n in set(cell["writers"])
                       | set(cell["accumulators"]) if n != cost.task]
            fan_in = 0
            proven = True
            for name in sorted(writers):
                act = report.activations.get(name)
                if act is None or not act.bounded:
                    proven = False
                    break
                hi = act.hi.const_value()
                if hi is None:
                    proven = False
                    break
                fan_in += hi
            if proven and fan_in > decl.capacity:
                findings.append(Finding(
                    "C2",
                    f"window {decl.name!r} declares capacity="
                    f"{decl.capacity} but up to {fan_in} writer/"
                    f"accumulator activation(s) are predicted "
                    f"({', '.join(sorted(writers))})",
                    cost.file, decl.line, severity="warning",
                    task=cost.task,
                ))
    return findings


def check_cost(tasks: List[TaskInfo],
               index: Optional[Dict[str, TaskInfo]] = None) -> List[Finding]:
    """Run the cost rules over one resolved task set."""
    costs = analyze_costs(tasks, index)
    report = build_cost_report(costs)
    findings = check_c1(costs)
    findings.extend(check_c2(costs, report, tasks, summarize(tasks, index)))
    return findings
