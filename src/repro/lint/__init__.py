"""repro.lint — static race, deadlock, and architecture analyzer.

The run-time layers enforce the FEM-2 data-control rules per access;
this package rejects whole classes of violation *before* a single
simulated cycle is spent.  Three entry points:

* :func:`lint_program` — inspect a built :class:`~repro.langvm.Fem2Program`'s
  registered task generators (used by the ``JobSpec.lint`` admission gate);
  with :func:`flow_summary` and :func:`cost_report` a view of one
  per-process analysis of the task set (:mod:`repro.lint.store`),
* :func:`lint_paths` / :func:`lint_source` — lint files or source text,
* ``python -m repro.lint [paths...]`` — the CLI (repo architecture
  included when a ``repro`` package root is among the paths).

Program findings carry stable codes (W1 write-write race, W2 unwaited
read-write race, D1 missing wait / initiate cycle, O1 raw storage on a
non-owned handle); architecture findings use A1 (layering), A2 (span
balance), A3 (public-API drift), S1 (snapshot/restore completeness for
the :mod:`repro.ckpt` spine).  Every finding has file:line and a
severity, and the report exports to the same plain-record form as the
:mod:`repro.obs` spine.
"""

from __future__ import annotations

from typing import List

from . import store
from .api import check_package_api, check_public_api
from .astutil import TaskInfo, analyze_task, collect_tasks
from .cache import LintCache
from .cli import lint_files, lint_paths, lint_source, main
from .cost import (
    COST_SCHEMA,
    CalibrationResult,
    CostReport,
    TaskCost,
    analyze_costs,
    build_cost_report,
    calibrate,
    check_cost,
    machine_env,
)
from .findings import CODES, SCHEMA, Finding, LintReport
from .flow import (
    FLOW_SCHEMA,
    Blocker,
    FlowSummary,
    SoundnessResult,
    TaskGraph,
    build_graph,
    check_compilable,
    check_d2,
    check_soundness,
    check_w3,
    check_x1,
    observed_edges,
    summarize,
    task_blockers,
)
from .layering import ALLOWED, check_layering, layering_violations
from .program import check_d1, check_o1, check_tasks, check_w1, check_w2
from .snapshots import check_snapshots
from .spans import check_span_balance


def registry_tasks(program) -> List[TaskInfo]:
    """A :class:`TaskInfo` per task type registered on a program whose
    source :mod:`inspect` can recover (see :mod:`repro.lint.store`).
    The infos are shared with the store: read, do not modify."""
    return list(store.program_analysis(program).tasks)


def lint_program(program) -> LintReport:
    """Lint every task type registered on a built program (the
    :class:`~repro.appvm.JobSpec` admission gate's entry point)."""
    analysis = store.program_analysis(program)
    files = {t.file for t in analysis.tasks}
    report = LintReport(files_checked=len(files),
                        tasks_checked=len(analysis.tasks))
    report.extend(analysis.findings)
    return report


def flow_summary(program) -> FlowSummary:
    """The ``fem2-flow/1`` summary for a built program's task set.
    The summary is shared with the store and with every other caller in
    the process: read, do not modify (``to_record()`` is a copy)."""
    return store.program_analysis(program).flow


def cost_report(program) -> CostReport:
    """The ``fem2-cost/1`` report for a built program's task set (the
    :class:`~repro.appvm.ServicePool` admission gate's cost source).
    The report is shared with the store, and so with every later
    admission in the process: read, do not modify (``to_record()`` is a
    copy)."""
    return store.program_analysis(program).cost


__all__ = [
    "ALLOWED",
    "CODES",
    "COST_SCHEMA",
    "FLOW_SCHEMA",
    "SCHEMA",
    "Blocker",
    "CalibrationResult",
    "CostReport",
    "Finding",
    "FlowSummary",
    "LintCache",
    "LintReport",
    "SoundnessResult",
    "TaskCost",
    "TaskGraph",
    "TaskInfo",
    "analyze_costs",
    "analyze_task",
    "build_cost_report",
    "build_graph",
    "calibrate",
    "check_compilable",
    "check_cost",
    "check_d1",
    "check_d2",
    "check_layering",
    "check_o1",
    "check_package_api",
    "check_public_api",
    "check_snapshots",
    "check_soundness",
    "check_span_balance",
    "check_tasks",
    "check_w1",
    "check_w2",
    "check_w3",
    "check_x1",
    "collect_tasks",
    "cost_report",
    "flow_summary",
    "layering_violations",
    "lint_files",
    "lint_paths",
    "lint_program",
    "lint_source",
    "machine_env",
    "main",
    "observed_edges",
    "registry_tasks",
    "store",
    "summarize",
    "task_blockers",
]
