"""repro.lint.flow — the interprocedural analyses over one task set.

The program checkers in :mod:`repro.lint.program` started life as
per-task syntactic scans; this subpackage gives them a real middle end.
Its IR is the :class:`~repro.lint.astutil.TaskInfo` of each task
function plus that task's :class:`~repro.lint.astutil.Region` tree,
resolved across the set by :func:`~repro.lint.astutil.task_index`;
:func:`repro.lint.program.analyze_tasks` runs every pass below once.

* :mod:`~repro.lint.flow.dataflow` — a small fixpoint engine: bottom-up
  interprocedural task summaries (transitive write/read sets, spawn
  targets, message kinds) and a structural happens-before interpreter
  that runs each task body's region tree to a fixpoint (reaching
  writes, must-wait-before-read, constant propagation of replication
  counts through locals).
* :mod:`~repro.lint.flow.checks` — W2 rewritten on happens-before plus
  the interprocedural rules W3 (write-write race across a spawn
  chain), D2 (wait on a provably empty or already-waited id set), and
  X1 (registered task unreachable from any entry task).
* :mod:`~repro.lint.flow.summary` — the ``fem2-flow/1`` record: static
  message routes, per-window fan-in/out, fixed-length burst chains.
* :mod:`~repro.lint.flow.soundness` — runs a program under the
  :mod:`repro.obs` tracer and asserts every observed message edge was
  statically predicted.
"""

from __future__ import annotations

from .checks import check_flow, check_x1
from .compilable import (
    Blocker,
    check_compilable,
    task_blockers,
)
from .dataflow import TaskSummary, interpret_task, summarize_tasks
from .soundness import SoundnessResult, check_soundness, observed_edges
from .summary import FLOW_SCHEMA, FlowSummary, summarize

__all__ = [
    "FLOW_SCHEMA",
    "Blocker",
    "FlowSummary",
    "SoundnessResult",
    "TaskSummary",
    "check_compilable",
    "check_flow",
    "task_blockers",
    "check_soundness",
    "check_x1",
    "interpret_task",
    "observed_edges",
    "summarize",
    "summarize_tasks",
]
