"""repro.lint.flow — the Task Interaction Graph and its analyses.

The program checkers in :mod:`repro.lint.program` started life as
per-task syntactic scans; this subpackage gives them a real middle end:

* :mod:`~repro.lint.flow.ir` — the Task Interaction Graph: nodes for
  task types, initiate sites, and window accesses; edges for spawn,
  wait, and plain/accumulate reads and writes.
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

from .checks import check_d2, check_flow, check_w2_flow, check_w3, check_x1
from .compilable import (
    Blocker,
    check_compilable,
    task_blockers,
)
from .dataflow import TaskSummary, interpret_task, summarize_tasks
from .ir import Edge, Node, TaskGraph, build_graph, task_index
from .soundness import SoundnessResult, check_soundness, observed_edges
from .summary import FLOW_SCHEMA, FlowSummary, summarize

__all__ = [
    "FLOW_SCHEMA",
    "Blocker",
    "Edge",
    "FlowSummary",
    "Node",
    "SoundnessResult",
    "TaskGraph",
    "TaskSummary",
    "build_graph",
    "check_compilable",
    "check_d2",
    "check_flow",
    "task_blockers",
    "check_soundness",
    "check_w2_flow",
    "check_w3",
    "check_x1",
    "interpret_task",
    "observed_edges",
    "summarize",
    "summarize_tasks",
    "task_index",
]
