"""repro.compile — static plan analysis of the task graph.

A pure classification of a program's registered task types against the
flow IR's resolved facts (spawn routes, const-propagated replication
counts, fixed-length burst chains).  Nothing here touches execution —
the engine interprets every task.

Two pieces:

* :func:`compile_program` (:mod:`.analyze`) — build a
  :class:`CompiledPlan` from a program's registered tasks;
* :class:`CompiledPlan` (:mod:`.plan`) — the ``fem2-plan/1`` artifact:
  per-type resolved/blocked split with blocker evidence, plus the
  static routes and burst chains, and ``coverage`` (the fraction of
  types fully resolved).

Its one caller is the host benchmark's ``compile.compile_plan_ms`` /
``compile.coverage`` probe, through
:meth:`Fem2Program.compile_plan <repro.langvm.Fem2Program.compile_plan>`
(DESIGN.md §13 records why the package is kept).
"""

from .analyze import compile_program
from .plan import SCHEMA, CompiledPlan, TaskPlan

__all__ = [
    "SCHEMA",
    "CompiledPlan",
    "TaskPlan",
    "compile_program",
]
