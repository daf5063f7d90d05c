"""Plan analysis: turn the flow IR into a :class:`CompiledPlan`.

:func:`compile_program` recovers the registered task bodies' AST facts
through :mod:`repro.lint.store`, partitions the types with
the P1 analysis (:mod:`repro.lint.flow.compilable`), and packs the
resolved spawn routes and burst chains from the ``fem2-flow/1`` summary
into a plan.

Task types whose source cannot be recovered (REPL/generated bodies) are
TOP by definition and count as blocked — the analysis never guesses
about code it cannot read.
"""

from __future__ import annotations

from ..lint.flow import Blocker, task_blockers
from ..lint.store import program_analysis
from .plan import CompiledPlan, TaskPlan

__all__ = ["compile_program"]


def compile_program(program) -> CompiledPlan:
    """Classify a built program's task graph into a compiled plan.

    *program* is any object with a ``runtime.registry``
    (:class:`~repro.langvm.Fem2Program` in practice).  Pure analysis:
    nothing is installed on the runtime.
    """
    source = tuple(program.runtime.registry.types())
    analysis = program_analysis(program)
    summary = analysis.flow
    analyzed = {t.name: t for t in analysis.tasks}
    task_plans = {}
    for name in source:
        task = analyzed.get(name)
        if task is None:
            task_plans[name] = TaskPlan(
                name, "<unknown>", compilable=False,
                blockers=(Blocker(
                    0, "no_source",
                    "task body source is not recoverable, so the flow "
                    "analysis returns TOP for everything it does",
                ),),
            )
            continue
        blockers = tuple(task_blockers(task))
        task_plans[name] = TaskPlan(
            name, task.file, compilable=not blockers, blockers=blockers,
        )
    return CompiledPlan(
        source=source,
        task_plans=task_plans,
        routes=[dict(r) for r in summary.routes],
        burst_chains=[dict(b) for b in summary.bursts],
    )
