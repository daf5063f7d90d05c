"""The compiled plan: what the static plan analysis decided.

A :class:`CompiledPlan` is the ``fem2-plan/1`` artifact produced by
:func:`repro.compile.compile_program`: per registered task type, whether
every spawn target and replication count is statically resolved, with
the blocking constructs recorded as :class:`~repro.lint.flow.Blocker`
values.  The plan also carries the flow IR's resolved artifacts — the
static spawn/message routes and the fixed-length burst chains.  It is
analysis only; nothing executes from it.

Plans record their *source*: the registry's type tuple at analysis
time.  Registering another task makes the plan stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Tuple

from ..lint.flow import Blocker

SCHEMA = "fem2-plan/1"

__all__ = ["SCHEMA", "CompiledPlan", "TaskPlan"]


@dataclass(frozen=True)
class TaskPlan:
    """One task type's analysis outcome."""

    name: str
    file: str
    compilable: bool
    blockers: Tuple[Blocker, ...] = ()

    def to_record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "compilable": self.compilable,
            "blockers": [
                {"line": b.line, "kind": b.kind, "detail": b.detail}
                for b in self.blockers
            ],
        }


@dataclass
class CompiledPlan:
    """The whole program's resolved/blocked split."""

    #: registry type tuple the plan was analyzed from
    source: Tuple[str, ...]
    task_plans: Dict[str, TaskPlan] = field(default_factory=dict)
    #: static spawn routes (``fem2-flow/1`` rows; dst "*" = dynamic)
    routes: List[Dict[str, Any]] = field(default_factory=list)
    #: statically discovered fixed-length burst chains per task
    burst_chains: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def fused_types(self) -> FrozenSet[str]:
        """Task types with every spawn fact statically resolved."""
        return frozenset(
            name for name, tp in self.task_plans.items() if tp.compilable
        )

    @property
    def fallback_types(self) -> FrozenSet[str]:
        return frozenset(
            name for name, tp in self.task_plans.items() if not tp.compilable
        )

    @property
    def coverage(self) -> float:
        """Fraction of task types fully resolved (1.0 = whole program)."""
        if not self.task_plans:
            return 1.0
        return len(self.fused_types) / len(self.task_plans)

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "source": list(self.source),
            "tasks": [
                self.task_plans[n].to_record() for n in sorted(self.task_plans)
            ],
            "routes": [dict(r) for r in self.routes],
            "burst_chains": [dict(b) for b in self.burst_chains],
            "counts": {
                "types": len(self.task_plans),
                "fused": len(self.fused_types),
                "fallback": len(self.fallback_types),
            },
        }
