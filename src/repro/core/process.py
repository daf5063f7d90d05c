"""The design process itself: iteration and design-order studies.

Two instruments:

* :class:`DesignProcess` — runs the paper's iterate-until-it-firms-up
  loop over a stack: every iteration applies an edit, revalidates,
  re-checks refinement, and records the defect counts, so the
  convergence of a design ("several iterations through the four levels
  are made") is a measurable curve.

* :func:`design_order_study` — quantifies the paper's central claim.
  When layers are *frozen* in some order, a cross-layer requirement is
  **late** if the layer it constrains was frozen before the layer that
  generates it (the constraint arrives after the hardware is fixed —
  the "distortion" the introduction describes).  Top-down freezing
  (1, 2, 3, 4) makes every requirement early; bottom-up freezing
  (4, 3, 2, 1) makes every cross-layer requirement late.  The study
  reports late-requirement counts for both orders over a real stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..errors import DesignError
from .layers import LayerStack
from .refinement import check_refinement
from .requirements import Requirement, derive_requirements


@dataclass
class IterationRecord:
    """Metrics of one design iteration."""

    index: int
    description: str
    total_items: int
    defects: int            # dangling + uncovered refinement references
    coverage: float
    valid: bool


class DesignProcess:
    """Iterative refinement of a layer stack with defect tracking."""

    def __init__(self, stack: LayerStack) -> None:
        self.stack = stack
        self.history: List[IterationRecord] = []

    def _measure(self, description: str) -> IterationRecord:
        try:
            self.stack.validate()
            valid = True
        except DesignError:
            valid = False
        # artifact links are a property of the shipped stack, not of an
        # iteration's edit: the loop measures refinement defects only
        report = check_refinement(self.stack, check_artifacts=False)
        defects = len(report.dangling) + len(report.uncovered)
        rec = IterationRecord(
            index=len(self.history),
            description=description,
            total_items=self.stack.total_items(),
            defects=defects,
            coverage=report.coverage(),
            valid=valid,
        )
        self.history.append(rec)
        return rec

    def baseline(self) -> IterationRecord:
        """Record the starting state (iteration 0)."""
        return self._measure("baseline")

    def iterate(self, description: str, edit: Callable[[LayerStack], None]) -> IterationRecord:
        """One design iteration: apply an edit, re-measure."""
        edit(self.stack)
        return self._measure(description)

    def converged(self) -> bool:
        """The design has "firmed up": valid, zero defects."""
        return bool(self.history) and self.history[-1].defects == 0 and self.history[-1].valid

    def defect_curve(self) -> List[int]:
        return [r.defects for r in self.history]


@dataclass
class OrderStudyResult:
    order_name: str
    freeze_order: Tuple[int, ...]
    late: List[Requirement]
    early: List[Requirement]

    @property
    def late_count(self) -> int:
        return len(self.late)

    @property
    def late_fraction(self) -> float:
        total = len(self.late) + len(self.early)
        return len(self.late) / total if total else 0.0


def classify_requirements(
    requirements: Sequence[Requirement], freeze_order: Sequence[int]
) -> Tuple[List[Requirement], List[Requirement]]:
    """Split requirements into (late, early) under a freeze order.

    A requirement from level A on level B is *late* when B freezes
    before A — B's design could not have taken it into account.
    """
    position = {level: i for i, level in enumerate(freeze_order)}
    late, early = [], []
    for r in requirements:
        if r.from_level not in position or r.on_level not in position:
            raise DesignError(f"requirement {r.rid} references unfrozen level")
        (late if position[r.on_level] < position[r.from_level] else early).append(r)
    return late, early


def design_order_study(stack: LayerStack) -> Dict[str, OrderStudyResult]:
    """Compare top-down and bottom-up freeze orders on a real stack."""
    reqs = derive_requirements(stack)
    levels = stack.levels()
    orders = {
        "top_down": tuple(levels),
        "bottom_up": tuple(reversed(levels)),
    }
    out = {}
    for name, order in orders.items():
        late, early = classify_requirements(reqs, order)
        out[name] = OrderStudyResult(name, order, late, early)
    return out
