"""Refinement checking: each layer implemented by the one below.

"The ultimate result is to be a detailed design of the hardware and
software, completely specified at each level in terms of its function
and its implementation on the next lower level of virtual machine."

The checker verifies that refinement relation: every item of a layer
must name at least one item in the next lower layer that implements it
(the bottom layer is exempt — it is implemented by physics), all such
references must resolve, and lower-layer items that nothing above uses
are flagged as orphans.  Artifact links are verified by importing them,
which ties the paper design to this repository's executable system.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import RefinementError
from .layers import LayerStack


@dataclass
class RefinementReport:
    """Outcome of checking one stack."""

    dangling: List[Tuple[str, str, str]] = field(default_factory=list)   # (layer, item, missing ref)
    uncovered: List[Tuple[str, str]] = field(default_factory=list)        # (layer, item) with no refs
    orphans: List[Tuple[str, str]] = field(default_factory=list)          # (layer, item) unused below
    missing_artifacts: List[Tuple[str, str, str]] = field(default_factory=list)
    items_checked: int = 0

    @property
    def ok(self) -> bool:
        return not (self.dangling or self.uncovered or self.missing_artifacts)

    def coverage(self) -> float:
        """Fraction of non-bottom items with resolving implementations."""
        bad = len(self.uncovered) + len({(l, i) for l, i, _ in self.dangling})
        if self.items_checked == 0:
            return 1.0
        return 1.0 - bad / self.items_checked

    def summary(self) -> str:
        lines = [
            f"refinement: {self.items_checked} items checked, "
            f"coverage {self.coverage():.0%}",
        ]
        for layer, item in self.uncovered:
            lines.append(f"  UNCOVERED  {layer}.{item} has no implementation below")
        for layer, item, ref in self.dangling:
            lines.append(f"  DANGLING   {layer}.{item} -> {ref!r} does not exist below")
        for layer, item, art in self.missing_artifacts:
            lines.append(f"  NO ARTIFACT {layer}.{item} -> {art!r} not importable")
        for layer, item in self.orphans:
            lines.append(f"  orphan     {layer}.{item} (unused by the layer above)")
        return "\n".join(lines)


def resolve_artifact(path: str) -> bool:
    """True if a dotted path ``pkg.mod.attr`` imports and resolves."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_refinement(stack: LayerStack, check_artifacts: bool = True) -> RefinementReport:
    """Verify the implementation relation across all adjacent layers."""
    report = RefinementReport()
    for spec in stack.layers_top_down():
        lower = stack.below(spec)
        for item in spec.items():
            if check_artifacts and item.artifact is not None:
                if not resolve_artifact(item.artifact):
                    report.missing_artifacts.append((spec.name, item.name, item.artifact))
            if lower is None:
                continue  # the hardware layer rests on physics
            report.items_checked += 1
            if not item.implemented_by:
                report.uncovered.append((spec.name, item.name))
                continue
            for ref in item.implemented_by:
                if ref not in lower:
                    report.dangling.append((spec.name, item.name, ref))
    # orphans: lower-layer items no upper-layer item references
    for spec in stack.layers_top_down():
        lower = stack.below(spec)
        if lower is None:
            continue
        used = {ref for item in spec.items() for ref in item.implemented_by}
        for item in lower.items():
            if item.name not in used:
                report.orphans.append((lower.name, item.name))
    return report


def require_refined(stack: LayerStack) -> RefinementReport:
    """Check and raise :class:`RefinementError` on any hard failure."""
    report = check_refinement(stack)
    if not report.ok:
        raise RefinementError(report.summary())
    return report
