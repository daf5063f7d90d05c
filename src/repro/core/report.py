"""Design-document rendering: the method's paper output."""

from __future__ import annotations

from typing import List

from .layers import LayerStack
from .refinement import check_refinement
from .vm_spec import ComponentKind


def render_stack(stack: LayerStack) -> str:
    """The layered design as a text document."""
    lines: List[str] = [f"FEM-2 design: {stack.name}", "=" * 40]
    for spec in stack.layers_top_down():
        lines.append(f"\nLevel {spec.level}: {spec.name} ({spec.audience})")
        lines.append("-" * 40)
        for kind in ComponentKind:
            items = spec.items(kind)
            if not items:
                continue
            lines.append(f"  {kind.value}:")
            for item in items:
                impl = f" -> {', '.join(item.implemented_by)}" if item.implemented_by else ""
                formal = f" [formal: {item.formal}]" if item.formal else ""
                lines.append(f"    {item.name}{impl}{formal}")
                if item.description:
                    lines.append(f"      {item.description}")
    lines.append("")
    lines.append(check_refinement(stack, check_artifacts=False).summary())
    return "\n".join(lines)

