"""Requirement derivation and tracing.

"Each layer of virtual machine is designed first, starting with the top
layer and considering each layer as defining the requirements that must
be satisfied by the design at the level below."

:func:`derive_requirements` mechanizes that sentence: every item of a
layer generates one requirement on the layer below ("provide an
implementation of X"), and the paper's explicit hardware requirements
(six derived, four imposed) are included as level-4 requirements —
the raw material of the top-down-vs-bottom-up study (E10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .layers import LayerStack


@dataclass(frozen=True)
class Requirement:
    """One obligation a layer places on the layer below it."""

    rid: str
    text: str
    from_level: int     # the layer whose design created the requirement
    on_level: int       # the layer that must satisfy it
    source_item: Optional[str] = None


#: The architecture requirements the paper lists explicitly, all of
#: which land on the hardware layer (level 4).
PAPER_HARDWARE_REQUIREMENTS = (
    "large scale dynamic task initiation",
    "remote access to local data (through windows)",
    "large messages (between tasks, and from a task to the operating system)",
    "irregular communication patterns",
    "large storage requirements; dynamic allocation",
    "fast linear algebra operations",
    # imposed independently:
    "use off-the-shelf hardware/software if possible",
    "provide a way to extend the system to larger configurations easily",
    "provide reconfigurability to isolate faulty hardware components",
    "provide multi-user access",
)


def derive_requirements(stack: LayerStack) -> List[Requirement]:
    """All requirements in the stack, top down."""
    reqs: List[Requirement] = []
    for spec in stack.layers_top_down():
        lower = stack.below(spec)
        if lower is None:
            continue
        for item in spec.items():
            reqs.append(
                Requirement(
                    rid=f"L{spec.level}/{item.name}",
                    text=f"implement {item.name!r} ({item.kind.value}) of "
                         f"the {spec.name} layer",
                    from_level=spec.level,
                    on_level=lower.level,
                    source_item=item.name,
                )
            )
    bottom = stack.layers_top_down()[-1]
    for i, text in enumerate(PAPER_HARDWARE_REQUIREMENTS, 1):
        reqs.append(
            Requirement(
                rid=f"HW/{i}",
                text=text,
                from_level=bottom.level - 1,
                on_level=bottom.level,
            )
        )
    return reqs

