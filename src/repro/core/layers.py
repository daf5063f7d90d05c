"""The layer stack: four virtual machines, top down.

"FEM-2 is considered to be composed of layers of virtual machine.  Each
layer defines the view of the system available to one class of users."
The stack orders layers from level 1 (application user) to level 4
(hardware) and owns the formal models (H-graph grammars) the layers
reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import DesignError
from ..hgraph import Grammar
from .vm_spec import VMSpec


class LayerStack:
    """An ordered set of VM specifications plus their formal models."""

    def __init__(self, name: str = "fem2") -> None:
        self.name = name
        self._layers: Dict[int, VMSpec] = {}
        self.grammars: Dict[str, Grammar] = {}

    def add_layer(self, spec: VMSpec) -> VMSpec:
        if spec.level in self._layers:
            raise DesignError(f"stack already has a level-{spec.level} layer")
        self._layers[spec.level] = spec
        return spec

    def add_grammar(self, grammar: Grammar) -> Grammar:
        grammar.validate()
        if grammar.name in self.grammars:
            raise DesignError(f"duplicate grammar {grammar.name!r}")
        self.grammars[grammar.name] = grammar
        return grammar

    # -- access -----------------------------------------------------------

    def layer(self, level: int) -> VMSpec:
        try:
            return self._layers[level]
        except KeyError:
            raise DesignError(f"stack has no level-{level} layer") from None

    def layers_top_down(self) -> List[VMSpec]:
        return [self._layers[k] for k in sorted(self._layers)]

    def below(self, spec: VMSpec) -> Optional[VMSpec]:
        """The next lower layer (higher level number), or None at bottom."""
        return self._layers.get(spec.level + 1)

    def levels(self) -> List[int]:
        return sorted(self._layers)

    def total_items(self) -> int:
        return sum(len(s) for s in self._layers.values())

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Structural checks: contiguous levels, complete layers, formal
        references resolving to registered grammars."""
        levels = self.levels()
        if not levels:
            raise DesignError("empty layer stack")
        if levels != list(range(levels[0], levels[0] + len(levels))):
            raise DesignError(f"layer levels not contiguous: {levels}")
        for spec in self._layers.values():
            missing = [k for k, ok in spec.completeness().items() if not ok]
            if missing:
                raise DesignError(
                    f"layer {spec.name!r} is missing components: {missing}"
                )
            for item in spec.items():
                if item.formal is not None and item.formal not in self.grammars:
                    raise DesignError(
                        f"layer {spec.name!r} item {item.name!r} references "
                        f"unregistered formal model {item.formal!r}"
                    )
