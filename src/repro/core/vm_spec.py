"""Virtual-machine specifications: the unit of the FEM-2 design method.

"A virtual machine is composed of (1) various types of data objects,
(2) various operations on those data objects, (3) various sequence
control mechanisms ..., (4) various data control mechanisms ..., and
(5) storage management mechanisms ..."

A :class:`VMSpec` is one layer's specification: a set of
:class:`SpecItem` s, each in one of the five component kinds, each
optionally carrying

* ``implemented_by`` — names of items in the next lower layer that
  realize it (the refinement relation the method checks), and
* ``artifact`` — the dotted Python path of the executable artifact in
  this repository that embodies it, and
* ``formal`` — an H-graph grammar or transform name registered as the
  item's formal model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import DesignError


class ComponentKind(enum.Enum):
    """The five components of a virtual machine."""

    DATA_OBJECT = "data_object"
    OPERATION = "operation"
    SEQUENCE_CONTROL = "sequence_control"
    DATA_CONTROL = "data_control"
    STORAGE_MANAGEMENT = "storage_management"


@dataclass
class SpecItem:
    """One named element of a virtual-machine specification."""

    name: str
    kind: ComponentKind
    description: str = ""
    implemented_by: Tuple[str, ...] = ()
    artifact: Optional[str] = None
    formal: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise DesignError("spec items need a name")
        if not isinstance(self.kind, ComponentKind):
            raise DesignError(f"item {self.name!r}: kind must be a ComponentKind")
        self.implemented_by = tuple(self.implemented_by)


class VMSpec:
    """One layer of the FEM-2 design: a named set of spec items."""

    def __init__(self, name: str, level: int, audience: str = "") -> None:
        if level < 1:
            raise DesignError(f"layer level must be >= 1, got {level}")
        self.name = name
        self.level = level  # 1 = application user ... 4 = hardware
        self.audience = audience
        self._items: Dict[str, SpecItem] = {}

    # -- construction ------------------------------------------------------

    def add(self, item: SpecItem) -> SpecItem:
        if item.name in self._items:
            raise DesignError(f"layer {self.name!r}: duplicate item {item.name!r}")
        self._items[item.name] = item
        return item

    def data_object(self, name: str, description: str = "", **kw) -> SpecItem:
        return self.add(SpecItem(name, ComponentKind.DATA_OBJECT, description, **kw))

    def operation(self, name: str, description: str = "", **kw) -> SpecItem:
        return self.add(SpecItem(name, ComponentKind.OPERATION, description, **kw))

    def sequence_control(self, name: str, description: str = "", **kw) -> SpecItem:
        return self.add(SpecItem(name, ComponentKind.SEQUENCE_CONTROL, description, **kw))

    def data_control(self, name: str, description: str = "", **kw) -> SpecItem:
        return self.add(SpecItem(name, ComponentKind.DATA_CONTROL, description, **kw))

    def storage_management(self, name: str, description: str = "", **kw) -> SpecItem:
        return self.add(SpecItem(name, ComponentKind.STORAGE_MANAGEMENT, description, **kw))

    # -- queries ----------------------------------------------------------------

    def items(self, kind: Optional[ComponentKind] = None) -> List[SpecItem]:
        if kind is None:
            return list(self._items.values())
        return [i for i in self._items.values() if i.kind == kind]

    def get(self, name: str) -> SpecItem:
        try:
            return self._items[name]
        except KeyError:
            raise DesignError(f"layer {self.name!r} has no item {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def completeness(self) -> Dict[str, bool]:
        """Does the layer cover all five VM components? (The method's
        first sanity check: a layer missing a component is underspecified.)"""
        return {k.value: bool(self.items(k)) for k in ComponentKind}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VMSpec({self.name!r}, level={self.level}, items={len(self)})"
