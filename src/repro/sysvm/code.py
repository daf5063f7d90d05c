"""Code blocks, constants blocks, and the per-cluster code store.

Task code must be present in a cluster before a task of that type can
run there; the first initiation routed to a cluster that lacks the code
triggers a ``load_code`` message (the seventh message type) carrying
the code/constants block, after which the type is resident.

A :class:`CodeBlock` wraps the Python generator function that *is* the
task body in this simulation, plus a declared code size in words so the
load traffic is realistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from ..errors import SysVMError


@dataclass(frozen=True)
class CodeBlock:
    """A task type: its body and the size of its code+constants."""

    task_type: str
    body: Callable  # generator function: body(ctx, *args) -> yields effects
    code_words: int = 256
    constants_words: int = 32
    locals_words: int = 64  # declared local-data size for activation records

    @property
    def load_words(self) -> int:
        return self.code_words + self.constants_words

    def __post_init__(self) -> None:
        if not callable(self.body):
            raise SysVMError(f"task type {self.task_type!r}: body is not callable")
        if self.code_words < 0 or self.constants_words < 0 or self.locals_words < 0:
            raise SysVMError(f"task type {self.task_type!r}: negative size")


class CodeRegistry:
    """Machine-wide registry of task types (the program library)."""

    def __init__(self) -> None:
        self._types: Dict[str, CodeBlock] = {}

    def define(self, block: CodeBlock) -> CodeBlock:
        if block.task_type in self._types:
            raise SysVMError(f"task type {block.task_type!r} already defined")
        self._types[block.task_type] = block
        return block

    def get(self, task_type: str) -> CodeBlock:
        try:
            return self._types[task_type]
        except KeyError:
            raise SysVMError(f"unknown task type {task_type!r}") from None

    def __contains__(self, task_type: str) -> bool:
        return task_type in self._types

    def types(self) -> tuple:
        return tuple(self._types)


class ClusterCodeStore:
    """Which task types are loaded into one cluster's memory."""

    def __init__(self, cluster_id: int, memory) -> None:
        self.cluster_id = cluster_id
        self.memory = memory
        self._resident: Set[str] = set()

    def is_resident(self, task_type: str) -> bool:
        return task_type in self._resident

    def load(self, block: CodeBlock) -> None:
        """Install a code/constants block (idempotent)."""
        if block.task_type in self._resident:
            return
        self.memory.reserve(block.load_words, tag="code")
        self._resident.add(block.task_type)

    def snapshot(self) -> Dict:
        return {"resident": sorted(self._resident)}

    def restore(self, state: Dict) -> None:
        """Install residency directly; code words were accounted in the
        shared-memory snapshot, so nothing is re-reserved."""
        self._resident = set(state["resident"])
