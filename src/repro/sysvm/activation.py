"""Task/procedure activation records.

"Decode and execute message (e.g., an initiate task message may require
the following steps: find code for task, allocate an activation record,
copy parameters from the message queue into activation record, enter
task in ready queue)."

An activation record holds a task's local data; it is allocated on the
cluster heap at initiation and freed at termination — except that
"local data of a task [is] retained over pause/resume", which is why
the record survives pauses and only termination releases it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..errors import SysVMError
from .heap import Heap
from .storage import ACTIVATION_BASE_WORDS, words_of


@dataclass
class ActivationRecord:
    """The run-time representation of one task instance's local state."""

    task_id: int
    task_type: str
    cluster: int
    heap_addr: int
    size_words: int
    params: Tuple[Any, ...] = ()
    locals: Dict[str, Any] = field(default_factory=dict)
    released: bool = False


def record_size(params: Tuple[Any, ...], locals_words: int = 0) -> int:
    """Words for an activation record: base + parameters + declared locals."""
    return ACTIVATION_BASE_WORDS + words_of(tuple(params)) + locals_words


def allocate_record(
    heap: Heap,
    task_id: int,
    task_type: str,
    cluster: int,
    params: Tuple[Any, ...],
    locals_words: int = 0,
) -> ActivationRecord:
    """Allocate an activation record on a cluster heap ("allocate an
    activation record, copy parameters ... into activation record")."""
    size = record_size(params, locals_words)
    addr = heap.alloc(size)
    return ActivationRecord(
        task_id=task_id,
        task_type=task_type,
        cluster=cluster,
        heap_addr=addr,
        size_words=size,
        params=tuple(params),
    )


def release_record(heap: Heap, record: ActivationRecord) -> None:
    if record.released:
        raise SysVMError(f"task {record.task_id}: double release of activation record")
    heap.free(record.heap_addr)
    record.released = True
