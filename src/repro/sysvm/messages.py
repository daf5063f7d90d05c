"""Messages between tasks and the operating system.

The paper enumerates exactly seven message types at the system
programmer's level:

    initiate K replications of a task of type T
    pause and notify parent task
    resume a child task
    terminate and notify parent
    remote procedure call
    remote procedure return
    load code/constants

:class:`MsgKind` reproduces that list one-for-one.  Everything the
numerical analyst's VM does — window traffic, broadcast, task control —
is expressed in these seven kinds (window reads and writes are remote
procedure calls against the owning cluster, as the paper's "remote
procedure call — location determined by location of data visible in a
window" prescribes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import MessageError


class MsgKind(enum.Enum):
    """The seven FEM-2 message types."""

    INITIATE_TASK = "initiate_task"
    PAUSE_NOTIFY = "pause_notify"
    RESUME_TASK = "resume_task"
    TERMINATE_NOTIFY = "terminate_notify"
    REMOTE_CALL = "remote_call"
    REMOTE_RETURN = "remote_return"
    LOAD_CODE = "load_code"

    # members are singletons, so they can hash by identity at C level;
    # Enum.__hash__ is a Python frame on every dict probe of the send path
    __hash__ = object.__hash__


#: Required payload fields per message kind; encode and decode validate these.
REQUIRED_FIELDS: Dict[MsgKind, tuple] = {
    MsgKind.INITIATE_TASK: ("task_type", "count", "args"),
    MsgKind.PAUSE_NOTIFY: ("child",),
    MsgKind.RESUME_TASK: ("child",),
    MsgKind.TERMINATE_NOTIFY: ("child", "result"),
    MsgKind.REMOTE_CALL: ("service", "call_id"),
    MsgKind.REMOTE_RETURN: ("call_id", "result"),
    MsgKind.LOAD_CODE: ("task_type", "code_words"),
}


@dataclass(init=False)
class Message:
    """One message in flight.

    ``src_task``/``dst_task`` are task ids (None when the endpoint is
    the operating system itself); ``src_cluster``/``dst_cluster`` are
    set when the message is routed.  ``size_words`` is filled by the
    codec when the message is formatted.

    The ``__init__`` is written out rather than generated, so a profile
    tells message construction apart from every other dataclass's (all
    generated methods share the key ``<string>:2:__init__``).
    """

    kind: MsgKind
    payload: Dict[str, Any] = field(default_factory=dict)
    src_task: Optional[int] = None
    dst_task: Optional[int] = None
    src_cluster: int = 0
    dst_cluster: int = 0
    size_words: int = 0
    #: 0 until sent: the OS stamps the wire id from its own snapshotted
    #: counter in ``_send``, so ids depend only on the run's history
    #: (never on host-process history)
    msg_id: int = 0

    def __init__(self, kind: MsgKind, payload: Optional[Dict[str, Any]] = None,
                 src_task: Optional[int] = None,
                 dst_task: Optional[int] = None) -> None:
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.src_task = src_task
        self.dst_task = dst_task
        self.src_cluster = 0
        self.dst_cluster = 0
        self.size_words = 0
        self.msg_id = 0

    def validate(self) -> None:
        kind = self.kind
        if type(kind) is not MsgKind:
            raise MessageError(f"unknown message kind {kind!r}")
        payload = self.payload
        for name in REQUIRED_FIELDS[kind]:
            if name not in payload:
                missing = [f for f in REQUIRED_FIELDS[kind] if f not in payload]
                raise MessageError(f"{kind.value} message missing fields {missing}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.kind.value}, #{self.msg_id}, "
            f"{self.src_cluster}->{self.dst_cluster}, {self.size_words}w)"
        )


# -- constructors ------------------------------------------------------------

def initiate_task(task_type: str, count: int, args: tuple, parent: Optional[int]) -> Message:
    """"Initiate K replications of a task of type T"."""
    if count < 1:
        raise MessageError(f"replication count must be >= 1, got {count}")
    return Message(
        MsgKind.INITIATE_TASK,
        {"task_type": task_type, "count": count, "args": args},
        src_task=parent,
    )


def pause_notify(child: int, parent: Optional[int]) -> Message:
    """"Pause and notify parent task"."""
    return Message(MsgKind.PAUSE_NOTIFY, {"child": child}, src_task=child, dst_task=parent)


def resume_task(child: int, parent: Optional[int]) -> Message:
    """"Resume a child task"."""
    return Message(MsgKind.RESUME_TASK, {"child": child}, src_task=parent, dst_task=child)


def terminate_notify(child: int, parent: Optional[int], result: Any) -> Message:
    """"Terminate and notify parent"."""
    return Message(
        MsgKind.TERMINATE_NOTIFY,
        {"child": child, "result": result},
        src_task=child,
        dst_task=parent,
    )


def remote_call(service: str, call_id: int, caller: Optional[int], **kwargs: Any) -> Message:
    """"Remote procedure call" — service plus keyword operands."""
    payload = {"service": service, "call_id": call_id}
    payload.update(kwargs)
    return Message(MsgKind.REMOTE_CALL, payload, src_task=caller)


def remote_return(call_id: int, result: Any, dst_task: Optional[int]) -> Message:
    """"Remote procedure return"."""
    return Message(
        MsgKind.REMOTE_RETURN, {"call_id": call_id, "result": result}, dst_task=dst_task
    )


def load_code(task_type: str, code_words: int) -> Message:
    """"Load code/constants"."""
    return Message(MsgKind.LOAD_CODE, {"task_type": task_type, "code_words": code_words})
