"""Task control blocks, ready queues, and dispatch policies.

"Messages arriving in the input queue of any cluster can be processed
by any available PE" — the default :class:`AnyPEDispatch` implements
exactly that.  :class:`StaticDispatch` pins each task to one worker PE,
the policy the paper's architecture argues *against*; experiment E6
compares the two under skewed load.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..errors import SchedulingError
from ..hardware.cluster import Cluster
from ..hardware.pe import PEState, ProcessingElement
from .activation import ActivationRecord


class TaskState(enum.Enum):
    READY = "ready"        # in a ready queue, waiting for a PE
    RUNNING = "running"    # assigned to a PE
    BLOCKED = "blocked"    # waiting for a message/children/mailbox
    PAUSED = "paused"      # paused itself; waiting for parent's resume
    DONE = "done"
    FAILED = "failed"

    # identity hash at C level (see MsgKind): transition() probes with these
    __hash__ = object.__hash__


#: Legal state transitions; the runtime asserts every move against this.
_TRANSITIONS: Dict[TaskState, Set[TaskState]] = {
    TaskState.READY: {TaskState.RUNNING},
    TaskState.RUNNING: {
        TaskState.BLOCKED,
        TaskState.PAUSED,
        TaskState.DONE,
        TaskState.FAILED,
        TaskState.READY,  # preemption point (not used by default policies)
    },
    TaskState.BLOCKED: {TaskState.READY, TaskState.FAILED},
    TaskState.PAUSED: {TaskState.READY, TaskState.FAILED},
    TaskState.DONE: set(),
    TaskState.FAILED: set(),
}


@dataclass
class TCB:
    """Task control block: the run-time representation of a task."""

    tid: int
    task_type: str
    cluster: int
    parent: Optional[int]
    coro: Any
    record: ActivationRecord
    state: TaskState = TaskState.READY
    pe: Optional[ProcessingElement] = None
    result: Any = None
    error: Optional[BaseException] = None
    retain_data: bool = False
    #: why the task is blocked: ("children", frozenset), ("rpc", call_id),
    #: ("receive",), ("pause_of", tid) — or None
    waiting: Optional[Tuple] = None
    #: value to feed the coroutine at next dispatch
    wake_value: Any = None
    #: results of terminated children not yet consumed by a WaitChildren
    child_results: Dict[int, Any] = field(default_factory=dict)
    children: Set[int] = field(default_factory=set)
    #: child tids whose pause notification arrived, not yet consumed
    pause_events: Set[int] = field(default_factory=set)
    #: broadcast values awaiting a Receive
    mailbox: Deque[Any] = field(default_factory=deque)
    #: set when this task body is a remote procedure: (cluster, task, call_id)
    rpc_reply_to: Optional[Tuple[int, Optional[int], int]] = None
    #: a resume message arrived before the pause did (message race)
    pending_resume: bool = False
    created_at: int = 0
    first_run_at: Optional[int] = None
    finished_at: Optional[int] = None
    #: pending continuation descriptor while a PE burst is in flight:
    #: ("step", value) | ("send_rpc", dst, msg, call_id) |
    #: ("send_initiate", messages, tids) | ("send_pause",) |
    #: ("send_bcast", targets, value) | ("send_resume", home, msg)
    cont: Optional[Tuple] = None
    #: deterministic-replay journal: every ("send", value)/("throw", exc)
    #: fed to the coroutine, recorded only when the runtime journals
    journal: List[Tuple[str, Any]] = field(default_factory=list)

    def transition(self, new: TaskState) -> None:
        if new not in _TRANSITIONS[self.state]:
            raise SchedulingError(
                f"task {self.tid}: illegal transition {self.state.value} -> {new.value}"
            )
        self.state = new

    def is_live(self) -> bool:
        return self.state not in (TaskState.DONE, TaskState.FAILED)

    # the coroutine is recreated from the registered body + journal
    # replay; the PE binding and activation record are rebuilt by the
    # runtime (which owns the PE objects and the heap)
    _snapshot_exempt = ("coro", "pe", "record")

    def snapshot(self) -> Dict[str, Any]:
        """Every TCB field as checkpoint data (lint rule S1 audits this list
        against the dataclass fields above)."""
        rec = self.record
        return {
            "tid": self.tid,
            "task_type": self.task_type,
            "cluster": self.cluster,
            "parent": self.parent,
            "state": self.state.value,
            "pe_index": self.pe.index if self.pe is not None else None,
            "result": self.result,
            "error": self.error,
            "retain_data": self.retain_data,
            "waiting": self.waiting,
            "wake_value": self.wake_value,
            "child_results": dict(self.child_results),
            "children": sorted(self.children),
            "pause_events": sorted(self.pause_events),
            "mailbox": list(self.mailbox),
            "rpc_reply_to": self.rpc_reply_to,
            "pending_resume": self.pending_resume,
            "created_at": self.created_at,
            "first_run_at": self.first_run_at,
            "finished_at": self.finished_at,
            "cont": self.cont,
            "journal": list(self.journal),
            "record": {
                "task_id": rec.task_id,
                "task_type": rec.task_type,
                "cluster": rec.cluster,
                "heap_addr": rec.heap_addr,
                "size_words": rec.size_words,
                "params": rec.params,
                "locals": dict(rec.locals),
                "released": rec.released,
            },
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Install plain fields; ``coro``/``pe``/``record`` are rebuilt
        by :meth:`Runtime.restore` (journal replay / PE lookup / heap)."""
        self.coro = None
        self.state = TaskState(state["state"])
        self.result = state["result"]
        self.error = state["error"]
        self.retain_data = state["retain_data"]
        self.waiting = state["waiting"]
        self.wake_value = state["wake_value"]
        self.child_results = dict(state["child_results"])
        self.children = set(state["children"])
        self.pause_events = set(state["pause_events"])
        self.mailbox = deque(state["mailbox"])
        self.rpc_reply_to = state["rpc_reply_to"]
        self.pending_resume = state["pending_resume"]
        self.created_at = state["created_at"]
        self.first_run_at = state["first_run_at"]
        self.finished_at = state["finished_at"]
        self.cont = state["cont"]
        self.journal = list(state["journal"])


class DispatchPolicy:
    """Chooses a PE for a ready task within a cluster."""

    name = "abstract"


class AnyPEDispatch(DispatchPolicy):
    """Any available worker PE serves any ready task (the FEM-2 design)."""

    name = "any_pe"

    def pe_for(self, cluster: Cluster, tcb: TCB) -> Optional[ProcessingElement]:
        for pe in cluster.worker_pes:
            if pe.state is PEState.IDLE:
                return pe
        return None


class StaticDispatch(DispatchPolicy):
    """Each task is pinned to worker ``tid mod n_workers`` (the baseline
    the paper's any-PE rule improves on)."""

    name = "static"

    def pe_for(self, cluster: Cluster, tcb: TCB) -> Optional[ProcessingElement]:
        workers = cluster.worker_pes
        if not workers:
            return None
        pe = workers[tcb.tid % len(workers)]
        return pe if pe.is_available() else None


class ReadyQueue:
    """Per-cluster FIFO of ready tasks, with policy-aware selection.

    ``pick`` returns the first queued task the policy can place *now*,
    which lets an any-PE policy drain the queue in order while a static
    policy skips tasks whose pinned PE is busy.
    """

    def __init__(self, cluster_id: int) -> None:
        self.cluster_id = cluster_id
        self._queue: Deque[TCB] = deque()

    def push(self, tcb: TCB) -> None:
        if tcb.state is not TaskState.READY:
            raise SchedulingError(
                f"task {tcb.tid} pushed to ready queue in state {tcb.state.value}"
            )
        self._queue.append(tcb)

    def pick(
        self, cluster: Cluster, policy: DispatchPolicy
    ) -> Optional[Tuple[TCB, ProcessingElement]]:
        for i, tcb in enumerate(self._queue):
            pe = policy.pe_for(cluster, tcb)
            if pe is not None:
                del self._queue[i]
                return tcb, pe
        return None

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self):
        return iter(self._queue)
