"""Clusters: processing elements organized around a shared memory.

"An architecture is evolving that is configured as clusters of
processing elements organized around a shared memory. ... Within each
cluster, one PE runs the operating system kernel, which fields incoming
messages and assigns available PE's to process them.  Messages arriving
in the input queue of any cluster can be processed by any available PE."

The hardware cluster owns the PEs, the shared memory, and the input
queue.  *Policy* — which PE serves which message — belongs to the
system programmer's VM (:mod:`repro.sysvm.kernel`), which installs an
``on_message`` hook here.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..errors import ConfigurationError, FaultError
from .events import EventEngine
from .memory import SharedMemory
from .metrics import Cells, MetricsRegistry
from .pe import PEState, ProcessingElement


class Cluster:
    """One cluster: kernel PE + worker PEs + shared memory + input queue."""

    def __init__(
        self,
        engine: EventEngine,
        metrics: MetricsRegistry,
        cluster_id: int,
        n_pes: int,
        memory_words: int,
    ) -> None:
        if n_pes < 2:
            raise ConfigurationError(
                f"cluster needs >= 2 PEs (one kernel, one worker), got {n_pes}"
            )
        self.engine = engine
        self.metrics = metrics
        self.cluster_id = cluster_id
        self.pes: List[ProcessingElement] = [
            ProcessingElement(engine, metrics, cluster_id, i, is_kernel=(i == 0))
            for i in range(n_pes)
        ]
        #: PE 0 runs the kernel, the rest run tasks; fixed for the
        #: cluster's life (restore() updates the PEs in place)
        self.kernel_pe: ProcessingElement = self.pes[0]
        self.worker_pes: List[ProcessingElement] = self.pes[1:]
        self.memory = SharedMemory(metrics, cluster_id, memory_words)
        self.input_queue: Deque[Any] = deque()
        self.queue_high_water = 0
        self._queue_depth = Cells(metrics, {}, hists=(f"queue.cluster{cluster_id}",))
        #: installed by the sysvm kernel; called after a message is enqueued
        self.on_message: Optional[Callable[["Cluster"], None]] = None
        self.failed = False

    def enqueue(self, message: Any) -> None:
        """A message arrives in the cluster's input queue."""
        if self.failed:
            raise FaultError(f"cluster {self.cluster_id} is down")
        self.input_queue.append(message)
        qlen = len(self.input_queue)
        if qlen > self.queue_high_water:
            self.queue_high_water = qlen
        cells = self._queue_depth
        if cells.version != self.metrics.version:
            cells.fetch()
        cells.items[0].observe(qlen)
        if self.on_message is not None:
            self.on_message(self)

    def fail(self) -> None:
        """Take the whole cluster down: all PEs fault, queue is dropped."""
        self.failed = True
        for pe in self.pes:
            if pe.state is not PEState.FAULTY:
                pe.fail()
        self.metrics.incr("fault.cluster_failures")
        self.metrics.incr("fault.messages_lost", len(self.input_queue))
        self.input_queue.clear()

    def snapshot(self) -> dict:
        return {
            "failed": self.failed,
            "queue_high_water": self.queue_high_water,
            "input_queue": list(self.input_queue),
            "pes": [pe.snapshot() for pe in self.pes],
            "memory": self.memory.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Install queue/PE/memory state.  The ``on_message`` hook is
        left alone — the sysvm kernel installed it at construction and
        re-arms itself from its own snapshot."""
        self.failed = state["failed"]
        self.queue_high_water = state["queue_high_water"]
        self.input_queue = deque(state["input_queue"])
        for pe, pe_state in zip(self.pes, state["pes"]):
            pe.restore(pe_state)
        self.memory.restore(state["memory"])

    def utilization(self) -> float:
        """Mean worker-PE utilization over elapsed simulated time."""
        workers = self.worker_pes
        if not workers:
            return 0.0
        return sum(pe.utilization() for pe in workers) / len(workers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster({self.cluster_id}, pes={len(self.pes)}, "
            f"queue={len(self.input_queue)})"
        )
