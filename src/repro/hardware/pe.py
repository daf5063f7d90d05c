"""Processing elements.

Each cluster contains identical PEs; by convention PE 0 of every
cluster runs the operating-system kernel ("Within each cluster, one PE
runs the operating system kernel, which fields incoming messages and
assigns available PE's to process them").

A PE executes *compute bursts*: the caller asks for ``cycles`` of work
and a completion callback.  The PE is busy until the burst ends; the
scheduler above (``repro.sysvm``) is responsible for never handing work
to a busy PE.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

from ..errors import FaultError, SchedulingError
from .events import EventEngine
from .metrics import BusyTracker, Cells, MetricsRegistry


class PEState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    FAULTY = "faulty"


class ProcessingElement:
    """One microprocessor of the FEM-2 array."""

    def __init__(
        self,
        engine: EventEngine,
        metrics: MetricsRegistry,
        cluster_id: int,
        index: int,
        is_kernel: bool = False,
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.cluster_id = cluster_id
        self.index = index
        self.is_kernel = is_kernel
        self.state = PEState.IDLE
        self.busy = BusyTracker()
        self.cycles_executed = 0
        self._burst_event = None
        # two groups: proc.bursts registers when the first burst starts,
        # proc.cycles when it ends
        self._bursts = Cells(metrics, {"proc.bursts": 0.0})
        self._cycles = Cells(metrics, {"proc.cycles": 0.0})

    @property
    def name(self) -> str:
        return f"pe{self.cluster_id}.{self.index}"

    def execute(
        self, cycles: int, on_done: Callable[..., None], *args: Any
    ) -> None:
        """Run a compute burst of *cycles*; call ``on_done(*args)`` when
        finished.

        Zero-cycle bursts complete via the event queue too, preserving
        deterministic ordering.  Extra *args* ride on the completion
        event itself, so hot callers (kernel dispatch, runtime bursts)
        pass bound methods plus their argument instead of building a
        closure per burst.
        """
        if self.state is PEState.FAULTY:
            raise FaultError(f"{self.name} is faulty")
        if self.state is PEState.BUSY:
            raise SchedulingError(f"{self.name} is already busy")
        if cycles < 0:
            raise SchedulingError(f"negative burst length {cycles}")
        self.state = PEState.BUSY
        busy = self.busy  # BusyTracker.begin, in line
        if busy.busy_since is not None:
            raise ValueError("resource already busy")
        busy.busy_since = self.engine.now
        cells = self._bursts
        if cells.version != self.metrics.version:
            cells.fetch()
        cells.items[0].value += 1
        self._burst_event = self.engine.schedule(
            cycles, self._finish, cycles, on_done, *args
        )

    def _finish(self, cycles: int, on_done: Callable[..., None], *args: Any) -> None:
        if self.state is PEState.FAULTY:
            return  # burst was lost to a fault
        self.cycles_executed += cycles
        cells = self._cycles
        if cells.version != self.metrics.version:
            cells.fetch()
        cells.items[0].value += cycles
        busy = self.busy  # BusyTracker.end, in line
        if busy.busy_since is None:
            raise ValueError("resource not busy")
        busy.busy_cycles += self.engine.now - busy.busy_since
        busy.busy_since = None
        self.state = PEState.IDLE
        self._burst_event = None
        on_done(*args)

    def resume_burst(self, total_cycles: int, end_time: int,
                     on_done: Callable[..., None], *args: Any) -> None:
        """Re-issue the completion event of a burst restored mid-flight.

        The PE's BUSY state and busy-since cycle were installed by
        :meth:`restore`; this only schedules ``_finish`` at the burst's
        original end time.  ``proc.bursts`` is *not* incremented — the
        burst was counted when it originally began.
        """
        if self.state is not PEState.BUSY:
            raise SchedulingError(
                f"{self.name}: resume_burst on a PE restored as {self.state.value}"
            )
        self._burst_event = self.engine.schedule_at(
            end_time, self._finish, total_cycles, on_done, *args
        )

    def snapshot(self) -> dict:
        """State scalars.  The in-flight burst event is captured by the
        layer that issued it (runtime/kernel), which re-issues it via
        :meth:`resume_burst` on restore."""
        return {
            "state": self.state.value,
            "cycles_executed": self.cycles_executed,
            "busy": self.busy.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self.state = PEState(state["state"])
        self.cycles_executed = state["cycles_executed"]
        self.busy.restore(state["busy"])
        self._burst_event = None

    def fail(self) -> None:
        """Mark the PE faulty; any in-flight burst is lost."""
        if self.state is PEState.BUSY:
            self.busy.end(self.engine.now)
            if self._burst_event is not None:
                self._burst_event.cancel()
                self._burst_event = None
        self.state = PEState.FAULTY
        self.metrics.incr("fault.pe_failures")

    def is_available(self) -> bool:
        return self.state is PEState.IDLE

    def utilization(self) -> float:
        return self.busy.utilization(self.engine.now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PE({self.name}, {self.state.value})"
