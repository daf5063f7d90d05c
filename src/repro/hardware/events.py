"""Discrete-event engine for the FEM-2 machine simulator.

Simulated time is measured in **cycles** (integers).  All hardware and
virtual-machine activity — PE compute bursts, message hops, kernel
dispatch — is expressed as events on one engine, so measurements of
processing, storage, and communication share a single clock, as the
paper's simulation program requires.

Determinism: events at equal times fire in scheduling order (a
monotonically increasing sequence number breaks ties), so simulations
are exactly reproducible.  The heap holds ``(time, seq, event)``
tuples: ``seq`` is unique, so heap comparisons stay in C and never
reach the :class:`Event`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

#: there is one engine: this tuple and ``MachineConfig.engine`` select nothing
#: and stay only because the frozen host probe imports ENGINES and fem2-ckpt/1
#: config blocks carry the field (both go with ROADMAP item 2)
ENGINES = ("default", "reference")


class Event:
    """A scheduled callback.  ``cancel()`` is O(1); cancelled events are
    skipped when popped."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Event(t={self.time}, {name})"


class EventEngine:
    """A priority-queue discrete-event simulator clocked in cycles.

    One global heap, one event per pop, no batching — simple enough to
    audit by eye.  It is the only engine (DESIGN.md §11).
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self.events_processed = 0
        #: set by :meth:`halt`; run loops drain no further events until
        #: cleared.  Used by checkpointed fault recovery to stop a doomed
        #: run at the fault without unwinding through every caller.
        self.halted = False
        #: optional span tracer (duck-typed; see repro.obs).  Dispatch is
        #: recorded aggregate-only so million-event runs stay O(1) memory.
        self.tracer = None

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run *delay* cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + int(delay)
        seq = self._seq
        ev = Event(time, seq, fn, args)
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, ev))
        return ev

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute cycle count."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        # the hop is on this side: bursts (schedule) outnumber arrivals
        return self.schedule(int(time) - self.now, fn, *args)

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        while self._queue:
            ev = heapq.heappop(self._queue)[2]
            if ev.cancelled:
                continue
            self.now = ev.time
            self.events_processed += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.point(
                    "hw.event",
                    getattr(ev.fn, "__qualname__", "event"),
                    ev.time,
                    aggregate_only=True,
                )
            ev.fn(*ev.args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until* cycles pass, or
        *max_events* fire.  Returns the number of events processed."""
        processed = 0
        while self._queue:
            if self.halted:
                break
            if max_events is not None and processed >= max_events:
                break
            nxt = self._peek()
            if nxt is None:
                break
            if until is not None and nxt.time > until:
                self.now = until
                break
            self.step()
            processed += 1
        if until is not None and self.now < until and not self._queue:
            self.now = until
        return processed

    def _peek(self) -> Optional[Event]:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][2] if queue else None

    def idle(self) -> bool:
        return self._peek() is None

    def halt(self) -> None:
        """Stop every run loop after the current event completes."""
        self.halted = True

    # -- checkpoint/restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Engine scalars only.  Pending events are *not* serialized —
        each layer that scheduled one re-issues it from its own
        descriptors on restore (see :mod:`repro.ckpt`)."""
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "halted": False,  # a restored engine always starts runnable
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Install scalars and clear the queue.  Any events a caller
        scheduled before restore (e.g. a spawn made while rebuilding the
        program) are dropped — the checkpoint's descriptors are the only
        source of pending work."""
        self._queue = []
        self._seq = 0
        self.now = state["now"]
        self.events_processed = state["events_processed"]
        self.halted = state["halted"]
