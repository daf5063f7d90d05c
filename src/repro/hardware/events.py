"""Discrete-event engine for the FEM-2 machine simulator.

Simulated time is measured in **cycles** (integers).  All hardware and
virtual-machine activity — PE compute bursts, message hops, kernel
dispatch — is expressed as events on one engine, so measurements of
processing, storage, and communication share a single clock, as the
paper's simulation program requires.

Determinism: events at equal times fire in scheduling order (a
monotonically increasing sequence number breaks ties), so simulations
are exactly reproducible.  Each heap entry is the :class:`Event`
itself, a ``[time, seq, fn, args]`` list: ``seq`` is unique, so heap
comparisons stay in C and never reach ``fn``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from ..errors import SimulationError

#: there is one engine: this tuple and ``MachineConfig.engine`` select nothing
#: and stay only because the frozen host probe imports ENGINES and fem2-ckpt/1
#: config blocks carry the field (both go with ROADMAP item 2)
ENGINES = ("default", "reference")


class Event(list):
    """A scheduled callback, stored as its own heap entry
    ``[time, seq, fn, args]``.  ``seq`` is unique, so heap comparisons
    stop at it and stay in C.  ``cancel()`` is O(1): it clears ``fn``,
    and the run loop drops cleared entries when it pops them."""

    __slots__ = ()

    time = property(lambda self: self[0])
    seq = property(lambda self: self[1])
    args = property(lambda self: self[3])
    cancelled = property(lambda self: self[2] is None)

    def cancel(self) -> None:
        self[2] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = getattr(self[2], "__name__", repr(self[2]))
        return f"Event(t={self[0]}, {name})"


class EventEngine:
    """A priority-queue discrete-event simulator clocked in cycles.

    One global heap, one event per pop, no batching — simple enough to
    audit by eye.  It is the only engine, and :meth:`run` is its only
    loop (DESIGN.md §11).
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[Event] = []
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
        seq = self._seq
        self._seq = seq + 1
        ev = Event((self.now + int(delay), seq, fn, args))
        heapq.heappush(self._queue, ev)
        return ev

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute cycle count."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        return self.schedule(int(time) - self.now, fn, *args)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None,
            *, before: Optional[int] = None) -> int:
        """Run events until the queue drains, the engine halts or
        *max_events* fire; returns the number of events processed.

        Give at most one bound.  ``until=T`` runs the events at cycles
        <= T and then advances the clock to T unless the run stopped early (halt or *max_events*
        with live events left).  ``before=T`` runs the events at cycles
        < T and leaves the clock at the last event run: the machine
        stops *between* events, which is where pool slices and
        checkpoints cut.  The popped entry is dispatched in place; an
        entry past the bound goes back on the heap unchanged.
        """
        if until is not None:
            if before is not None:
                raise SimulationError("give run() until= or before=, not both")
            before = until + 1
        queue = self._queue
        pop = heapq.heappop
        tracer = self.tracer
        processed = 0
        while queue and not self.halted:
            if max_events is not None and processed >= max_events:
                break
            ev = pop(queue)
            time, _seq, fn, args = ev
            if fn is None:  # cancelled
                continue
            if before is not None and time >= before:
                heapq.heappush(queue, ev)
                if until is not None:
                    self.now = until
                break
            self.now = time
            self.events_processed += 1
            processed += 1
            if tracer is not None:
                tracer.point("hw.event", getattr(fn, "__qualname__", "event"),
                             time, aggregate_only=True)
            fn(*args)
        if until is not None and self.now < until and not queue:
            self.now = until
        return processed

    def next_time(self) -> Optional[int]:
        """The cycle of the next live event, or None when none is left."""
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def idle(self) -> bool:
        return self.next_time() is None

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
        self._queue.clear()  # in place: a run loop may hold the list
        self._seq = 0
        self.now = state["now"]
        self.events_processed = state["events_processed"]
        self.halted = state["halted"]
