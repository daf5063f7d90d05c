"""The fast-path simulation engine: a calendar (bucket) event queue.

Profiling the reference :class:`~repro.hardware.events.EventEngine`
shows its cost is not any one operation but per-event *overhead*: a
Python-level ``Event.__lt__`` on every heap compare, a ``step()`` call
and a ``_peek()`` scan per event, and a heap push/pop even when many
events share a cycle (burst completions and kernel work routinely land
on the same cycle).  :class:`FastEventEngine` removes all of it while
preserving the reference engine's observable semantics exactly:

* events live in per-cycle **buckets** (a dict keyed by absolute time
  plus a min-heap of plain ints for the distinct times), so scheduling
  never compares :class:`Event` objects;
* the run loop drains one bucket as a batch — same-cycle events
  (e.g. several PEs' burst completions) dispatch as a run without
  re-entering the scheduler, and events scheduled *at* the current
  cycle by a handler join the tail of the live bucket;
* cancelled events are skipped at dispatch, exactly as the reference
  engine skips them at pop.

Equivalence contract (enforced by ``repro.perf`` and
``tests/test_engine_equivalence.py``): identical dispatch order
(time, then scheduling seq), identical final clock and
``events_processed``, and a :meth:`snapshot` byte-identical to the
reference engine's — checkpoints taken under either engine restore
into the other.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..errors import SimulationError
from .events import Event

__all__ = ["FastEventEngine"]


class FastEventEngine:
    """Calendar-queue drop-in for :class:`~repro.hardware.events.EventEngine`.

    Same public surface — ``schedule``/``schedule_at``/``step``/``run``/
    ``pending``/``idle``/``halt``/``snapshot``/``restore`` — and the
    same deterministic (time, seq) dispatch order; only the internal
    queue representation differs.
    """

    __slots__ = (
        "now",
        "events_processed",
        "halted",
        "tracer",
        "_seq",
        "_buckets",
        "_times",
    )

    #: queue internals are rebuilt by each layer re-issuing its pending
    #: events from descriptors on restore (same contract as the
    #: reference engine); the tracer is re-attached by the Machine.
    _snapshot_exempt = ("tracer", "_buckets", "_times")

    def __init__(self) -> None:
        self.now: int = 0
        self.events_processed = 0
        #: set by :meth:`halt`; run loops drain no further events until
        #: cleared (checkpointed fault recovery stops a doomed run here)
        self.halted = False
        #: optional span tracer (duck-typed; see repro.obs)
        self.tracer = None
        self._seq = 0
        #: absolute cycle -> FIFO of events at that cycle (seq order,
        #: because seq increases monotonically and appends are in
        #: scheduling order)
        self._buckets: Dict[int, Deque[Event]] = {}
        #: min-heap of the distinct cycles present in ``_buckets``
        #: (plain ints — no Python-level comparisons of Event objects)
        self._times: List[int] = []

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run *delay* cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + int(delay)
        ev = Event(time, self._seq, fn, args)
        self._seq += 1
        buckets = self._buckets
        if time in buckets:
            buckets[time].append(ev)
        else:
            buckets[time] = deque((ev,))
            heapq.heappush(self._times, time)
        return ev

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute cycle count."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        # the hop is on this side: bursts (schedule) outnumber arrivals
        return self.schedule(int(time) - self.now, fn, *args)

    # -- dispatch ----------------------------------------------------------

    def _next_bucket(self) -> Optional[Deque[Event]]:
        """The non-empty bucket at the earliest cycle, pruning empties.

        Invariant: a time is on the heap iff it has a bucket entry, so
        pruning always pops both together.
        """
        times = self._times
        buckets = self._buckets
        while times:
            bucket = buckets[times[0]]
            if bucket:
                return bucket
            del buckets[heapq.heappop(times)]
        return None

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        while True:
            bucket = self._next_bucket()
            if bucket is None:
                return False
            t = self._times[0]
            while bucket:
                ev = bucket.popleft()
                if ev.cancelled:
                    continue
                self.now = t
                self.events_processed += 1
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.point(
                        "hw.event",
                        getattr(ev.fn, "__qualname__", "event"),
                        t,
                        aggregate_only=True,
                    )
                ev.fn(*ev.args)
                return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, *until* cycles pass, or
        *max_events* fire.  Returns the number of events processed.

        This is the hot loop: one heap access per *distinct cycle*, then
        a straight drain of that cycle's bucket — burst completions and
        kernel work landing on the same cycle dispatch as a batch, and
        events a handler schedules at the current cycle join the live
        bucket's tail (still seq order).
        """
        processed = 0
        while not self.halted:
            bucket = self._next_bucket()
            if bucket is None:
                break
            if max_events is not None and processed >= max_events:
                break
            t = self._times[0]
            if until is not None and t > until:
                self.now = until
                break
            while bucket:
                ev = bucket.popleft()
                if ev.cancelled:
                    continue
                # clock moves only when a live event dispatches, exactly
                # like the reference (an all-cancelled bucket is a no-op)
                self.now = t
                self.events_processed += 1
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.point(
                        "hw.event",
                        getattr(ev.fn, "__qualname__", "event"),
                        t,
                        aggregate_only=True,
                    )
                ev.fn(*ev.args)
                processed += 1
                if self.halted:
                    break
                if max_events is not None and processed >= max_events:
                    break
        if until is not None and self.now < until and not self._buckets:
            self.now = until
        return processed

    # -- inspection --------------------------------------------------------

    def _peek(self) -> Optional[Event]:
        """Next live event without running it (cancelled fronts pruned)."""
        while True:
            bucket = self._next_bucket()
            if bucket is None:
                return None
            while bucket and bucket[0].cancelled:
                bucket.popleft()
            if bucket:
                return bucket[0]

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(
            1
            for bucket in self._buckets.values()
            for ev in bucket
            if not ev.cancelled
        )

    def idle(self) -> bool:
        return self._peek() is None

    def halt(self) -> None:
        """Stop every run loop after the current event completes."""
        self.halted = True

    def resume_halted(self) -> None:
        self.halted = False

    # -- checkpoint/restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Engine scalars only — identical in form *and content* to the
        reference engine's snapshot, so checkpoint blobs are
        byte-identical across engines.  Pending events are not
        serialized; each layer re-issues its own from descriptors."""
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "halted": False,  # a restored engine always starts runnable
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Install scalars and clear the calendar.  Events scheduled
        before restore are dropped — the checkpoint's descriptors are
        the only source of pending work."""
        self._buckets = {}
        self._times = []
        self._seq = 0
        self.now = state["now"]
        self.events_processed = state["events_processed"]
        self.halted = state["halted"]
