"""Span-based tracing over the simulated cycle clock.

A :class:`Tracer` records **spans** — intervals of simulated time with a
kind, a label, key/value attributes, and an optional parent span — as a
flat event list plus an O(1)-memory aggregate per span kind.  Every
layer of the FEM-2 stack opens spans on the one tracer a machine
carries, so a single solve yields a causally linked profile:

    appvm.job  →  sysvm.task  →  sysvm.msg.*  →  cycles

Timestamps are *simulated* cycles supplied by the caller (the tracer
owns no clock), so tracing is purely observational: it never schedules
events and never charges cycles, and simulation results are identical
with tracing on or off.

``None`` is the one "off" value: every layer holds ``tracer=None`` by
default and guards with ``is not None``, so an untraced run pays one
identity check per site.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Union


class Span:
    """One traced interval: ``[t0, t1]`` in simulated cycles.

    ``t1`` is ``None`` while the span is open.  ``parent_sid`` links the
    causal tree; attribute dicts carry layer-specific detail (task ids,
    clusters, message sizes).
    """

    __slots__ = ("sid", "parent_sid", "kind", "label", "t0", "t1", "attrs")

    def __init__(
        self,
        sid: int,
        kind: str,
        label: str,
        t0: int,
        parent_sid: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sid = sid
        self.parent_sid = parent_sid
        self.kind = kind
        self.label = label
        self.t0 = t0
        self.t1: Optional[int] = None
        self.attrs = attrs or {}

    @property
    def cycles(self) -> int:
        """Elapsed simulated cycles (0 while open or for point spans)."""
        return 0 if self.t1 is None else self.t1 - self.t0

    @property
    def open(self) -> bool:
        return self.t1 is None

    def to_record(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "parent": self.parent_sid,
            "kind": self.kind,
            "label": self.label,
            "t0": self.t0,
            "t1": self.t1,
            "cycles": self.cycles,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.kind}:{self.label} t=[{self.t0},{self.t1}])"


class SpanStats:
    """O(1)-memory aggregate of every span of one kind."""

    __slots__ = ("count", "cycles", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.cycles = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, cycles: int) -> None:
        self.count += 1
        self.cycles += cycles
        if self.min is None or cycles < self.min:
            self.min = cycles
        if self.max is None or cycles > self.max:
            self.max = cycles

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "cycles": self.cycles,
            "min": self.min or 0,
            "max": self.max or 0,
            "mean": self.cycles / self.count if self.count else 0.0,
        }


ParentLike = Union["Span", int, None]


def _parent_sid(parent: ParentLike) -> Optional[int]:
    if parent is None:
        return None
    return parent.sid if isinstance(parent, Span) else int(parent)


class Tracer:
    """Records spans into a bounded flat list + exact per-kind aggregates.

    ``capacity`` bounds the retained span list for long simulations
    (further spans are aggregated but not listed; ``dropped`` counts
    them).  Aggregates are always exact regardless of drops.
    """

    def __init__(self, capacity: int = 250_000) -> None:
        self.capacity = capacity
        self._spans: List[Span] = []
        self._stats: Dict[str, SpanStats] = {}
        self._sid = itertools.count(1)
        self.dropped = 0
        self.recorded = 0

    # -- recording ---------------------------------------------------------

    def begin(
        self,
        kind: str,
        label: str,
        now: int,
        parent: ParentLike = None,
        **attrs: Any,
    ) -> Span:
        """Open a span at simulated time *now*; returns it for :meth:`end`."""
        span = Span(next(self._sid), kind, label, int(now), _parent_sid(parent), attrs)
        self._keep(span)
        return span

    def end(self, span: Optional[Span], now: int, **attrs: Any) -> Optional[Span]:
        """Close *span* at *now*, folding it into its kind's aggregate."""
        if span is None:
            return None
        span.t1 = int(now)
        if attrs:
            span.attrs.update(attrs)
        self._observe(span.kind, span.cycles)
        return span

    def point(
        self,
        kind: str,
        label: str,
        now: int,
        parent: ParentLike = None,
        aggregate_only: bool = False,
        **attrs: Any,
    ) -> Optional[Span]:
        """A zero-duration span (an instant event).

        ``aggregate_only=True`` skips the flat list entirely — used for
        per-event hardware counts that would flood it.
        """
        self._observe(kind, 0)
        if aggregate_only:
            return None
        span = Span(next(self._sid), kind, label, int(now), _parent_sid(parent), attrs)
        span.t1 = span.t0
        self._keep(span)
        return span

    def _keep(self, span: Span) -> None:
        self.recorded += 1
        if len(self._spans) < self.capacity:
            self._spans.append(span)
        else:
            self.dropped += 1

    def _observe(self, kind: str, cycles: int) -> None:
        stats = self._stats.get(kind)
        if stats is None:
            stats = self._stats[kind] = SpanStats()
        stats.observe(cycles)

    # -- inspection --------------------------------------------------------

    def spans(self, kind: Optional[str] = None) -> List[Span]:
        if kind is None:
            return list(self._spans)
        return [s for s in self._spans if s.kind == kind]

    def stats(self) -> Dict[str, SpanStats]:
        return dict(self._stats)

    def kind_summary(self) -> Dict[str, Dict[str, float]]:
        """``{kind: {count, cycles, min, max, mean}}`` — exact, O(kinds)."""
        return {k: s.summary() for k, s in sorted(self._stats.items())}

    def children_of(self, sid: Optional[int]) -> List[Span]:
        return [s for s in self._spans if s.parent_sid == sid]

    def roots(self) -> List[Span]:
        """Spans whose parent is absent from the retained list."""
        present = {s.sid for s in self._spans}
        return [s for s in self._spans if s.parent_sid not in present]

    def clear(self) -> None:
        self._spans.clear()
        self._stats.clear()
        self.dropped = 0
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._spans)
