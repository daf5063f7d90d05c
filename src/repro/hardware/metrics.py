"""Measurement infrastructure: the counters the paper says matter.

"Simulations to measure the storage, processing, and communication
patterns in typical FEM-2 applications ... are of particular
importance."  Every simulator component reports through a shared
:class:`MetricsRegistry`, so one object answers the three questions:
how many cycles of processing, how many words of storage, how many
messages/words of communication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


class Histogram:
    """Streaming summary of a distribution: count/sum/min/max/mean/variance.

    Uses Welford's online algorithm; no samples are retained, so traces
    of millions of messages cost O(1) memory.
    """

    __slots__ = ("count", "total", "min", "max", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Exact internal state (``_m2`` included, so restore is
        bit-identical — recomputing it from ``std`` would lose bits)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self._mean,
            "m2": self._m2,
        }

    def restore(self, state: Dict[str, float]) -> None:
        self.count = state["count"]
        self.total = state["total"]
        self.min = state["min"]
        self.max = state["max"]
        self._mean = state["mean"]
        self._m2 = state["m2"]

@dataclass
class BusyTracker:
    """Tracks utilization of a resource (a PE) over simulated time."""

    busy_cycles: int = 0
    #: start of the current busy interval (public: a PE opens it in line
    #: on its burst path, to save a frame a burst)
    busy_since: Optional[int] = None

    def end(self, now: int) -> None:
        if self.busy_since is None:
            raise ValueError("resource not busy")
        self.busy_cycles += now - self.busy_since
        self.busy_since = None

    def snapshot(self) -> Dict[str, Optional[int]]:
        return {"busy_cycles": self.busy_cycles, "busy_since": self.busy_since}

    def restore(self, state: Dict[str, Optional[int]]) -> None:
        self.busy_cycles = state["busy_cycles"]
        self.busy_since = state["busy_since"]

    def utilization(self, elapsed: int) -> float:
        return self.busy_cycles / elapsed if elapsed else 0.0


class Counter:
    """One slab cell: a mutable float the registry hands out by name.

    Hot call sites (PE bursts, message send and delivery) fetch their
    cells once through a :class:`Cells` group and then bump
    ``cell.value`` directly — one attribute store per event instead of a
    dict hash + method call.  A cell stays registered for the life of
    the registry generation; see :attr:`MetricsRegistry.version`.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.value})"


class Cells:
    """The cells one hot call site records into on every call.  The site
    does ``if cells.version != metrics.version: cells.fetch()``, unpacks
    ``cells.items`` (counters, then histograms) and bumps ``cell.value``
    / calls ``hist.observe`` itself.  The version starts behind the
    registry's, so the names register at the site's first record — when
    and in the order ``incr``/``observe`` would have — and again after
    restore()/reset() moved it: no increment lands in an orphaned cell,
    no dropped name comes back early.  *counters* maps each name to the
    zero it registers at: a counter keeps the type of what it first
    recorded and snapshots show it (``0.0`` where ``incr`` would add its
    default 1.0, ``0`` for integer word counts)."""

    __slots__ = ("metrics", "counters", "hists", "version", "items")

    def __init__(self, metrics: "MetricsRegistry", counters: Dict[str, float],
                 hists: Tuple[str, ...] = ()) -> None:
        self.metrics = metrics
        self.counters = counters
        self.hists = hists
        self.version = -1
        self.items: Tuple[Any, ...] = ()

    def fetch(self) -> None:
        m = self.metrics
        self.items = (*(m.counter(n, zero) for n, zero in self.counters.items()),
                      *(m.hist(n) for n in self.hists))
        self.version = m.version


class MetricsRegistry:
    """Dotted-name counters and histograms shared by all components.

    Counter names follow ``<area>.<detail>`` — e.g. ``proc.flops``,
    ``comm.messages.initiate_task``, ``mem.hwm.cluster0`` — so reports
    can aggregate by prefix.

    Counters are slab-backed: each name maps to a :class:`Counter` cell
    created lazily on first increment, so a counter appears in
    :meth:`counters` exactly when it first records something (same
    observable behavior as the old ``defaultdict`` form, minus the
    per-event churn).  Components cache cells from :meth:`counter` and
    :meth:`hist` in :class:`Cells` groups, which revalidate them
    against :attr:`version`; it moves whenever :meth:`restore` or
    :meth:`reset` rebuilds the slab.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: cache-invalidation token for cells handed out by
        #: :meth:`counter`/:meth:`hist`.  restore() and reset() replace
        #: the underlying slabs, so they bump this; a call site holding
        #: cells refetches when its remembered version differs.
        self.version = 0

    # -- cells -------------------------------------------------------------

    def counter(self, name: str, zero: float = 0.0) -> Counter:
        """Get-or-create the cell for *name* (registers it at *zero*)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(zero)
        return c

    def hist(self, name: str) -> Histogram:
        """Get-or-create the registered histogram for *name*."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- recording ---------------------------------------------------------

    def incr(self, name: str, amount: float = 1.0) -> None:
        c = self._counters.get(name)
        if c is None:
            self._counters[name] = Counter(amount)
        else:
            c.value += amount

    def set_max(self, name: str, value: float) -> None:
        """Record a high-water mark."""
        c = self._counters.get(name)
        if c is None:
            self._counters[name] = Counter(value)
        elif value > c.value:
            c.value = value

    def get(self, name: str, default: float = 0.0) -> float:
        c = self._counters.get(name)
        return c.value if c is not None else default

    def observe(self, name: str, value: float) -> None:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        h.observe(value)

    def histogram(self, name: str) -> Histogram:
        """Read-only lookup: the registered histogram, or an empty
        placeholder (never registered) when *name* has not observed."""
        return self._histograms.get(name, Histogram())

    # -- reporting ---------------------------------------------------------

    def by_prefix(self, prefix: str) -> Dict[str, float]:
        """All counters under a dotted prefix, keys relative to it."""
        p = prefix if prefix.endswith(".") else prefix + "."
        return {
            k[len(p):]: c.value for k, c in self._counters.items() if k.startswith(p)
        }

    def total(self, prefix: str) -> float:
        return sum(self.by_prefix(prefix).values())

    def snapshot(self) -> Dict[str, Any]:
        """Exact structured state for checkpoint/restore."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "histograms": {n: h.snapshot() for n, h in self._histograms.items()},
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild both slabs in the snapshot's insertion order (the
        order is part of checkpoint-blob identity) and invalidate every
        cell previously handed out."""
        self._counters = {k: Counter(v) for k, v in state["counters"].items()}
        self._histograms = {}
        for name, hstate in state["histograms"].items():
            h = self._histograms[name] = Histogram()
            h.restore(hstate)
        self.version += 1
