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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple


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

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "std": self.std,
        }

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

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (parallel-merge of Welford)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.total = other.count, other.total
            self.min, self.max = other.min, other.max
            self._mean, self._m2 = other._mean, other._m2
            return
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total_n = n1 + n2
        self._m2 = self._m2 + other._m2 + delta * delta * n1 * n2 / total_n
        self._mean = (self._mean * n1 + other._mean * n2) / total_n
        self.count = total_n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


@dataclass
class BusyTracker:
    """Tracks utilization of a resource (a PE) over simulated time."""

    busy_cycles: int = 0
    #: start of the current busy interval (public: a PE does begin/end
    #: in line on its burst path, same checks, to save two frames a burst)
    busy_since: Optional[int] = None

    def begin(self, now: int) -> None:
        if self.busy_since is not None:
            raise ValueError("resource already busy")
        self.busy_since = now

    def end(self, now: int) -> None:
        if self.busy_since is None:
            raise ValueError("resource not busy")
        self.busy_cycles += now - self.busy_since
        self.busy_since = None

    def is_busy(self) -> bool:
        return self.busy_since is not None

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

    def counters(self) -> Dict[str, float]:
        return {k: c.value for k, c in self._counters.items()}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def reset(self) -> None:
        self._counters = {}
        self._histograms = {}
        self.version += 1

    def flat(self) -> Dict[str, float]:
        """A flat summary including histogram summaries (dotted keys)."""
        out = {k: c.value for k, c in self._counters.items()}
        for name, h in self._histograms.items():
            for k, v in h.summary().items():
                out[f"{name}.{k}"] = v
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Exact structured state for checkpoint/restore (use
        :meth:`flat` for the lossy reporting form)."""
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

    def report(self, prefixes: Iterable[str] = ()) -> str:
        """Human-readable dump, optionally restricted to prefixes."""
        keys = sorted(self._counters)
        if prefixes:
            keys = [k for k in keys if any(k.startswith(p) for p in prefixes)]
        width = max((len(k) for k in keys), default=10)
        lines = [f"{k:<{width}}  {self._counters[k].value:>14,.0f}" for k in keys]
        for name in sorted(self._histograms):
            if prefixes and not any(name.startswith(p) for p in prefixes):
                continue
            s = self._histograms[name].summary()
            lines.append(
                f"{name:<{width}}  n={s['count']:.0f} mean={s['mean']:.1f} "
                f"max={s['max']:.0f} sum={s['sum']:.0f}"
            )
        return "\n".join(lines)
