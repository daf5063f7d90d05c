"""Per-cluster shared memory with capacity accounting.

The architecture section of the paper requires "large storage
requirements; dynamic allocation".  The hardware model tracks words
reserved and released per cluster, with a high-water mark and per-tag
attribution (activation records, arrays, messages, code), so the E1
storage-requirements table can break usage down the way ref [8] does.

Block-level placement (free lists, fragmentation) is the system
programmer's concern and lives in :mod:`repro.sysvm.heap`, which sits
on top of this capacity model.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from ..errors import MemoryCapacityError
from .metrics import MetricsRegistry


class SharedMemory:
    """Capacity accounting for one cluster's shared memory, in words."""

    def __init__(self, metrics: MetricsRegistry, cluster_id: int, capacity_words: int) -> None:
        if capacity_words <= 0:
            raise MemoryCapacityError(f"capacity must be positive, got {capacity_words}")
        self.metrics = metrics
        self.cluster_id = cluster_id
        self.capacity_words = capacity_words
        self.used_words = 0
        self.high_water = 0
        self._by_tag: Dict[str, int] = defaultdict(int)

    def reserve(self, words: int, tag: str = "data") -> None:
        """Claim *words*; raises :class:`MemoryCapacityError` if full."""
        if words < 0:
            raise MemoryCapacityError(f"negative reservation {words}")
        if self.used_words + words > self.capacity_words:
            raise MemoryCapacityError(
                f"cluster {self.cluster_id}: cannot reserve {words} words "
                f"({self.used_words}/{self.capacity_words} used)"
            )
        self.used_words += words
        self._by_tag[tag] += words
        if self.used_words > self.high_water:
            self.high_water = self.used_words
            self.metrics.set_max(f"mem.hwm.cluster{self.cluster_id}", self.high_water)
        self.metrics.set_max(f"mem.hwm.{tag}.cluster{self.cluster_id}",
                             self._by_tag[tag])
        self.metrics.incr("mem.reservations")
        self.metrics.incr(f"mem.reserved.{tag}", words)

    def release(self, words: int, tag: str = "data") -> None:
        if words < 0:
            raise MemoryCapacityError(f"negative release {words}")
        if self._by_tag[tag] < words:
            raise MemoryCapacityError(
                f"cluster {self.cluster_id}: releasing {words} words of {tag!r} "
                f"but only {self._by_tag[tag]} reserved"
            )
        self.used_words -= words
        self._by_tag[tag] -= words

    def snapshot(self) -> Dict[str, object]:
        return {
            "used_words": self.used_words,
            "high_water": self.high_water,
            "by_tag": {k: v for k, v in self._by_tag.items() if v},
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Install counters directly.  Heap/code/array restores above
        rebuild their own structures *without* re-reserving, so capacity
        is accounted exactly once — here."""
        self.used_words = state["used_words"]
        self.high_water = state["high_water"]
        self._by_tag = defaultdict(int, state["by_tag"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemory(cluster={self.cluster_id}, "
            f"{self.used_words}/{self.capacity_words} words)"
        )
