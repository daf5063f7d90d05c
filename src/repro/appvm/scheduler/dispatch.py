"""Fair-share dispatch: stride scheduling over tenant queues.

Every tenant owns a FIFO of waiting jobs (higher ``priority`` first,
submission order within a priority).  The dispatcher picks the next job
from the queued tenant with the smallest stride *pass value* —
``consumed_cycles / share`` — so over any contended stretch each
tenant's machine-cycle consumption converges to its share.  Preempted
jobs re-enter the same queues and keep their tenant's pass, so resuming
is just being dispatched again.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, List, Optional

from .handle import JobHandle
from .quota import TenantTable


class FairShareQueue:
    """Per-tenant priority FIFOs ordered globally by stride pass."""

    def __init__(self, tenants: TenantTable) -> None:
        self._tenants = tenants
        self._queues: Dict[str, List[tuple]] = defaultdict(list)
        self._seq = itertools.count()

    def push(self, handle: JobHandle) -> None:
        queue = self._queues[handle.spec.tenant]
        # stable order: priority desc, then submission order
        queue.append((-handle.spec.priority, next(self._seq), handle))
        queue.sort()

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def __bool__(self) -> bool:
        return any(self._queues.values())

    def best_priority(self) -> Optional[int]:
        """Highest priority among all queued jobs (preemption trigger)."""
        best = None
        for queue in self._queues.values():
            if queue:
                prio = -queue[0][0]
                best = prio if best is None else max(best, prio)
        return best

    def pop_next(self) -> Optional[JobHandle]:
        """The head job of the minimum-pass tenant with work queued."""
        candidates = [name for name, q in self._queues.items() if q]
        if not candidates:
            return None
        tenant = min(
            candidates,
            key=lambda name: (self._tenants.get(name).pass_value, name),
        )
        _, _, handle = self._queues[tenant].pop(0)
        return handle

    def pop_urgent(self) -> Optional[JobHandle]:
        """The globally highest-priority queued job (after a preemption
        was triggered for it), falling back to fair-share order among
        equals."""
        best = self.best_priority()
        if best is None:
            return None
        candidates = [
            name for name, q in self._queues.items()
            if q and -q[0][0] == best
        ]
        tenant = min(
            candidates,
            key=lambda name: (self._tenants.get(name).pass_value, name),
        )
        _, _, handle = self._queues[tenant].pop(0)
        return handle
