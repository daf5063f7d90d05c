"""The general heap with variable-size blocks.

The system programmer's VM storage management is "general heap with
variable size blocks".  This is a boundary-tag style allocator over a
single address range: allocation by first-fit or best-fit, freeing with
immediate coalescing of adjacent free blocks, and the fragmentation
statistics experiment E8 reports.

The heap optionally mirrors its allocations into a cluster's
:class:`~repro.hardware.memory.SharedMemory` so heap usage shows up in
the machine-wide storage accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional

from ..errors import HeapError

Policy = Literal["first_fit", "best_fit"]


@dataclass
class Block:
    addr: int
    size: int
    free: bool


class Heap:
    """A variable-size block allocator over ``[0, capacity)`` words."""

    def __init__(
        self,
        capacity: int,
        policy: Policy = "first_fit",
        shared_memory=None,
        tag: str = "heap",
    ) -> None:
        if capacity <= 0:
            raise HeapError(f"heap capacity must be positive, got {capacity}")
        if policy not in ("first_fit", "best_fit"):
            raise HeapError(f"unknown policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self.shared_memory = shared_memory
        self.tag = tag
        # blocks kept sorted by address; adjacent free blocks are always
        # coalesced, so the list is the canonical boundary-tag walk
        self._blocks: List[Block] = [Block(0, capacity, free=True)]
        self._allocated: Dict[int, Block] = {}
        # statistics
        self.alloc_count = 0
        self.free_count = 0
        self.failed_allocs = 0
        self.scan_steps = 0  # blocks inspected across all allocations

    # -- allocation ------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate *size* words; returns the block address.

        Raises :class:`HeapError` when no free block is large enough —
        note this can happen from fragmentation even when total free
        space would suffice.
        """
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        idx = self._find(size)
        if idx is None:
            self.failed_allocs += 1
            raise HeapError(
                f"out of memory: {size} words requested, largest free block "
                f"is {self.largest_free()} ({self.free_words()} free in total)"
            )
        block = self._blocks[idx]
        if block.size > size:
            # split: the tail stays free
            tail = Block(block.addr + size, block.size - size, free=True)
            self._blocks.insert(idx + 1, tail)
            block.size = size
        block.free = False
        self._allocated[block.addr] = block
        self.alloc_count += 1
        if self.shared_memory is not None:
            self.shared_memory.reserve(size, tag=self.tag)
        return block.addr

    def _find(self, size: int) -> Optional[int]:
        best_idx: Optional[int] = None
        best_size = None
        for i, b in enumerate(self._blocks):
            self.scan_steps += 1
            if not b.free or b.size < size:
                continue
            if self.policy == "first_fit":
                return i
            if best_size is None or b.size < best_size:
                best_idx, best_size = i, b.size
                if best_size == size:
                    break  # exact fit cannot be beaten
        return best_idx

    def free(self, addr: int) -> None:
        """Free the block at *addr*, coalescing with free neighbours."""
        block = self._allocated.pop(addr, None)
        if block is None:
            raise HeapError(f"free of unallocated address {addr}")
        block.free = True
        self.free_count += 1
        if self.shared_memory is not None:
            self.shared_memory.release(block.size, tag=self.tag)
        idx = self._blocks.index(block)
        # coalesce with successor first so indices stay valid
        if idx + 1 < len(self._blocks) and self._blocks[idx + 1].free:
            nxt = self._blocks.pop(idx + 1)
            block.size += nxt.size
        if idx > 0 and self._blocks[idx - 1].free:
            prev = self._blocks[idx - 1]
            prev.size += block.size
            self._blocks.pop(idx)

    # -- statistics ---------------------------------------------------------

    def used_words(self) -> int:
        return sum(b.size for b in self._blocks if not b.free)

    def free_words(self) -> int:
        return self.capacity - self.used_words()

    def largest_free(self) -> int:
        return max((b.size for b in self._blocks if b.free), default=0)

    def external_fragmentation(self) -> float:
        """1 - largest_free/total_free: 0 when free space is one block."""
        free = self.free_words()
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free() / free

    def block_count(self) -> int:
        return len(self._blocks)

    def check_invariants(self) -> None:
        """Verify the block list tiles [0, capacity) with no overlap and
        no adjacent free blocks.  Used by property tests."""
        addr = 0
        prev_free = False
        for b in self._blocks:
            if b.addr != addr:
                raise HeapError(f"block list gap/overlap at address {addr}")
            if b.size <= 0:
                raise HeapError(f"non-positive block size at {b.addr}")
            if b.free and prev_free:
                raise HeapError(f"uncoalesced free blocks at {b.addr}")
            prev_free = b.free
            addr += b.size
        if addr != self.capacity:
            raise HeapError(f"block list covers {addr} of {self.capacity} words")

    def snapshot(self) -> Dict:
        return {
            "blocks": [(b.addr, b.size, b.free) for b in self._blocks],
            "alloc_count": self.alloc_count,
            "free_count": self.free_count,
            "failed_allocs": self.failed_allocs,
            "scan_steps": self.scan_steps,
        }

    def restore(self, state: Dict) -> None:
        """Rebuild the block list and ``_allocated`` index directly.
        Shared-memory capacity is *not* re-reserved — the cluster's
        :class:`~repro.hardware.memory.SharedMemory` restores its own
        counters, keeping the mirror consistent without double counting."""
        self._blocks = [Block(a, s, f) for a, s, f in state["blocks"]]
        self._allocated = {b.addr: b for b in self._blocks if not b.free}
        self.alloc_count = state["alloc_count"]
        self.free_count = state["free_count"]
        self.failed_allocs = state["failed_allocs"]
        self.scan_steps = state["scan_steps"]
        self.check_invariants()

    def stats(self) -> Dict[str, float]:
        return {
            "capacity": self.capacity,
            "used": self.used_words(),
            "free": self.free_words(),
            "largest_free": self.largest_free(),
            "blocks": self.block_count(),
            "external_fragmentation": self.external_fragmentation(),
            "allocs": self.alloc_count,
            "frees": self.free_count,
            "failed_allocs": self.failed_allocs,
            "scan_steps": self.scan_steps,
        }
