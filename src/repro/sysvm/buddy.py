"""Binary buddy allocator: the fixed-split alternative to the paper's
variable-size-block heap.

Round every request up to a power of two; split larger blocks in
halves, merge freed buddies back.  Allocation and free are O(log n)
with no scanning, at the price of *internal* fragmentation (the
round-up waste).  Experiment E8's ablation compares it against
first-fit and best-fit on the same trace.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..errors import HeapError


def _next_pow2(x: int) -> int:
    return 1 << (x - 1).bit_length()


class BuddyHeap:
    """Power-of-two buddy allocator over ``[0, capacity)`` words."""

    def __init__(self, capacity: int, min_block: int = 16,
                 shared_memory=None, tag: str = "heap") -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise HeapError(f"buddy heap capacity must be a power of two, got {capacity}")
        if min_block <= 0 or min_block & (min_block - 1) or min_block > capacity:
            raise HeapError(f"bad min_block {min_block}")
        self.capacity = capacity
        self.min_block = min_block
        self.shared_memory = shared_memory
        self.tag = tag
        self.max_order = (capacity // min_block).bit_length() - 1
        #: free lists per order: order o holds blocks of min_block * 2^o
        self._free: List[Set[int]] = [set() for _ in range(self.max_order + 1)]
        self._free[self.max_order].add(0)
        #: addr -> (order, requested_size)
        self._allocated: Dict[int, tuple] = {}
        self.alloc_count = 0
        self.free_count = 0
        self.failed_allocs = 0
        self.split_count = 0
        self.merge_count = 0

    def _order_for(self, size: int) -> int:
        block = max(self.min_block, _next_pow2(size))
        order = (block // self.min_block).bit_length() - 1
        if order > self.max_order:
            raise HeapError(f"request of {size} words exceeds capacity {self.capacity}")
        return order

    def _block_size(self, order: int) -> int:
        return self.min_block << order

    # -- allocation -------------------------------------------------------

    def alloc(self, size: int) -> int:
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        order = self._order_for(size)
        # find the smallest order with a free block
        o = order
        while o <= self.max_order and not self._free[o]:
            o += 1
        if o > self.max_order:
            self.failed_allocs += 1
            raise HeapError(
                f"out of memory: {size} words requested "
                f"({self.used_words()}/{self.capacity} used)"
            )
        addr = min(self._free[o])
        self._free[o].discard(addr)
        while o > order:  # split down
            o -= 1
            self.split_count += 1
            buddy = addr + self._block_size(o)
            self._free[o].add(buddy)
        self._allocated[addr] = (order, size)
        self.alloc_count += 1
        if self.shared_memory is not None:
            self.shared_memory.reserve(self._block_size(order), tag=self.tag)
        return addr

    def free(self, addr: int) -> None:
        entry = self._allocated.pop(addr, None)
        if entry is None:
            raise HeapError(f"free of unallocated address {addr}")
        order, _size = entry
        self.free_count += 1
        if self.shared_memory is not None:
            self.shared_memory.release(self._block_size(order), tag=self.tag)
        # merge with buddies as far as possible
        while order < self.max_order:
            buddy = addr ^ self._block_size(order)
            if buddy not in self._free[order]:
                break
            self._free[order].discard(buddy)
            addr = min(addr, buddy)
            order += 1
            self.merge_count += 1
        self._free[order].add(addr)

    # -- statistics -----------------------------------------------------------

    def used_words(self) -> int:
        """Words actually held (block sizes, including round-up waste)."""
        return sum(self._block_size(o) for o, _ in self._allocated.values())

    def requested_words(self) -> int:
        return sum(size for _, size in self._allocated.values())

    def internal_fragmentation(self) -> float:
        """Fraction of held words wasted by power-of-two round-up."""
        used = self.used_words()
        if used == 0:
            return 0.0
        return 1.0 - self.requested_words() / used

    def free_words(self) -> int:
        return self.capacity - self.used_words()

    def largest_free(self) -> int:
        for o in range(self.max_order, -1, -1):
            if self._free[o]:
                return self._block_size(o)
        return 0

    def external_fragmentation(self) -> float:
        free = self.free_words()
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free() / free

    def check_invariants(self) -> None:
        """Free blocks and allocated blocks tile the arena disjointly;
        no free block has its buddy also free at the same order."""
        covered = []
        for o, frees in enumerate(self._free):
            size = self._block_size(o)
            for addr in frees:
                if addr % size != 0:
                    raise HeapError(f"misaligned free block {addr} at order {o}")
                buddy = addr ^ size
                if o < self.max_order and buddy in frees:
                    raise HeapError(f"unmerged buddies {addr}/{buddy} at order {o}")
                covered.append((addr, size))
        for addr, (o, _) in self._allocated.items():
            covered.append((addr, self._block_size(o)))
        covered.sort()
        pos = 0
        for addr, size in covered:
            if addr != pos:
                raise HeapError(f"gap or overlap at address {pos} (next block {addr})")
            pos += size
        if pos != self.capacity:
            raise HeapError(f"arena covers {pos} of {self.capacity} words")

    def stats(self) -> Dict[str, float]:
        return {
            "capacity": self.capacity,
            "used": self.used_words(),
            "requested": self.requested_words(),
            "free": self.free_words(),
            "largest_free": self.largest_free(),
            "internal_fragmentation": self.internal_fragmentation(),
            "external_fragmentation": self.external_fragmentation(),
            "allocs": self.alloc_count,
            "frees": self.free_count,
            "failed_allocs": self.failed_allocs,
            "splits": self.split_count,
            "merges": self.merge_count,
        }
