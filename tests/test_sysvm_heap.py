"""Unit tests for the variable-size block heap."""

import pytest

from repro.errors import HeapError, MemoryCapacityError
from repro.hardware import MetricsRegistry, SharedMemory
from repro.sysvm import Heap


class TestAllocation:
    def test_simple_alloc_free(self):
        h = Heap(100)
        a = h.alloc(30)
        assert a == 0
        assert h.used_words() == 30
        h.free(a)
        assert h.used_words() == 0
        h.check_invariants()

    def test_sequential_allocs_are_adjacent(self):
        h = Heap(100)
        assert h.alloc(10) == 0
        assert h.alloc(20) == 10
        assert h.alloc(5) == 30

    def test_exact_fit_consumes_block(self):
        h = Heap(50)
        h.alloc(50)
        assert h.free_words() == 0
        with pytest.raises(HeapError):
            h.alloc(1)

    def test_zero_or_negative_size_rejected(self):
        h = Heap(10)
        with pytest.raises(HeapError):
            h.alloc(0)
        with pytest.raises(HeapError):
            h.alloc(-1)

    def test_double_free_rejected(self):
        h = Heap(100)
        a = h.alloc(10)
        h.free(a)
        with pytest.raises(HeapError):
            h.free(a)

    def test_free_bad_address_rejected(self):
        h = Heap(100)
        h.alloc(10)
        with pytest.raises(HeapError):
            h.free(5)

    def test_oom_counts_failed_allocs(self):
        h = Heap(10)
        with pytest.raises(HeapError):
            h.alloc(11)
        assert h.failed_allocs == 1


class TestCoalescing:
    def test_free_coalesces_with_next(self):
        h = Heap(100)
        a = h.alloc(10)
        h.alloc(10)
        h.free(a)  # free block 0..10 adjacent to trailing free space? no: b holds 10..20
        h.check_invariants()

    def test_full_coalescing_restores_single_block(self):
        h = Heap(100)
        addrs = [h.alloc(10) for _ in range(10)]
        for a in addrs:
            h.free(a)
        assert h.block_count() == 1
        assert h.largest_free() == 100
        h.check_invariants()

    def test_out_of_order_frees_coalesce(self):
        h = Heap(100)
        a, b, c = h.alloc(20), h.alloc(20), h.alloc(20)
        h.free(a)
        h.free(c)
        h.free(b)  # merges with both neighbours and the tail
        assert h.block_count() == 1
        h.check_invariants()

    def test_fragmentation_metric(self):
        h = Heap(100)
        blocks = [h.alloc(10) for _ in range(10)]
        for a in blocks[::2]:  # free alternating blocks -> checkerboard
            h.free(a)
        assert h.free_words() == 50
        assert h.largest_free() == 10
        assert h.external_fragmentation() == pytest.approx(0.8)
        h.check_invariants()

    def test_fragmentation_can_refuse_despite_free_space(self):
        h = Heap(100)
        blocks = [h.alloc(10) for _ in range(10)]
        for a in blocks[::2]:
            h.free(a)
        with pytest.raises(HeapError):
            h.alloc(20)  # 50 words free, but largest hole is 10


class TestPolicies:
    def test_first_fit_takes_first_hole(self):
        h = Heap(100, policy="first_fit")
        a = h.alloc(30)
        b = h.alloc(10)
        h.alloc(40)
        h.free(a)  # hole [0,30)
        h.free(b)  # hole [30,40) merges -> [0,40)
        assert h.alloc(10) == 0

    def test_best_fit_takes_tightest_hole(self):
        h = Heap(100, policy="best_fit")
        a = h.alloc(30)
        mid = h.alloc(10)
        b = h.alloc(12)
        h.alloc(40)
        h.free(a)   # hole size 30 at 0
        h.free(b)   # hole size 12 at 40
        del mid
        assert h.alloc(11) == 40  # fits the 12-hole, not the 30-hole

    def test_unknown_policy_rejected(self):
        with pytest.raises(HeapError):
            Heap(100, policy="worst_fit")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(HeapError):
            Heap(0)


class TestSharedMemoryMirror:
    def test_heap_mirrors_into_shared_memory(self):
        mem = SharedMemory(MetricsRegistry(), 0, 1000)
        h = Heap(500, shared_memory=mem)
        a = h.alloc(100)
        assert mem.used_words == 100
        h.free(a)
        assert mem.used_words == 0

    def test_shared_memory_capacity_backpressure(self):
        mem = SharedMemory(MetricsRegistry(), 0, 50)
        mem.reserve(40, tag="arrays")
        h = Heap(500, shared_memory=mem)
        with pytest.raises(MemoryCapacityError):
            h.alloc(20)  # address space has room, physical memory does not


class TestStats:
    def test_stats_snapshot(self):
        h = Heap(100)
        h.alloc(10)
        s = h.stats()
        assert s["used"] == 10 and s["allocs"] == 1 and s["capacity"] == 100
        assert s["scan_steps"] >= 1
