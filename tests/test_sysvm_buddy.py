"""Unit and property tests for the buddy allocator."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import HeapError
from repro.sysvm import BuddyHeap


class TestBasics:
    def test_alloc_rounds_to_power_of_two(self):
        h = BuddyHeap(1024, min_block=16)
        a = h.alloc(20)  # -> 32-word block
        assert h.used_words() == 32
        assert h.requested_words() == 20
        assert h.internal_fragmentation() == pytest.approx(1 - 20 / 32)

    def test_minimum_block_size(self):
        h = BuddyHeap(256, min_block=16)
        h.alloc(1)
        assert h.used_words() == 16

    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(HeapError):
            BuddyHeap(1000)
        with pytest.raises(HeapError):
            BuddyHeap(1024, min_block=24)

    def test_oversized_request_rejected(self):
        h = BuddyHeap(256)
        with pytest.raises(HeapError):
            h.alloc(257)

    def test_free_merges_buddies(self):
        h = BuddyHeap(256, min_block=16)
        addrs = [h.alloc(16) for _ in range(16)]  # fill completely
        assert h.free_words() == 0
        for a in addrs:
            h.free(a)
        assert h.largest_free() == 256  # fully merged
        assert h.merge_count >= 15
        h.check_invariants()

    def test_double_free_rejected(self):
        h = BuddyHeap(256)
        a = h.alloc(16)
        h.free(a)
        with pytest.raises(HeapError):
            h.free(a)

    def test_split_tracking(self):
        h = BuddyHeap(256, min_block=16)
        h.alloc(16)  # splits 256 -> 128 -> 64 -> 32 -> 16
        assert h.split_count == 4

    def test_exhaustion(self):
        h = BuddyHeap(64, min_block=16)
        for _ in range(4):
            h.alloc(16)
        with pytest.raises(HeapError):
            h.alloc(16)
        assert h.failed_allocs == 1

    def test_no_external_fragmentation_from_uniform_blocks(self):
        """Buddy's selling point: same-size blocks never fragment."""
        h = BuddyHeap(1024, min_block=16)
        addrs = [h.alloc(16) for _ in range(64)]
        for a in addrs[::2]:
            h.free(a)
        # 32 free 16-blocks; a 16-word request always succeeds
        a = h.alloc(16)
        assert a is not None
        h.check_invariants()

    def test_stats(self):
        h = BuddyHeap(512)
        h.alloc(100)
        s = h.stats()
        assert s["used"] == 128 and s["requested"] == 100
        assert s["splits"] >= 1


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 200)), min_size=1,
                max_size=60))
def test_buddy_invariants_under_random_scripts(script):
    h = BuddyHeap(4096, min_block=16)
    live = []
    for is_alloc, arg in script:
        if is_alloc:
            try:
                live.append(h.alloc(arg))
            except HeapError:
                pass
        elif live:
            h.free(live.pop(arg % len(live)))
        h.check_invariants()
    for a in live:
        h.free(a)
    h.check_invariants()
    assert h.largest_free() == 4096
