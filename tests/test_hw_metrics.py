"""Unit tests for metrics: histograms, busy trackers, the registry."""

import math

import pytest

from repro.hardware import (
    BusyTracker,
    Cells,
    Histogram,
    Machine,
    MachineConfig,
    MetricsRegistry,
)

#: the snapshot of a registry that has recorded nothing
EMPTY = MetricsRegistry().snapshot()


def counters(m):
    return m.snapshot()["counters"]


def histograms(m):
    return m.snapshot()["histograms"]


class TestHistogram:
    def test_empty_summary(self):
        h = Histogram()
        assert h.count == 0 and h.mean == 0.0

    def test_basic_stats(self):
        h = Histogram()
        for v in [1, 2, 3, 4]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 10
        assert h.min == 1 and h.max == 4
        assert h.mean == pytest.approx(2.5)
        assert h.snapshot()["m2"] / h.count == pytest.approx(1.25)

    def test_single_observation(self):
        h = Histogram()
        h.observe(7.0)
        assert h.mean == 7.0 and h.snapshot()["m2"] == 0.0


class TestBusyTracker:
    def test_accumulates_busy_time(self):
        b = BusyTracker()
        b.busy_since = 10  # a PE opens the interval in line
        b.end(25)
        b.busy_since = 30
        b.end(40)
        assert b.busy_cycles == 25
        assert b.utilization(50) == 0.5

    def test_end_without_begin_rejected(self):
        with pytest.raises(ValueError):
            BusyTracker().end(1)

    def test_utilization_zero_elapsed(self):
        assert BusyTracker().utilization(0) == 0.0


class TestMetricsRegistry:
    def test_incr_and_get(self):
        m = MetricsRegistry()
        m.incr("proc.flops", 100)
        m.incr("proc.flops", 50)
        assert m.get("proc.flops") == 150
        assert m.get("missing") == 0.0

    def test_set_max_keeps_high_water(self):
        m = MetricsRegistry()
        m.set_max("mem.hwm", 10)
        m.set_max("mem.hwm", 5)
        m.set_max("mem.hwm", 20)
        assert m.get("mem.hwm") == 20

    def test_by_prefix_strips_prefix(self):
        m = MetricsRegistry()
        m.incr("comm.messages.rpc", 3)
        m.incr("comm.messages.pause", 2)
        m.incr("proc.cycles", 9)
        assert m.by_prefix("comm.messages") == {"rpc": 3, "pause": 2}
        assert m.total("comm.messages") == 5

    def test_observe_builds_histogram(self):
        m = MetricsRegistry()
        m.observe("comm.size", 10)
        m.observe("comm.size", 30)
        assert m.histogram("comm.size").mean == 20
        assert m.histogram("absent").count == 0

    def test_snapshot_restore_round_trip(self):
        m = MetricsRegistry()
        m.incr("a", 3)
        m.observe("h", 4)
        m.observe("h", 8)
        m2 = MetricsRegistry()
        m2.restore(m.snapshot())
        assert m2.get("a") == 3
        assert m2.histogram("h").mean == 6
        assert m2.snapshot() == m.snapshot()


class TestCounterCells:
    """The slab-cell fast path: cells must stay coherent with every
    registry view and with the checkpoint contract (insertion order is
    part of blob identity)."""

    def test_cell_identity_and_direct_bump(self):
        m = MetricsRegistry()
        cell = m.counter("proc.bursts")
        assert cell.value == 0.0
        cell.value += 3
        assert m.get("proc.bursts") == 3
        assert m.counter("proc.bursts") is cell  # stable within a generation
        m.incr("proc.bursts", 2)
        assert cell.value == 5  # incr and cell bumps hit the same slab

    def test_version_bumps_invalidate_cached_cells(self):
        m = MetricsRegistry()
        v0 = m.version
        cell = m.counter("a")
        m.restore(EMPTY)
        assert m.version > v0
        m2_state = MetricsRegistry()
        m2_state.incr("a", 9)
        m.restore(m2_state.snapshot())
        assert m.version > v0 + 1
        # the old cell is orphaned: bumping it must not leak into the
        # restored registry (call sites refetch on version mismatch)
        cell.value += 100
        assert m.get("a") == 9

    def test_snapshot_round_trip_preserves_order(self):
        m = MetricsRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            m.incr(name)
        m.observe("h", 2)
        m.set_max("hwm", 7)
        m2 = MetricsRegistry()
        m2.restore(m.snapshot())
        assert m2.snapshot() == m.snapshot()
        # insertion order survives the round trip — fem2-ckpt/1 blobs
        # are byte-compared, so dict order is part of the contract
        assert list(counters(m2)) == list(counters(m))
        assert list(histograms(m2)) == list(histograms(m))

    def test_set_max_creates_and_raises_cells(self):
        m = MetricsRegistry()
        m.set_max("hwm", 4)
        m.set_max("hwm", 2)
        assert m.get("hwm") == 4
        m.set_max("hwm", 9)
        assert m.counter("hwm").value == 9

    def test_restored_registry_keeps_first_incr_semantics(self):
        m = MetricsRegistry()
        m.incr("a")
        m2 = MetricsRegistry()
        m2.restore(m.snapshot())
        m2.incr("b")  # new counter appears at first increment, after "a"
        assert list(counters(m2)) == ["a", "b"]


class TestCells:
    """The one helper hot call sites cache their cells through."""

    def test_registers_at_first_fetch_in_the_order_given(self):
        m = MetricsRegistry()
        cells = Cells(m, {"b.count": 0.0, "a.words": 0}, hists=("h.size",))
        assert counters(m) == {} and histograms(m) == {}
        assert cells.version != m.version  # the site's first record fetches
        m.incr("first")
        cells.fetch()
        assert list(counters(m)) == ["first", "b.count", "a.words"]
        assert list(histograms(m)) == ["h.size"]
        count, words, size = cells.items
        count.value += 1
        words.value += 12
        size.observe(12)
        snap = m.snapshot()["counters"]
        assert (snap["b.count"], snap["a.words"]) == (1.0, 12)
        # the declared zero decides the type, as incr's first amount does
        assert type(snap["b.count"]) is float and type(snap["a.words"]) is int
        assert m.histogram("h.size").count == 1

    def test_same_cells_as_incr_and_observe(self):
        m = MetricsRegistry()
        m.incr("a.words", 5)
        m.observe("h.size", 5)
        cells = Cells(m, {"a.words": 0}, hists=("h.size",))
        cells.fetch()
        cells.items[0].value += 2
        cells.items[1].observe(2)
        assert m.get("a.words") == 7 and m.histogram("h.size").total == 7

    def test_revalidates_across_restore_and_reset(self):
        m = MetricsRegistry()
        cells = Cells(m, {"kept": 0.0, "dropped": 0.0})

        def record():
            if cells.version != m.version:
                cells.fetch()
            for cell in cells.items:
                cell.value += 1

        record()
        record()
        saved = MetricsRegistry()
        saved.incr("kept", 40)
        m.restore(saved.snapshot())
        # nothing comes back until the site records again ...
        assert counters(m) == {"kept": 40}
        record()
        # ... then no increment is lost and the dropped name restarts at 1
        assert counters(m) == {"kept": 41, "dropped": 1.0}
        m.restore(EMPTY)
        assert counters(m) == {}
        record()
        assert counters(m) == {"kept": 1.0, "dropped": 1.0}


class TestHardwareCellSites:
    """PE bursts and message delivery record through cached cells."""

    def machine(self):
        return Machine(MachineConfig(n_clusters=2, pes_per_cluster=3))

    def test_names_appear_when_first_recorded(self):
        mc = self.machine()
        assert counters(mc.metrics) == {} and histograms(mc.metrics) == {}
        pe = mc.cluster(0).worker_pes[0]
        pe.execute(5, lambda: None)
        assert list(counters(mc.metrics)) == ["proc.bursts"]
        mc.run_to_completion()
        assert list(counters(mc.metrics)) == ["proc.bursts", "proc.cycles"]
        mc.deliver(0, 1, 9, "payload")
        assert list(counters(mc.metrics))[2:] == [
            "comm.network_transfers", "comm.network_words", "comm.messages", "comm.words",
        ]
        assert list(histograms(mc.metrics)) == ["comm.hops", "comm.message_size"]
        mc.run_to_completion()  # the arrival records the queue depth
        assert list(histograms(mc.metrics))[2:] == ["queue.cluster1"]

    def test_no_increment_lost_across_restore_and_reset(self):
        mc = self.machine()
        pe = mc.cluster(0).worker_pes[0]

        def round_trip():
            pe.execute(5, lambda: None)
            mc.deliver(0, 1, 9, "payload")
            mc.run_to_completion()
            mc.cluster(1).input_queue.popleft()

        round_trip()
        state = mc.metrics.snapshot()
        round_trip()
        assert mc.metrics.get("proc.bursts") == 2
        mc.metrics.restore(state)
        round_trip()
        counts = counters(mc.metrics)
        assert counts["proc.bursts"] == 2 and counts["proc.cycles"] == 10
        assert counts["comm.messages"] == 2 and counts["comm.words"] == 18
        assert type(counts["comm.words"]) is int
        assert mc.metrics.histogram("comm.hops").count == 2
        assert mc.metrics.histogram("queue.cluster1").count == 2
        mc.metrics.restore(EMPTY)
        assert counters(mc.metrics) == {} and histograms(mc.metrics) == {}
        pe.execute(1, lambda: None)
        assert counters(mc.metrics) == {"proc.bursts": 1.0}  # nothing resurrected
