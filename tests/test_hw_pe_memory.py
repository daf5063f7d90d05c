"""Unit tests for processing elements and shared memory."""

import pytest

from repro.errors import FaultError, MemoryCapacityError, SchedulingError
from repro.hardware import EventEngine, MetricsRegistry, PEState, ProcessingElement, SharedMemory


@pytest.fixture
def eng():
    return EventEngine()


@pytest.fixture
def metrics():
    return MetricsRegistry()


@pytest.fixture
def pe(eng, metrics):
    return ProcessingElement(eng, metrics, cluster_id=0, index=1)


class TestProcessingElement:
    def test_execute_burst_completes(self, pe, eng, metrics):
        done = []
        pe.execute(100, lambda: done.append(eng.now))
        assert pe.state is PEState.BUSY
        eng.run()
        assert done == [100]
        assert pe.state is PEState.IDLE
        assert pe.cycles_executed == 100
        assert metrics.get("proc.cycles") == 100

    def test_busy_pe_rejects_new_burst(self, pe, eng):
        pe.execute(10, lambda: None)
        with pytest.raises(SchedulingError):
            pe.execute(5, lambda: None)

    def test_sequential_bursts(self, pe, eng):
        times = []
        pe.execute(10, lambda: (times.append(eng.now), pe.execute(20, lambda: times.append(eng.now))))
        eng.run()
        assert times == [10, 30]
        assert pe.cycles_executed == 30

    def test_zero_cycle_burst(self, pe, eng):
        done = []
        pe.execute(0, lambda: done.append(True))
        assert not done  # completes via event queue, not synchronously
        eng.run()
        assert done == [True]

    def test_negative_burst_rejected(self, pe):
        with pytest.raises(SchedulingError):
            pe.execute(-5, lambda: None)

    def test_faulty_pe_rejects_work(self, pe):
        pe.fail()
        with pytest.raises(FaultError):
            pe.execute(10, lambda: None)

    def test_fault_loses_inflight_burst(self, pe, eng):
        done = []
        pe.execute(100, lambda: done.append(True))
        eng.run(until=50)
        pe.fail()
        eng.run()
        assert not done
        assert pe.state is PEState.FAULTY
        assert pe.cycles_executed == 0

    def test_utilization(self, pe, eng):
        pe.execute(50, lambda: None)
        eng.run()
        eng.schedule(50, lambda: None)
        eng.run()
        assert pe.utilization() == pytest.approx(0.5)


class TestSharedMemory:
    def test_reserve_and_release(self, metrics):
        mem = SharedMemory(metrics, 0, 1000)
        mem.reserve(300, tag="arrays")
        mem.reserve(200, tag="stack")
        assert mem.used_words == 500
        mem.release(100, tag="arrays")
        assert mem.snapshot()["by_tag"] == {"arrays": 200, "stack": 200}

    def test_over_capacity_rejected(self, metrics):
        mem = SharedMemory(metrics, 0, 100)
        mem.reserve(90)
        with pytest.raises(MemoryCapacityError):
            mem.reserve(20)
        assert mem.used_words == 90  # failed reserve changed nothing

    def test_release_more_than_reserved_rejected(self, metrics):
        mem = SharedMemory(metrics, 0, 100)
        mem.reserve(10, tag="a")
        with pytest.raises(MemoryCapacityError):
            mem.release(20, tag="a")

    def test_release_wrong_tag_rejected(self, metrics):
        mem = SharedMemory(metrics, 0, 100)
        mem.reserve(10, tag="a")
        with pytest.raises(MemoryCapacityError):
            mem.release(10, tag="b")

    def test_high_water_mark(self, metrics):
        mem = SharedMemory(metrics, 3, 1000)
        mem.reserve(400)
        mem.release(300)
        mem.reserve(100)
        assert mem.high_water == 400
        assert metrics.get("mem.hwm.cluster3") == 400

    def test_invalid_capacity(self, metrics):
        with pytest.raises(MemoryCapacityError):
            SharedMemory(metrics, 0, 0)
