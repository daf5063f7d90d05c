"""Unit tests for clusters, the assembled machine, and faults."""

import pytest

from repro.errors import ConfigurationError, FaultError, RoutingError
from repro.hardware import (
    Cluster,
    EventEngine,
    FaultInjector,
    Machine,
    MachineConfig,
    MetricsRegistry,
    PEState,
)


@pytest.fixture
def machine():
    return Machine(MachineConfig(n_clusters=4, pes_per_cluster=3, topology="ring"))


class TestMachineConfig:
    def test_defaults_valid(self):
        MachineConfig().validate()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(n_clusters=0).validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(pes_per_cluster=1).validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(topology="blob").validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(memory_words_per_cluster=0).validate()
        with pytest.raises(ConfigurationError):
            MachineConfig(flop_cycles=-1).validate()

    def test_total_workers(self):
        cfg = MachineConfig(n_clusters=4, pes_per_cluster=5)
        assert cfg.total_workers == 16

    def test_scaled_copies(self):
        cfg = MachineConfig().scaled(n_clusters=8)
        assert cfg.n_clusters == 8
        assert cfg.pes_per_cluster == MachineConfig().pes_per_cluster

    def test_presets(self):
        for preset in (MachineConfig.small(), MachineConfig.medium(), MachineConfig.large()):
            preset.validate()


class TestCluster:
    def test_kernel_pe_is_pe_zero(self, machine):
        c = machine.cluster(0)
        assert c.kernel_pe.is_kernel
        assert all(not pe.is_kernel for pe in c.worker_pes)

    def test_available_workers_excludes_kernel_and_busy(self, machine):
        c = machine.cluster(0)
        def available():
            return [pe for pe in c.worker_pes if pe.is_available()]

        assert len(available()) == 2
        c.worker_pes[0].execute(10, lambda: None)
        assert len(available()) == 1

    def test_minimum_two_pes(self):
        with pytest.raises(ConfigurationError):
            Cluster(EventEngine(), MetricsRegistry(), 0, 1, 100)

    def test_enqueue_fires_hook_and_tracks_high_water(self, machine):
        c = machine.cluster(1)
        seen = []
        c.on_message = lambda cl: seen.append(len(cl.input_queue))
        c.enqueue("m1")
        c.enqueue("m2")
        assert seen == [1, 2]
        assert c.queue_high_water == 2
        assert c.dequeue() == "m1"

    def test_failed_cluster_rejects_messages(self, machine):
        c = machine.cluster(1)
        c.fail()
        with pytest.raises(FaultError):
            c.enqueue("m")
        assert all(pe.state is PEState.FAULTY for pe in c.pes)


class TestMachine:
    def test_deliver_incurs_network_latency(self, machine):
        got = []
        machine.cluster(2).on_message = lambda c: got.append((machine.now, c.dequeue()))
        machine.deliver(0, 2, size_words=40, payload="hello")
        machine.run_to_completion()
        # ring 0->2: 2 hops * 10 + ceil(40/4) = 30
        assert got == [(30, "hello")]
        assert machine.metrics.get("comm.messages") == 1
        assert machine.metrics.get("comm.words") == 40

    def test_deliver_to_self_is_cheap(self, machine):
        got = []
        machine.cluster(0).on_message = lambda c: got.append(machine.now)
        machine.deliver(0, 0, size_words=4, payload="x")
        machine.run_to_completion()
        assert got == [1]  # ceil(4/4) with zero hops

    def test_deliver_to_down_cluster_raises(self, machine):
        FaultInjector(machine).fail_cluster(1)
        with pytest.raises(RoutingError):
            machine.deliver(0, 1, 4, "x")

    def test_message_lost_if_cluster_fails_in_flight(self, machine):
        machine.deliver(0, 2, size_words=400, payload="slow")
        machine.engine.run(until=5)
        machine.cluster(2).fail()  # direct hardware failure, no reroute
        machine.run_to_completion()
        assert machine.metrics.get("fault.messages_lost") == 1

    def test_run_to_completion_guards_runaway(self, machine):
        def forever():
            machine.engine.schedule(1, forever)

        machine.engine.schedule(1, forever)
        with pytest.raises(ConfigurationError):
            machine.run_to_completion(max_events=100)

    def test_describe(self, machine):
        assert "4 clusters" in machine.describe()


class TestFaultInjector:
    def test_pe_failure_logged(self, machine):
        inj = FaultInjector(machine)
        inj.fail_pe(0, 1)
        assert machine.cluster(0).pes[1].state is PEState.FAULTY
        assert inj.log[0].kind == "pe"
        assert inj.healthy_worker_count() == 7

    def test_kernel_pe_failure_requires_cluster_failure(self, machine):
        inj = FaultInjector(machine)
        with pytest.raises(FaultError):
            inj.fail_pe(0, 0)

    def test_cluster_failure_with_reconfiguration_reroutes(self, machine):
        inj = FaultInjector(machine, reconfigure=True)
        inj.fail_cluster(1)
        # 0->2 still possible the long way
        assert machine.network.route(0, 2) == [0, 3, 2]

    def test_cluster_failure_without_reconfiguration_keeps_routes(self, machine):
        inj = FaultInjector(machine, reconfigure=False)
        inj.fail_cluster(1)
        # network still routes through the dead cluster (no isolation) ...
        assert machine.network.route(0, 2) == [0, 1, 2]
        # ... but delivery to it fails at the hardware level
        with pytest.raises(RoutingError):
            machine.deliver(0, 1, 4, "x")

    def test_scheduled_failure_fires_at_time(self, machine):
        inj = FaultInjector(machine)
        inj.schedule_pe_failure(100, 0, 1)
        machine.engine.run(until=50)
        assert machine.cluster(0).pes[1].state is PEState.IDLE
        machine.engine.run(until=150)
        assert machine.cluster(0).pes[1].state is PEState.FAULTY


