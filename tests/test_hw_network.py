"""Unit tests for the inter-cluster network: topologies, routing, faults."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.hardware import MetricsRegistry, Network, build_topology


def make(n=4, topology="ring", **kw):
    return Network(MetricsRegistry(), n, topology=topology, **kw)


class TestTopologies:
    def test_complete(self):
        g = build_topology("complete", 5)
        assert g.number_of_edges() == 10

    def test_ring(self):
        g = build_topology("ring", 6)
        assert g.number_of_edges() == 6
        assert all(d == 2 for _, d in g.degree())

    def test_small_ring_degenerates_to_path(self):
        assert build_topology("ring", 2).number_of_edges() == 1

    def test_mesh2d(self):
        g = build_topology("mesh2d", 9)
        assert g.number_of_nodes() == 9
        assert g.number_of_edges() == 12

    def test_mesh2d_requires_square(self):
        with pytest.raises(ConfigurationError):
            build_topology("mesh2d", 8)

    def test_hypercube(self):
        g = build_topology("hypercube", 8)
        assert all(d == 3 for _, d in g.degree())

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            build_topology("hypercube", 6)

    def test_star(self):
        g = build_topology("star", 5)
        assert g.number_of_edges() == 4

    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            build_topology("torus9d", 4)

    def test_single_cluster(self):
        for kind in ("complete", "ring", "star"):
            g = build_topology(kind, 1)
            assert g.number_of_nodes() == 1


class TestRouting:
    def test_self_route(self):
        net = make()
        assert net.route(2, 2) == [2]
        assert net.hops(2, 2) == 0

    def test_ring_shortest_path(self):
        net = make(6, "ring")
        assert net.hops(0, 3) == 3
        assert net.hops(0, 5) == 1

    def test_transfer_cost_model(self):
        net = make(4, "ring", hop_latency=10, bandwidth_words_per_cycle=4)
        # 2 hops * 10 + ceil(100/4) = 45
        assert net.transfer_cost(0, 2, 100) == 45
        # zero-size message pays only hop latency
        assert net.transfer_cost(0, 2, 0) == 20
        # intra-cluster: only the size term
        assert net.transfer_cost(1, 1, 100) == 25

    def test_record_transfer_accumulates_link_traffic(self):
        net = make(4, "ring")
        net.record_transfer(0, 2, 100)
        net.record_transfer(0, 1, 50)
        traffic = net.link_traffic()
        assert traffic[(0, 1)] == 150  # both routes cross (0,1)
        assert traffic[(1, 2)] == 100
        assert net.max_link_load() == 150

    def test_metrics_counted(self):
        m = MetricsRegistry()
        net = Network(m, 4, topology="complete")
        net.record_transfer(0, 3, 64)
        assert m.get("comm.network_transfers") == 1
        assert m.get("comm.network_words") == 64
        assert m.histogram("comm.hops").mean == 1


    @pytest.mark.parametrize("topology,n", [
        ("complete", 1), ("complete", 5), ("ring", 2), ("ring", 7),
        ("mesh2d", 9), ("hypercube", 8), ("star", 6),
    ])
    def test_record_transfer_returns_transfer_cost(self, topology, n):
        """record_transfer takes its latency from the path it already
        holds; it must stay the number transfer_cost gives, same-cluster
        and zero-word transfers included, before and after a re-route."""
        net = make(n, topology, hop_latency=7, bandwidth_words_per_cycle=3)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for size in (0, 1, 3, 4, 1000):
            for a, b in pairs:
                assert net.record_transfer(a, b, size) == net.transfer_cost(a, b, size)
        if topology == "ring" and n > 2:
            net.fail_link(0, 1)
            assert net.record_transfer(0, 1, 5) == net.transfer_cost(0, 1, 5) == 6 * 7 + 2
        assert net.metrics.get("comm.network_transfers") >= 5 * n * n
        assert net.metrics.histogram("comm.hops").count == net.metrics.get("comm.network_transfers")


class TestFaults:
    def test_link_failure_reroutes(self):
        net = make(4, "ring")
        assert net.hops(0, 1) == 1
        net.fail_link(0, 1)
        assert net.hops(0, 1) == 3  # the long way round

    def test_disconnection_raises(self):
        net = make(4, "ring")
        net.fail_link(0, 1)
        net.fail_link(0, 3)
        with pytest.raises(RoutingError):
            net.route(0, 2)

    def test_fail_unknown_link(self):
        net = make(4, "ring")
        with pytest.raises(RoutingError):
            net.fail_link(0, 2)

    def test_cluster_failure_blocks_endpoints(self):
        net = make(4, "complete")
        net.fail_cluster(2)
        assert not net.is_cluster_up(2)
        with pytest.raises(RoutingError):
            net.route(0, 2)
        with pytest.raises(RoutingError):
            net.route(2, 0)

    def test_routes_avoid_down_cluster(self):
        net = make(4, "ring")
        # 0-1-2 is shortest; with 1 down the route must go 0-3-2
        net.fail_cluster(1)
        assert net.route(0, 2) == [0, 3, 2]

    def test_restore_cluster(self):
        net = make(4, "ring")
        net.fail_cluster(1)
        net.restore_cluster(1)
        assert net.route(0, 2) == [0, 1, 2]

    def test_diameter_reflects_faults(self):
        net = make(6, "ring")
        assert net.diameter() == 3
        net.fail_cluster(3)
        assert net.diameter() > 3


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            make(4, "ring", hop_latency=-1)
        with pytest.raises(ConfigurationError):
            make(4, "ring", bandwidth_words_per_cycle=0)
        with pytest.raises(ConfigurationError):
            build_topology("ring", 0)
