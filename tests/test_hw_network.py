"""Unit tests for the inter-cluster network: topologies, routing, faults."""

import math

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.hardware import TOPOLOGIES, MetricsRegistry, Network, build_topology


def make(n=4, topology="ring", **kw):
    return Network(MetricsRegistry(), n, topology=topology, **kw)


def edges(adj):
    return [(a, b) for a, nbrs in adj.items() for b in nbrs if a < b]


class TestTopologies:
    def test_complete(self):
        assert len(edges(build_topology("complete", 5))) == 10

    def test_ring(self):
        adj = build_topology("ring", 6)
        assert len(edges(adj)) == 6
        assert all(len(nbrs) == 2 for nbrs in adj.values())

    def test_small_ring_degenerates_to_path(self):
        assert len(edges(build_topology("ring", 2))) == 1

    def test_mesh2d(self):
        adj = build_topology("mesh2d", 9)
        assert len(adj) == 9
        assert len(edges(adj)) == 12

    def test_mesh2d_requires_square(self):
        with pytest.raises(ConfigurationError):
            build_topology("mesh2d", 8)

    def test_hypercube(self):
        adj = build_topology("hypercube", 8)
        assert all(len(nbrs) == 3 for nbrs in adj.values())

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            build_topology("hypercube", 6)

    def test_star(self):
        assert len(edges(build_topology("star", 5))) == 4

    def test_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            build_topology("torus9d", 4)

    def test_single_cluster(self):
        for kind in ("complete", "ring", "star"):
            assert build_topology(kind, 1) == {0: []}


class TestRouting:
    def test_self_route(self):
        net = make()
        assert net.route(2, 2) == [2]

    def test_ring_shortest_path(self):
        net = make(6, "ring")
        assert len(net.route(0, 3)) - 1 == 3
        assert net.route(0, 5) == [0, 5]

    def test_transfer_cost_model(self):
        net = make(4, "ring", hop_latency=10, bandwidth_words_per_cycle=4)
        # 2 hops * 10 + ceil(100/4) = 45
        assert net.record_transfer(0, 2, 100) == 45
        # zero-size message pays only hop latency
        assert net.record_transfer(0, 2, 0) == 20
        # intra-cluster: only the size term
        assert net.record_transfer(1, 1, 100) == 25

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
        holds; it must stay the cost model's number, hops * hop_latency +
        ceil(size / bandwidth), same-cluster and zero-word transfers
        included, before and after a re-route."""
        net = make(n, topology, hop_latency=7, bandwidth_words_per_cycle=3)
        pairs = [(a, b) for a in range(n) for b in range(n)]

        def cost(a, b, size):
            return (len(net.route(a, b)) - 1) * 7 + math.ceil(size / 3)

        for size in (0, 1, 3, 4, 1000):
            for a, b in pairs:
                assert net.record_transfer(a, b, size) == cost(a, b, size)
        if topology == "ring" and n > 3:
            net.fail_cluster(1)
            assert net.record_transfer(0, 2, 5) == cost(0, 2, 5) == 5 * 7 + 2
        assert net.metrics.get("comm.network_transfers") >= 5 * n * n
        assert net.metrics.histogram("comm.hops").count == net.metrics.get("comm.network_transfers")


class TestFaults:
    def test_disconnection_raises(self):
        net = make(4, "ring")
        net.fail_cluster(1)
        net.fail_cluster(3)
        with pytest.raises(RoutingError):
            net.route(0, 2)
        with pytest.raises(RoutingError, match="disconnected"):
            net.diameter()

    def test_cluster_failure_blocks_endpoints(self):
        net = make(4, "complete")
        net.fail_cluster(2)
        with pytest.raises(RoutingError):
            net.route(0, 2)
        with pytest.raises(RoutingError):
            net.route(2, 0)

    def test_routes_avoid_down_cluster(self):
        net = make(4, "ring")
        # 0-1-2 is shortest; with 1 down the route must go 0-3-2
        net.fail_cluster(1)
        assert net.route(0, 2) == [0, 3, 2]

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


# -- networkx as the oracle ------------------------------------------------
#
# Until the simulator dropped networkx, topologies were its generators and
# routes its ``shortest_path``.  Hop-count ties are broken by neighbour
# order, so "same routes" means same adjacency order *and* the same
# search; both are checked against the library itself.

#: every cluster count each topology accepts up to 32 (mesh2d to 25)
SIZES = {
    "complete": range(1, 33), "ring": range(1, 33), "star": range(1, 33),
    "mesh2d": [1, 4, 9, 16, 25], "hypercube": [1, 2, 4, 8, 16, 32],
}
#: cluster counts also swept under every single-cluster fault
FAULT_SIZES = {
    "complete": range(1, 9), "ring": [*range(1, 13), 16], "star": [*range(1, 13), 16],
    "mesh2d": SIZES["mesh2d"], "hypercube": SIZES["hypercube"],
}


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def nx_topology(nx, kind, n):
    """The generator calls ``build_topology`` made before it stopped
    using networkx."""
    if kind == "complete":
        return nx.complete_graph(n) if n > 1 else nx.empty_graph(1)
    if kind == "ring":
        return nx.cycle_graph(n) if n > 2 else nx.path_graph(n)
    if kind == "star":
        return nx.star_graph(n - 1) if n > 1 else nx.empty_graph(1)
    if kind == "mesh2d":
        side = math.isqrt(n)
        g = nx.grid_2d_graph(side, side)
    else:
        dim = n.bit_length() - 1
        g = nx.hypercube_graph(dim) if dim > 0 else nx.empty_graph(1)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def nx_view(nx, kind, n, down=()):
    """Routes and diameter as networkx computed them: the fresh topology
    with down clusters hidden."""
    g = nx_topology(nx, kind, n)
    g.remove_nodes_from(down)
    routes = {}
    for s in g:
        for d in g:
            try:
                routes[s, d] = nx.shortest_path(g, s, d)
            except nx.NetworkXNoPath:
                routes[s, d] = None
    if len(g) <= 1:
        diameter = 0
    else:
        diameter = nx.diameter(g) if nx.is_connected(g) else None
    return routes, diameter


def our_view(net, live):
    routes = {}
    for s in live:
        for d in live:
            try:
                routes[s, d] = net.route(s, d)
            except RoutingError:
                routes[s, d] = None
    try:
        diameter = net.diameter()
    except RoutingError:
        diameter = None
    return routes, diameter


def faults(kind, n):
    """No fault, then each cluster down: the down clusters."""
    yield ()
    if n in FAULT_SIZES[kind]:
        for c in range(n):
            yield (c,)


class TestNetworkxOracle:
    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_adjacency_order(self, nx, kind):
        for n in SIZES[kind]:
            g = nx_topology(nx, kind, n)
            assert build_topology(kind, n) == {v: list(g.adj[v]) for v in g}
            assert list(build_topology(kind, n)) == list(g)

    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_routes_and_diameter(self, nx, kind):
        for n in SIZES[kind]:
            for down in faults(kind, n):
                net = make(n, kind)
                for c in down:
                    net.fail_cluster(c)
                live = [c for c in range(n) if c not in down]
                assert our_view(net, live) == nx_view(nx, kind, n, down), (
                    n, down)

    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_snapshot_restore_routes(self, nx, kind):
        """A restored network routes like the one it was taken from: the
        topology is rebuilt and the down clusters stay down."""
        for n in SIZES[kind]:
            net = make(n, kind)
            down = (n // 2,) if n > 2 else ()
            for c in down:
                net.fail_cluster(c)
            net.record_transfer(0, 0, 8)
            state = net.snapshot()
            assert state["edges"] == sorted(
                (min(a, b), max(a, b)) for a, b in nx_topology(nx, kind, n).edges)
            fresh = make(n, kind)
            fresh.restore(state)
            assert fresh.snapshot() == state
            live = [c for c in range(n) if c not in down]
            assert our_view(fresh, live) == nx_view(nx, kind, n, down), n
