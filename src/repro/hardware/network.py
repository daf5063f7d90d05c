"""The common communication network between clusters.

"Sets of clusters communicate through a common communication network."
The requirements call for *large messages*, *irregular communication
patterns*, extensibility to larger configurations, and reconfigurability
around faults — so the network model supports several topologies,
shortest-path routing that recomputes when links or clusters fail, and
per-link traffic counters.

Cost model: a message of ``size`` words over a route of ``h`` hops costs

    latency = h * hop_latency + ceil(size / bandwidth_words_per_cycle)

i.e. a per-hop switching cost plus a size term pipelined across the
route (wormhole-style), which is the standard first-order model and
matches what ref [8]'s estimates assume.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..errors import ConfigurationError, RoutingError
from .metrics import Cells, MetricsRegistry

TOPOLOGIES = ("complete", "ring", "mesh2d", "hypercube", "star")


def build_topology(kind: str, n: int) -> "nx.Graph":
    """Build the cluster interconnect graph for *n* clusters."""
    if n < 1:
        raise ConfigurationError(f"need at least one cluster, got {n}")
    if kind == "complete":
        return nx.complete_graph(n) if n > 1 else nx.empty_graph(1)
    if kind == "ring":
        return nx.cycle_graph(n) if n > 2 else nx.path_graph(n)
    if kind == "star":
        return nx.star_graph(n - 1) if n > 1 else nx.empty_graph(1)
    if kind == "mesh2d":
        side = int(math.isqrt(n))
        if side * side != n:
            raise ConfigurationError(f"mesh2d needs a square cluster count, got {n}")
        g = nx.grid_2d_graph(side, side)
        return nx.convert_node_labels_to_integers(g, ordering="sorted")
    if kind == "hypercube":
        dim = n.bit_length() - 1
        if 1 << dim != n:
            raise ConfigurationError(f"hypercube needs a power-of-two cluster count, got {n}")
        g = nx.hypercube_graph(dim) if dim > 0 else nx.empty_graph(1)
        return nx.convert_node_labels_to_integers(g, ordering="sorted")
    raise ConfigurationError(f"unknown topology {kind!r}; one of {TOPOLOGIES}")


class Network:
    """Shortest-path routed interconnect with traffic accounting."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        n_clusters: int,
        topology: str = "complete",
        hop_latency: int = 10,
        bandwidth_words_per_cycle: int = 4,
    ) -> None:
        if hop_latency < 0 or bandwidth_words_per_cycle <= 0:
            raise ConfigurationError("hop_latency >= 0 and bandwidth > 0 required")
        self.metrics = metrics
        self.n_clusters = n_clusters
        self.topology_name = topology
        self.hop_latency = hop_latency
        self.bandwidth = bandwidth_words_per_cycle
        self.graph = build_topology(topology, n_clusters)
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        self._link_traffic: Dict[Tuple[int, int], int] = {}
        self._down_clusters: set = set()
        self._cells = Cells(metrics, {"comm.network_transfers": 0.0,
                                      "comm.network_words": 0}, hists=("comm.hops",))

    # -- fault handling --------------------------------------------------

    def fail_link(self, a: int, b: int) -> None:
        if not self.graph.has_edge(a, b):
            raise RoutingError(f"no link between clusters {a} and {b}")
        self.graph.remove_edge(a, b)
        self._route_cache.clear()
        self.metrics.incr("fault.link_failures")

    def fail_cluster(self, cid: int) -> None:
        """Isolate a cluster: all its links go down, routes recompute."""
        if cid not in self.graph:
            raise RoutingError(f"unknown cluster {cid}")
        self._down_clusters.add(cid)
        self._route_cache.clear()

    def restore_cluster(self, cid: int) -> None:
        self._down_clusters.discard(cid)
        self._route_cache.clear()

    def is_cluster_up(self, cid: int) -> bool:
        return cid not in self._down_clusters

    # -- checkpoint/restore ----------------------------------------------

    def snapshot(self) -> dict:
        return {
            "edges": sorted((min(a, b), max(a, b)) for a, b in self.graph.edges),
            "down_clusters": sorted(self._down_clusters),
            "link_traffic": dict(self._link_traffic),
        }

    def restore(self, state: dict) -> None:
        """Rebuild the topology, then drop edges lost to link faults.
        The route cache is left cold — routes recompute deterministically."""
        self.graph = build_topology(self.topology_name, self.n_clusters)
        kept = {(min(a, b), max(a, b)) for a, b in state["edges"]}
        for a, b in list(self.graph.edges):
            if (min(a, b), max(a, b)) not in kept:
                self.graph.remove_edge(a, b)
        self._down_clusters = set(state["down_clusters"])
        self._link_traffic = dict(state["link_traffic"])
        self._route_cache.clear()

    # -- routing ----------------------------------------------------------

    def route(self, src: int, dst: int) -> List[int]:
        """The cluster sequence from *src* to *dst* (inclusive).

        Raises :class:`RoutingError` if either endpoint is down or the
        topology is disconnected between them.
        """
        if src in self._down_clusters or dst in self._down_clusters:
            raise RoutingError(f"cluster down on route {src}->{dst}")
        if src == dst:
            return [src]
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        view = nx.restricted_view(self.graph, nodes=list(self._down_clusters), edges=[])
        try:
            path = nx.shortest_path(view, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise RoutingError(f"no route from cluster {src} to {dst}") from None
        self._route_cache[key] = path
        return path

    def hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst)) - 1

    def transfer_cost(self, src: int, dst: int, size_words: int) -> int:
        """Latency in cycles to move *size_words* from src to dst.

        Intra-cluster transfers (src == dst) pay only the size term with
        no hop latency — shared memory, not the network.
        """
        return self._latency(self.hops(src, dst), size_words)

    def _latency(self, hops: int, size_words: int) -> int:
        size_cycles = math.ceil(size_words / self.bandwidth) if size_words else 0
        return hops * self.hop_latency + size_cycles

    def record_transfer(self, src: int, dst: int, size_words: int) -> int:
        """Route, account traffic on every link, return :meth:`transfer_cost`."""
        path = self.route(src, dst)
        traffic = self._link_traffic
        for a, b in zip(path, path[1:]):
            link = (a, b) if a < b else (b, a)
            traffic[link] = traffic.get(link, 0) + size_words
        hops = len(path) - 1
        cells = self._cells
        if cells.version != self.metrics.version:
            cells.fetch()
        transfers, words, hop_hist = cells.items
        transfers.value += 1
        words.value += size_words
        hop_hist.observe(hops)
        return self._latency(hops, size_words)

    def link_traffic(self) -> Dict[Tuple[int, int], int]:
        """Words carried per link, for the E3 network-load table."""
        return dict(self._link_traffic)

    def max_link_load(self) -> int:
        return max(self._link_traffic.values(), default=0)

    def diameter(self) -> int:
        view = nx.restricted_view(self.graph, nodes=list(self._down_clusters), edges=[])
        if view.number_of_nodes() <= 1:
            return 0
        return nx.diameter(view)
