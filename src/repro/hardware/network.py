"""The common communication network between clusters.

"Sets of clusters communicate through a common communication network."
The requirements call for *large messages*, *irregular communication
patterns*, extensibility to larger configurations, and reconfigurability
around faults — so the network model supports several topologies,
shortest-path routing that recomputes when clusters fail, and per-link
traffic counters.

Cost model: a message of ``size`` words over a route of ``h`` hops costs

    latency = h * hop_latency + ceil(size / bandwidth_words_per_cycle)

i.e. a per-hop switching cost plus a size term pipelined across the
route (wormhole-style), which is the standard first-order model and
matches what ref [8]'s estimates assume.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, RoutingError
from .metrics import Cells, MetricsRegistry

TOPOLOGIES = ("complete", "ring", "mesh2d", "hypercube", "star")

#: cluster -> neighbours.  Neighbour order is part of the model: routing
#: breaks hop-count ties by it, so it is the order networkx's generators
#: insert edges in (the routes E7 / A2 and the golden traces pin).
Adjacency = Dict[int, List[int]]


def build_topology(kind: str, n: int) -> Adjacency:
    """The cluster interconnect for *n* clusters as an adjacency."""
    if n < 1:
        raise ConfigurationError(f"need at least one cluster, got {n}")
    nodes = range(n)
    if kind == "complete" or (kind == "ring" and n <= 2):
        return {v: [u for u in nodes if u != v] for v in nodes}
    if kind == "ring":
        return {v: [v - 1, (v + 1) % n] if v else [1, n - 1] for v in nodes}
    if kind == "star":
        return {v: list(range(1, n)) if v == 0 else [0] for v in nodes}
    if kind == "mesh2d":
        side = math.isqrt(n)
        if side * side != n:
            raise ConfigurationError(f"mesh2d needs a square cluster count, got {n}")
        adj = {}
        for v in nodes:
            row, col = divmod(v, side)
            adj[v] = [u for u, ok in ((v - side, row > 0), (v - 1, col > 0),
                                      (v + side, row < side - 1),
                                      (v + 1, col < side - 1)) if ok]
        return adj
    if kind == "hypercube":
        dim = n.bit_length() - 1
        if 1 << dim != n:
            raise ConfigurationError(f"hypercube needs a power-of-two cluster count, got {n}")
        bits = range(dim - 1, -1, -1)
        # lower neighbours ascending, then upper ones by descending bit
        return {v: [v ^ 1 << b for b in bits if v >> b & 1]
                + [v | 1 << b for b in bits if not v >> b & 1] for v in nodes}
    raise ConfigurationError(f"unknown topology {kind!r}; one of {TOPOLOGIES}")


def hop_counts(adj: Adjacency, root: int, down: Collection[int] = ()) -> Dict[int, int]:
    """Breadth-first hop count from *root* to every cluster reachable
    without passing through a *down* one."""
    dist = {root: 0}
    fringe = [root]
    while fringe:
        level = []
        for v in fringe:
            for w in adj[v]:
                if w not in dist and w not in down:
                    dist[w] = dist[v] + 1
                    level.append(w)
        fringe = level
    return dist


def shortest_path(adj: Adjacency, src: int, dst: int,
                  down: Collection[int] = ()) -> Optional[List[int]]:
    """A fewest-hop route from *src* to *dst* avoiding *down* clusters,
    or None.  This is networkx 3.6's bidirectional BFS
    (``_bidirectional_pred_succ`` and the path assembly of
    ``bidirectional_shortest_path``): among equal-length routes it picks
    the one networkx does, so simulated routes did not move when the
    library went."""
    if src == dst:
        return [src]
    pred: Dict[int, Optional[int]] = {src: None}
    succ: Dict[int, Optional[int]] = {dst: None}
    forward, reverse = [src], [dst]
    meet = None
    while forward and reverse and meet is None:
        # grow the smaller fringe one level; stop at the first node both
        # searches have seen
        if len(forward) <= len(reverse):
            forward, meet = _grow(adj, forward, pred, succ, down)
        else:
            reverse, meet = _grow(adj, reverse, succ, pred, down)
    if meet is None:
        return None
    path = []
    w: Optional[int] = meet
    while w is not None:
        path.append(w)
        w = pred[w]
    path.reverse()
    w = succ[meet]
    while w is not None:
        path.append(w)
        w = succ[w]
    return path


def _grow(adj, fringe, seen, other, down):
    """One BFS level out of *fringe*, recording parents in *seen*;
    returns the next fringe and the first node *other* has seen."""
    level = []
    for v in fringe:
        for w in adj[v]:
            if w in down:
                continue
            if w not in seen:
                level.append(w)
                seen[w] = v
            if w in other:
                return level, w
    return level, None


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
        self.adj = build_topology(topology, n_clusters)
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        self._link_traffic: Dict[Tuple[int, int], int] = {}
        self._down_clusters: set = set()
        self._cells = Cells(metrics, {"comm.network_transfers": 0.0,
                                      "comm.network_words": 0}, hists=("comm.hops",))

    # -- fault handling --------------------------------------------------

    def fail_cluster(self, cid: int) -> None:
        """Isolate a cluster: all its links go down, routes recompute."""
        if cid not in self.adj:
            raise RoutingError(f"unknown cluster {cid}")
        self._down_clusters.add(cid)
        self._route_cache.clear()

    def is_cluster_up(self, cid: int) -> bool:
        return cid not in self._down_clusters

    # -- checkpoint/restore ----------------------------------------------

    def snapshot(self) -> dict:
        return {
            "edges": sorted((a, b) for a, nbrs in self.adj.items() for b in nbrs if a < b),
            "down_clusters": sorted(self._down_clusters),
            "link_traffic": dict(self._link_traffic),
        }

    def restore(self, state: dict) -> None:
        """Rebuild the topology (links do not fail, so ``edges`` is the
        topology's own).  The route cache is left cold — routes recompute
        deterministically."""
        self.adj = build_topology(self.topology_name, self.n_clusters)
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
        if src not in self.adj or dst not in self.adj:
            raise RoutingError(f"no route from cluster {src} to {dst}")
        path = shortest_path(self.adj, src, dst, self._down_clusters)
        if path is None:
            raise RoutingError(f"no route from cluster {src} to {dst}")
        self._route_cache[key] = path
        return path

    def _latency(self, hops: int, size_words: int) -> int:
        """Intra-cluster transfers (no hops) pay only the size term —
        shared memory, not the network."""
        size_cycles = math.ceil(size_words / self.bandwidth) if size_words else 0
        return hops * self.hop_latency + size_cycles

    def record_transfer(self, src: int, dst: int, size_words: int) -> int:
        """Route, account traffic on every link, return the latency."""
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
        """Most hops between two live clusters.  Raises
        :class:`RoutingError` if the live clusters are disconnected."""
        down = self._down_clusters
        live = [c for c in self.adj if c not in down]
        longest = 0
        for c in live:
            dist = hop_counts(self.adj, c, down)
            if len(dist) < len(live):
                raise RoutingError("live clusters are disconnected")
            longest = max(longest, max(dist.values()))
        return longest
