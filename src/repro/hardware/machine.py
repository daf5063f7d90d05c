"""The FEM-2 machine: configuration and top-level simulator assembly.

A :class:`Machine` wires together the event engine, metrics registry,
clusters, and network, and provides the one hardware primitive the
system VM needs: :meth:`deliver` — move a message of a given size from
one cluster to another and hand it to the destination's input queue
after the modelled network latency.

Configurations are value objects (:class:`MachineConfig`) so benchmark
sweeps can enumerate them declaratively; ``MachineConfig.small()`` etc.
give the standard sizes used across the experiment suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Tuple

from ..errors import ConfigurationError, FaultError, RoutingError
from .cluster import Cluster
from .events import ENGINES, EventEngine
from .metrics import Cells, MetricsRegistry
from .network import TOPOLOGIES, Network


@dataclass(frozen=True)
class MachineConfig:
    """Declarative description of one FEM-2 configuration.

    ``pes_per_cluster`` includes the kernel PE, so the number of worker
    PEs per cluster is ``pes_per_cluster - 1``.  All costs are in cycles
    and words (1 word = one floating-point value).
    """

    n_clusters: int = 4
    pes_per_cluster: int = 5
    memory_words_per_cluster: int = 1 << 22
    topology: str = "complete"
    hop_latency: int = 10
    bandwidth_words_per_cycle: int = 4
    message_fixed_cycles: int = 20  # kernel format/decode cost per message
    dispatch_cycles: int = 5        # kernel cost to assign a PE
    flop_cycles: int = 1            # cycles per floating-point operation
    word_touch_cycles: int = 1      # cycles per word moved within a cluster
    #: inert: validated against ENGINES and selects nothing (see there)
    engine: str = "default"

    def validate(self) -> None:
        if self.n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1")
        if self.pes_per_cluster < 2:
            raise ConfigurationError("pes_per_cluster must be >= 2 (kernel + worker)")
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        if self.memory_words_per_cluster <= 0:
            raise ConfigurationError("memory_words_per_cluster must be positive")
        if min(self.message_fixed_cycles, self.dispatch_cycles, self.flop_cycles,
               self.word_touch_cycles, self.hop_latency) < 0:
            raise ConfigurationError("cost parameters must be non-negative")
        if self.bandwidth_words_per_cycle <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; one of {ENGINES}"
            )

    @property
    def total_workers(self) -> int:
        return self.n_clusters * (self.pes_per_cluster - 1)

    def scaled(self, **overrides: Any) -> "MachineConfig":
        """A copy with some fields replaced (for parameter sweeps)."""
        return replace(self, **overrides)

    @classmethod
    def small(cls) -> "MachineConfig":
        return cls(n_clusters=2, pes_per_cluster=3)

    @classmethod
    def medium(cls) -> "MachineConfig":
        return cls(n_clusters=4, pes_per_cluster=5)

    @classmethod
    def large(cls) -> "MachineConfig":
        return cls(n_clusters=16, pes_per_cluster=9, topology="hypercube")


class Machine:
    """An instantiated FEM-2 configuration under simulation."""

    def __init__(self, config: MachineConfig, tracer=None) -> None:
        config.validate()
        self.config = config
        self.engine = EventEngine()
        self.metrics = MetricsRegistry()
        #: span tracer shared by every layer running on this machine
        #: (duck-typed: a repro.obs.Tracer, or None for zero-cost off)
        self.tracer = tracer
        self.engine.tracer = tracer
        self.clusters: List[Cluster] = [
            Cluster(
                self.engine,
                self.metrics,
                cid,
                config.pes_per_cluster,
                config.memory_words_per_cluster,
            )
            for cid in range(config.n_clusters)
        ]
        self.network = Network(
            self.metrics,
            config.n_clusters,
            topology=config.topology,
            hop_latency=config.hop_latency,
            bandwidth_words_per_cycle=config.bandwidth_words_per_cycle,
        )
        #: payloads currently traversing the network: key -> (event, dst,
        #: payload).  This is the machine's explicit ownership of in-flight
        #: communication state — checkpoints re-schedule these arrivals,
        #: and fault recovery can enumerate messages doomed to be dropped.
        self._in_flight: Dict[int, Tuple[Any, int, Any]] = {}
        self._flight_key = 0
        self._cells = Cells(self.metrics, {"comm.messages": 0.0, "comm.words": 0},
                            hists=("comm.message_size",))

    # -- access --------------------------------------------------------------

    def cluster(self, cid: int) -> Cluster:
        try:
            return self.clusters[cid]
        except IndexError:
            raise ConfigurationError(f"no cluster {cid}") from None

    def live_clusters(self) -> List[Cluster]:
        return [c for c in self.clusters if not c.failed]

    @property
    def now(self) -> int:
        return self.engine.now

    # -- communication primitive ---------------------------------------------

    def deliver(
        self,
        src: int,
        dst: int,
        size_words: int,
        payload: Any,
        extra_delay: int = 0,
    ) -> None:
        """Send *payload* of *size_words* from cluster *src* to *dst*.

        The payload lands in the destination input queue after the
        network latency (plus *extra_delay*); the destination's
        ``on_message`` hook then fires.  Raises :class:`RoutingError`
        if no route exists — callers (the kernel) decide whether that
        is fatal or triggers rerouting to another cluster.
        """
        if self.clusters[dst].failed or not self.network.is_cluster_up(dst):
            raise RoutingError(f"destination cluster {dst} is down")
        latency = self.network.record_transfer(src, dst, size_words)
        cells = self._cells
        if cells.version != self.metrics.version:
            cells.fetch()
        messages, words, sizes = cells.items
        messages.value += 1
        words.value += size_words
        sizes.observe(size_words)
        self._schedule_arrival(self.engine.now + latency + extra_delay, dst, payload)

    def _schedule_arrival(self, at: int, dst: int, payload: Any) -> None:
        key = self._flight_key
        self._flight_key += 1
        ev = self.engine.schedule_at(at, self._arrive, key, dst, payload)
        self._in_flight[key] = (ev, dst, payload)

    def _arrive(self, key: int, dst: int, payload: Any) -> None:
        self._in_flight.pop(key, None)
        cluster = self.clusters[dst]
        if cluster.failed:
            self.metrics.incr("fault.messages_lost")
            return
        cluster.enqueue(payload)

    def in_flight(self) -> List[Tuple[int, Any]]:
        """Live ``(dst, payload)`` pairs still traversing the network."""
        return [
            (dst, payload)
            for (ev, dst, payload) in self._in_flight.values()
            if not ev.cancelled
        ]

    # -- lifecycle -------------------------------------------------------------

    def run_to_completion(self, max_events: int = 5_000_000) -> int:
        """Drain the event queue; guards against runaway simulations.
        A halted engine (checkpointed fault recovery pending) returns
        quietly — the recovery driver owns what happens next."""
        n = self.engine.run(max_events=max_events)
        if not self.engine.idle() and not self.engine.halted:
            raise ConfigurationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return n

    # -- checkpoint/restore ------------------------------------------------

    def snapshot(self) -> dict:
        """All hardware-owned mutable state.  In-flight payloads are
        captured as (arrival time, original seq, dst, payload)
        descriptors; the engine queue itself is never serialized."""
        flights = [
            (ev.time, ev.seq, dst, payload)
            for (ev, dst, payload) in self._in_flight.values()
            if not ev.cancelled
        ]
        return {
            "engine": self.engine.snapshot(),
            "metrics": self.metrics.snapshot(),
            "clusters": [c.snapshot() for c in self.clusters],
            "network": self.network.snapshot(),
            "in_flight": sorted(flights, key=lambda f: (f[0], f[1])),
        }

    def restore(self, state: dict, pending: list) -> None:
        """Install hardware state; append re-schedule thunks for in-flight
        arrivals to *pending* as ``(time, seq, thunk)`` so the caller can
        interleave them with other layers' events in original order."""
        self.engine.restore(state["engine"])
        self.metrics.restore(state["metrics"])
        for cluster, cstate in zip(self.clusters, state["clusters"]):
            cluster.restore(cstate)
        self.network.restore(state["network"])
        self._in_flight = {}
        self._flight_key = 0
        for time, seq, dst, payload in state["in_flight"]:
            pending.append((
                time, seq,
                lambda t=time, d=dst, p=payload: self._schedule_arrival(t, d, p),
            ))

    # -- summary ----------------------------------------------------------------

    def utilization(self) -> float:
        """Mean worker utilization across live clusters."""
        live = self.live_clusters()
        if not live:
            return 0.0
        return sum(c.utilization() for c in live) / len(live)

    def describe(self) -> str:
        c = self.config
        return (
            f"FEM-2[{c.n_clusters} clusters x {c.pes_per_cluster} PEs, "
            f"{c.topology}, {c.memory_words_per_cluster} words/cluster]"
        )
