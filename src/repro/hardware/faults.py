"""Fault injection and reconfiguration.

The paper's architecture requirements include "provide reconfigurability
to isolate faulty hardware components".  The injector fails PEs or whole
clusters at scheduled simulation times; reconfiguration removes
the faulty components from routing and dispatch so the rest of the
machine keeps working.  Experiment E7 measures throughput with
reconfiguration on versus off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import FaultError
from .machine import Machine
from .pe import PEState


@dataclass
class FaultRecord:
    time: int
    kind: str            # "pe" | "cluster"
    target: Tuple        # (cluster, pe) or (cluster,)


RECOVERY_MODES = ("restart", "checkpoint")


class FaultInjector:
    """Injects faults into a machine, immediately or at a future time.

    Two recovery models are supported.  ``recovery="restart"`` (the
    paper's original task-farm model) restarts interrupted tasks from
    the beginning on surviving hardware.  ``recovery="checkpoint"``
    instead *halts* the engine at the fault and sets
    :attr:`needs_recovery`; the driver then restores the last
    checkpoint into a fresh program (see :class:`repro.ckpt.Checkpointer`)
    and deterministically replays, losing only the work since that
    checkpoint.
    """

    def __init__(
        self,
        machine: Machine,
        reconfigure: bool = True,
        runtime=None,
        recovery: str = "restart",
    ) -> None:
        if recovery not in RECOVERY_MODES:
            raise FaultError(
                f"unknown recovery mode {recovery!r}; one of {RECOVERY_MODES}"
            )
        self.machine = machine
        #: when False, faulty components stay in the routing/dispatch sets,
        #: modelling a machine without the paper's reconfigurability.
        self.reconfigure = reconfigure
        #: a ``repro.sysvm.runtime.Runtime`` to notify, so interrupted
        #: tasks are restarted (PE fault) or reported lost (cluster fault)
        self.runtime = runtime
        self.recovery = recovery
        #: set when a fault occurred under checkpoint recovery; the run
        #: loop has been halted and a restore is required to continue
        self.needs_recovery = False
        self.log: List[FaultRecord] = []

    # -- immediate faults ----------------------------------------------------

    def fail_pe(self, cluster_id: int, pe_index: int) -> None:
        pe = self.machine.cluster(cluster_id).pes[pe_index]
        if pe.is_kernel:
            # losing the kernel PE takes the whole cluster down
            raise FaultError(
                "kernel PE failure takes the cluster down; use fail_cluster"
            )
        pe.fail()
        self.log.append(FaultRecord(self.machine.now, "pe", (cluster_id, pe_index)))
        if self.recovery == "checkpoint":
            self._halt_for_recovery()
        elif self.runtime is not None and self.reconfigure:
            self.runtime.recover_pe_failure(pe)

    def fail_cluster(self, cluster_id: int) -> None:
        cluster = self.machine.cluster(cluster_id)
        # the queue is about to be dropped; capture it first so recovery
        # can report tasks whose INITIATE died in the queue
        dropped = list(cluster.input_queue)
        cluster.fail()
        if self.reconfigure:
            self.machine.network.fail_cluster(cluster_id)
        self.log.append(FaultRecord(self.machine.now, "cluster", (cluster_id,)))
        if self.recovery == "checkpoint":
            self._halt_for_recovery()
        elif self.runtime is not None:
            self.runtime.recover_cluster_failure(cluster_id, dropped=dropped)

    def _halt_for_recovery(self) -> None:
        self.needs_recovery = True
        self.machine.engine.halt()
        self.machine.metrics.incr("fault.halts")

    # -- scheduled faults -------------------------------------------------------

    def schedule_pe_failure(self, at: int, cluster_id: int, pe_index: int) -> None:
        self.machine.engine.schedule_at(at, self.fail_pe, cluster_id, pe_index)

    def schedule_cluster_failure(self, at: int, cluster_id: int) -> None:
        self.machine.engine.schedule_at(at, self.fail_cluster, cluster_id)

    # -- state ----------------------------------------------------------------

    def healthy_worker_count(self) -> int:
        return sum(
            1
            for c in self.machine.live_clusters()
            for pe in c.worker_pes
            if pe.state is not PEState.FAULTY
        )
