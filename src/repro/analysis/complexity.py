"""Analytic requirement models for FEM phases on a FEM-2 configuration.

Reproduces the methodology of Adams & Voigt (the paper's ref [8]): for
a given algorithm scenario, derive closed-form estimates of the three
quantities the FEM-2 simulations were to measure — processing (flops),
storage (words), and communication (messages, words) — parameterized by
problem size, partitioning, and machine configuration.

The formulas mirror what the run-time system actually charges, so the
validation pass (:mod:`repro.analysis.validate`) can hold flops to
exact agreement and traffic to small factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..fem.elements import element_type
from ..fem.mesh import Mesh
from ..fem.partition import Subdomain
from ..hardware.machine import MachineConfig
from ..sysvm.storage import (
    ACTIVATION_BASE_WORDS,
    ARRAY_DESCRIPTOR_WORDS,
    MESSAGE_HEADER_WORDS,
    WINDOW_DESCRIPTOR_WORDS,
)


@dataclass
class PhaseEstimate:
    """Requirements of one phase of a scenario."""

    name: str
    flops: int = 0
    messages: int = 0
    message_words: int = 0
    storage_words: int = 0  # peak additional storage, machine-wide


@dataclass
class ScenarioEstimate:
    """Requirements of a whole scenario, phase by phase."""

    name: str
    phases: List[PhaseEstimate] = field(default_factory=list)

    @property
    def flops(self) -> int:
        return sum(p.flops for p in self.phases)

    @property
    def messages(self) -> int:
        return sum(p.messages for p in self.phases)

    @property
    def message_words(self) -> int:
        return sum(p.message_words for p in self.phases)

    @property
    def storage_words(self) -> int:
        return sum(p.storage_words for p in self.phases)

    def phase(self, name: str) -> PhaseEstimate:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(name)


def subdomain_assembly_flops(mesh: Mesh, sub: Subdomain) -> int:
    total = 0
    for name, rows in sub.element_rows.items():
        total += len(rows) * element_type(name).flops_per_stiffness()
    return total


def payload_words(mesh: Mesh, sub: Subdomain) -> int:
    """Wire size of one subdomain worker's model payload (matches the
    ``words_of`` sizing of the actual initiate message within a few
    header words)."""
    total = 0
    for name, rows in sub.element_rows.items():
        et = element_type(name)
        ne = len(rows)
        coords = ne * et.nodes_per_element * 2
        dofs = ne * et.dofs_per_element
        total += coords + dofs + 2 * ARRAY_DESCRIPTOR_WORDS
    return total


def estimate_distributed_cg(
    mesh: Mesh,
    subs: List[Subdomain],
    config: MachineConfig,
    iterations: int,
    root_cluster: int = 0,
) -> ScenarioEstimate:
    """Requirements of the distributed-CG scenario of
    :func:`repro.fem.parallel.parallel_cg_solve`.

    ``iterations`` is the CG iteration count (measured or estimated);
    everything else is closed-form.
    """
    n = mesh.n_dofs
    p = len(subs)
    worker_clusters = [i % config.n_clusters for i in range(p)]
    remote = [c for c in worker_clusters if c != root_cluster]
    hdr = MESSAGE_HEADER_WORDS
    win = WINDOW_DESCRIPTOR_WORDS

    # -- setup: distribute the model, load code, first synchronization
    setup = PhaseEstimate("setup")
    setup.messages += p            # initiate_task per worker
    setup.messages += len(set(worker_clusters))  # load_code per cluster
    setup.messages += p            # ready pause notifications
    setup.message_words += sum(payload_words(mesh, s) + hdr + 3 * win for s in subs)
    setup.flops = 0

    # -- assembly: element stiffness formation, on the workers
    assembly = PhaseEstimate("assembly")
    assembly.flops = sum(subdomain_assembly_flops(mesh, s) for s in subs)
    assembly.storage_words = sum(
        s.hull_words**2 + ARRAY_DESCRIPTOR_WORDS for s in subs
    )

    # -- iterate: matvec rounds plus root vector work
    iterate = PhaseEstimate("iterate")
    iterate.flops = iterations * (sum(2 * s.hull_words**2 for s in subs) + 10 * n)
    per_round_msgs = 2 * p                 # pause + resume for every worker
    per_round_msgs += 2 * len(remote)      # ctrl read: call + return
    per_round_msgs += 4 * len(remote)      # p read + q accumulate round trips
    iterate.messages = iterations * per_round_msgs
    band = [s.hull_words for i, s in enumerate(subs) if worker_clusters[i] != root_cluster]
    iterate.message_words = iterations * (
        2 * p * hdr                       # pause/resume are header-only
        + len(remote) * (2 * hdr + win + 2)    # ctrl round trip (1-word array)
        + sum(2 * hdr + win + b for b in band)      # p band read
        + sum(2 * hdr + win + b for b in band)      # q band accumulate
    )
    iterate.storage_words = 3 * n + ARRAY_DESCRIPTOR_WORDS * 3  # p, q, ctrl at root

    # -- teardown: stop round and terminations
    teardown = PhaseEstimate("teardown")
    teardown.messages = p + p + 2 * len(remote)  # resume + terminate + final ctrl read
    teardown.message_words = teardown.messages * (hdr + 8)

    return ScenarioEstimate(
        "distributed_cg", [setup, assembly, iterate, teardown]
    )


def estimate_substructure(
    mesh: Mesh,
    subs: List[Subdomain],
    interface_size: int,
    interior_sizes: List[int],
    boundary_sizes: List[int] = None,
) -> ScenarioEstimate:
    """Requirements of the distributed substructure scenario.

    ``boundary_sizes`` are the per-substructure interface DOF counts
    (each substructure only touches its own share of the interface);
    when omitted the global interface size is used for each, an upper
    bound.
    """
    if boundary_sizes is None:
        boundary_sizes = [interface_size] * len(subs)
    est = ScenarioEstimate("distributed_substructure")
    assembly = PhaseEstimate("assembly")
    assembly.flops = sum(subdomain_assembly_flops(mesh, s) for s in subs)
    est.phases.append(assembly)
    condense = PhaseEstimate("condense")
    nb = interface_size
    for ni, nbw in zip(interior_sizes, boundary_sizes):
        condense.flops += ni**3 // 3 + 2 * ni * ni * (nbw + 1)
    condense.messages = len(subs)  # schur broadcast to root
    condense.message_words = sum(
        nbw * nbw + nbw + MESSAGE_HEADER_WORDS for nbw in boundary_sizes
    )
    est.phases.append(condense)
    interface = PhaseEstimate("interface")
    interface.flops = nb**3 // 3 + 2 * nb * nb
    est.phases.append(interface)
    backsub = PhaseEstimate("back_substitute")
    for ni, nbw in zip(interior_sizes, boundary_sizes):
        backsub.flops += 2 * ni * nbw + 2 * ni * ni
    backsub.messages = 4 * len(subs)  # resume, u read, u accumulate, terminate
    est.phases.append(backsub)
    return est
