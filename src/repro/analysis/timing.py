"""Critical-path elapsed-time model for the distributed CG scenario.

Beyond counting flops/words (``complexity``), ref [8]'s methodology
also produced *time* estimates.  This model walks the per-iteration
critical path of :func:`repro.fem.parallel.parallel_cg_solve`:

    root vector writes  ->  serial resume formatting  ->  (parallel)
    worker round trips + matvec  ->  serial pause decoding  ->
    root vector reads + axpys

Queueing inside kernels is not modelled, so the estimate is a lower
bound in spirit; validation asserts agreement within a factor of ~2 on
the benchmark configurations.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..fem.mesh import Mesh
from ..fem.partition import Subdomain
from ..hardware.machine import MachineConfig
from ..hardware.network import build_topology, hop_counts
from ..sysvm.storage import MESSAGE_HEADER_WORDS, WINDOW_DESCRIPTOR_WORDS
from .complexity import subdomain_assembly_flops, payload_words


def _hops_from(config: MachineConfig, root: int) -> List[int]:
    lengths = hop_counts(build_topology(config.topology, config.n_clusters), root)
    return [lengths[c] for c in range(config.n_clusters)]


def _net(config: MachineConfig, hops: int, words: int) -> int:
    size = math.ceil(words / config.bandwidth_words_per_cycle) if words else 0
    return hops * config.hop_latency + size


def estimate_cg_elapsed(
    mesh: Mesh,
    subs: List[Subdomain],
    config: MachineConfig,
    iterations: int,
    root_cluster: int = 0,
) -> Dict[str, int]:
    """Predicted cycles for the distributed CG run, by phase.

    Returns {"setup", "per_iteration", "total"}.
    """
    n = mesh.n_dofs
    p = len(subs)
    hops = _hops_from(config, root_cluster)
    worker_clusters = [i % config.n_clusters for i in range(p)]
    touch = config.word_touch_cycles
    fmt = config.message_fixed_cycles
    disp = config.dispatch_cycles
    hdr = MESSAGE_HEADER_WORDS
    win = WINDOW_DESCRIPTOR_WORDS

    def round_trip(wc: int, request_words: int, reply_words: int,
                   service_cycles: int) -> int:
        """One remote call + return between worker cluster wc and root."""
        h = hops[wc]
        if h == 0 and wc == root_cluster:
            # local service: just the touch cost
            return service_cycles
        return (
            fmt                                  # format the call
            + _net(config, h, hdr + request_words)
            + fmt                                # kernel decode at owner
            + service_cycles                     # data copy (extra_delay)
            + _net(config, h, hdr + reply_words)
            + fmt + disp                         # decode + re-dispatch caller
        )

    # -- per-iteration critical path
    root_serial_head = 2 * touch * n + p * fmt          # write p, zero q, resumes
    worker_paths = []
    for i, sub in enumerate(subs):
        wc = worker_clusters[i]
        b = sub.hull_words
        path = _net(config, hops[wc], hdr)               # resume delivery
        path += fmt + disp                               # decode + dispatch
        path += round_trip(wc, win, 1, touch * 1)        # ctrl read
        path += round_trip(wc, win, b, touch * b)        # p band read
        path += 2 * b * b * config.flop_cycles           # matvec
        path += round_trip(wc, win + b, 0, touch * b)    # q accumulate
        path += fmt                                      # pause format
        path += _net(config, hops[wc], hdr)              # pause delivery
        worker_paths.append(path)
    root_serial_tail = p * (fmt + disp)                  # pause decodes + wakes
    root_serial_tail += touch * n                        # read q
    root_serial_tail += 10 * n * config.flop_cycles      # vector updates
    per_iteration = root_serial_head + max(worker_paths) + root_serial_tail

    # -- setup: payload delivery + assembly + K storage + ready sync
    setup_paths = []
    for i, sub in enumerate(subs):
        wc = worker_clusters[i]
        words = payload_words(mesh, sub)
        path = fmt + _net(config, hops[wc], hdr + words) + fmt + disp
        path += subdomain_assembly_flops(mesh, sub) * config.flop_cycles
        path += touch * sub.hull_words**2                # store K in memory
        path += fmt + _net(config, hops[wc], hdr)        # ready pause
        setup_paths.append(path)
    setup = max(setup_paths) + p * (fmt + disp)

    total = setup + iterations * per_iteration
    return {"setup": setup, "per_iteration": per_iteration, "total": total}


def rank_configurations(
    mesh: Mesh,
    candidates: List[MachineConfig],
    iterations: int,
    workers_for=None,
):
    """Rank machine configurations by predicted solve time — the design
    loop's quantitative step ("adjusting the design ... until the proper
    match of hardware and software organizations is found") without
    running a single simulation.

    ``workers_for(config)`` chooses the partitioning per candidate;
    default is one subdomain per cluster (the regime the time model
    covers — it does not model PE queueing).  Returns
    ``[(config, prediction_dict)]`` sorted by predicted total cycles.
    """
    from ..fem.partition import partition_strips

    if workers_for is None:
        workers_for = lambda cfg: max(2, cfg.n_clusters)
    ranked = []
    for cfg in candidates:
        subs = partition_strips(mesh, workers_for(cfg))
        pred = estimate_cg_elapsed(mesh, subs, cfg, iterations)
        ranked.append((cfg, pred))
    ranked.sort(key=lambda pair: pair[1]["total"])
    return ranked
