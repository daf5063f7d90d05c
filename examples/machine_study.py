"""A machine-design study: the simulations the FEM-2 designers ran.

"The precise formal definitions are then used as the basis for
simulations of the various virtual machine levels.  Simulations to
measure the storage, processing, and communication patterns in typical
FEM-2 applications ... are of particular importance."

This script closes the paper's design loop quantitatively:

1. predict solve times for candidate machine configurations from the
   analytic critical-path model (no simulation),
2. pick the best candidate and *verify* it by running the simulator,
3. inspect the run's communication pattern (hub score, burstiness,
   concurrency profile) — the evidence a designer needs to choose a
   topology and dispatch policy.

Run:  python examples/machine_study.py
"""

import numpy as np

from repro import Fem2Program, MachineConfig
from repro.analysis import (
    Measured,
    communication_matrix,
    concurrency_profile,
    burstiness,
    estimate_cg_elapsed,
    hub_score,
    rank_configurations,
)
from repro.bench import plane_stress_cantilever
from repro.fem import parallel_cg_solve, partition_strips, static_solve
from repro.obs import Tracer


def main() -> None:
    problem = plane_stress_cantilever(12)
    print(f"application: {problem.name} — {problem.mesh.n_dofs} dofs, "
          f"{problem.mesh.n_elements} elements\n")

    # 1. paper-style prediction: rank candidate machines without running
    candidates = [
        MachineConfig(n_clusters=c, pes_per_cluster=5, topology=t,
                      memory_words_per_cluster=32_000_000)
        for c, t in ((2, "complete"), (4, "complete"), (4, "ring"),
                     (8, "hypercube"))
    ]
    ranked = rank_configurations(problem.mesh, candidates, iterations=60)
    print("predicted ranking (critical-path model, no simulation):")
    for cfg, pred in ranked:
        print(f"  {cfg.n_clusters} clusters / {cfg.topology:<9} -> "
              f"{pred['total']:>10,} cycles predicted "
              f"({pred['per_iteration']:,}/iteration)")

    # 2. verify the winner on the simulator
    best_cfg, best_pred = ranked[0]
    tracer = Tracer()
    prog = Fem2Program(best_cfg, tracer=tracer)
    subs = partition_strips(problem.mesh, max(2, best_cfg.n_clusters))
    info = parallel_cg_solve(prog, problem.mesh, problem.material,
                             problem.constraints, problem.loads,
                             subs=subs, tol=1e-8)
    ref = static_solve(problem.mesh, problem.material, problem.constraints,
                       problem.loads)
    err = np.abs(info.u - ref.u).max() / np.abs(ref.u).max()
    pred = estimate_cg_elapsed(problem.mesh, subs, best_cfg, info.iterations)
    print(f"\nverification run on the winner "
          f"({best_cfg.n_clusters} clusters / {best_cfg.topology}):")
    print(f"  measured {info.elapsed_cycles:,} cycles vs predicted "
          f"{pred['total']:,} (ratio {pred['total'] / info.elapsed_cycles:.3f})")
    print(f"  {info.iterations} CG iterations, solution error vs host "
          f"{err:.1e}")

    measured = Measured.from_metrics(prog.metrics)
    print(f"  processing {measured.flops:,} flops | communication "
          f"{measured.messages:,} messages, {measured.message_words:,} words "
          f"| storage hwm {measured.storage_hwm_words:,} words")

    # 3. the communication pattern, from the trace
    m = communication_matrix(tracer, best_cfg.n_clusters)
    print(f"\ncommunication pattern:")
    print(f"  hub score {hub_score(m):.2f} (1.0 = pure hub-and-spoke "
          f"through the root cluster)")
    print(f"  burstiness {burstiness(tracer):.2f} (peak/mean messages per "
          f"time bin)")
    profile = concurrency_profile(prog, bins=12)
    bar = " ".join(str(c) for c in profile)
    print(f"  tasks in flight per time bin: {bar}")
    print("\nconclusion: the traffic is root-centric — a cheap topology "
          "that serves the hub pattern (even a star) matches the complete "
          "graph, which is exactly the kind of finding the FEM-2 design "
          "iterations were meant to surface.")


if __name__ == "__main__":
    main()
