"""E2 — The three levels of parallelism named in the conclusion:

  1. "parallelism in user requests for simultaneous solution of several
     independent problems"
  2. "parallelism in the substructure analysis of a larger structure"
  3. "parallelism in the finer structure of solution of a particular
     system of simultaneous equations"

Each level is measured separately: speedup vs the serial baseline at
that level.  The expected shape: every level speeds up, and the
independent-problem level scales best (no communication between jobs).
"""

import numpy as np
import pytest

from conftest import run_once
from repro.bench import Experiment, plane_stress_cantilever
from repro.fem import (
    multilevel_substructure_solve,
    parallel_cg_solve,
    parallel_substructure_solve,
    partition_strips,
    static_solve,
)
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program


def cfg(clusters=4, pes=5):
    return MachineConfig(n_clusters=clusters, pes_per_cluster=pes,
                         memory_words_per_cluster=32_000_000)


def level1_independent_problems(exp):
    """J identical jobs, run one-after-another vs all-at-once."""

    def job_body_factory(prog):
        @prog.task("job")
        def job(ctx, jid):
            yield ctx.compute(cycles=50_000)
            return jid

        return job

    cycles = []
    for j in (1, 2, 4, 8):
        prog = Fem2Program(cfg())
        job_body_factory(prog)
        prog.run_all([("job", (i,)) for i in range(j)])
        cycles.append(prog.now)
    # serial baseline: j * single-job time
    serial = [cycles[0] * j for j in (1, 2, 4, 8)]
    for j, c, s in zip((1, 2, 4, 8), cycles, serial):
        exp.add_row("1 independent problems", f"{j} jobs", c, s / c)
    return cycles


def level2_substructures(exp, problem, ref):
    cycles = []
    for parts in (1, 2, 4, 8):
        prog = Fem2Program(cfg())
        subs = partition_strips(problem.mesh, parts)
        info = parallel_substructure_solve(
            prog, problem.mesh, problem.material, problem.constraints,
            problem.loads, subs=subs,
        )
        assert np.allclose(info.u, ref.u, atol=1e-7 * np.abs(ref.u).max())
        cycles.append(info.elapsed_cycles)
        exp.add_row("2 substructures", f"{parts} substructures",
                    info.elapsed_cycles, cycles[0] / info.elapsed_cycles)
    return cycles


def level3_equation_solution(exp, problem, ref):
    cycles = []
    for workers in (1, 2, 4, 8):
        prog = Fem2Program(cfg())
        subs = partition_strips(problem.mesh, workers)
        info = parallel_cg_solve(
            prog, problem.mesh, problem.material, problem.constraints,
            problem.loads, subs=subs, tol=1e-8,
        )
        assert np.allclose(info.u, ref.u, atol=1e-5 * np.abs(ref.u).max())
        cycles.append(info.elapsed_cycles)
        exp.add_row("3 equation solution", f"{workers} workers",
                    info.elapsed_cycles, cycles[0] / info.elapsed_cycles)
    return cycles


def run_e2():
    exp = Experiment("E2", "the three levels of FEM-2 parallelism")
    exp.set_headers("level", "scale", "cycles", "speedup")
    problem = plane_stress_cantilever(12)
    ref = static_solve(problem.mesh, problem.material, problem.constraints,
                       problem.loads)
    c1 = level1_independent_problems(exp)
    c2 = level2_substructures(exp, problem, ref)
    c3 = level3_equation_solution(exp, problem, ref)
    # level 2 extension: the substructure *tree* (host-side flop model)
    for leaves, group in ((4, 4), (8, 2)):
        sol = multilevel_substructure_solve(
            problem.mesh, problem.material, problem.constraints,
            problem.loads, leaves=leaves, group=group,
        )
        assert np.allclose(sol.u, ref.u, atol=1e-7 * np.abs(ref.u).max())
        exp.add_row(
            "2b multilevel tree",
            f"{leaves} leaves/{sol.levels} levels",
            sol.condensation_flops,  # flops, not cycles: host-side model
            1.0,
        )
    exp.note("the '2b' rows report condensation flops of the substructure "
             "tree (host model), not machine cycles")
    exp.note("speedup is vs the 1-way configuration of the same level")
    exp.note(f"problem for levels 2/3: {problem.name} ({problem.mesh.n_dofs} dofs)")
    exp.note(
        "levels 2/3 can exceed ideal speedup: partitioning also shrinks the "
        "dense per-subdomain stiffness blocks, so total arithmetic falls "
        "with P (the classic superlinear effect of dense substructuring)"
    )
    return exp, (c1, c2, c3)


def test_e2_parallelism_levels(benchmark, experiment_sink):
    exp, (c1, c2, c3) = run_once(benchmark, run_e2)
    experiment_sink(exp)
    # level 1: independent problems overlap near-perfectly up to the
    # worker count (J jobs take about as long as 1)
    assert c1[1] < 1.05 * c1[0]
    assert c1[2] < 1.05 * c1[0]
    # level 2: substructuring pays off
    assert c2[2] < c2[0]
    # level 3: equation-level parallelism pays off and keeps paying to 8-way
    assert c3[1] < c3[0]
    assert c3[3] < c3[1]
