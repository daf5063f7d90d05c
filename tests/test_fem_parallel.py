"""The crown integration tests: distributed FEM on the simulated FEM-2
machine matches the host-side oracles."""

import numpy as np
import pytest

from repro.errors import FEMError
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program
from repro.fem import (
    Constraints,
    LoadSet,
    Material,
    parallel_cg_solve,
    parallel_substructure_solve,
    partition_bisection,
    rect_grid,
    static_solve,
    substructure_solve,
)

MAT = Material(e=70e9, nu=0.3, thickness=0.01)


def make_program(n_clusters=2, pes=4):
    cfg = MachineConfig(
        n_clusters=n_clusters,
        pes_per_cluster=pes,
        memory_words_per_cluster=4_000_000,
    )
    return Fem2Program(cfg)


def problem(nx=6, ny=3):
    m = rect_grid(nx, ny, 2.0, 1.0)
    c = Constraints(m).fix_nodes(m.nodes_on(x=0.0))
    loads = LoadSet().add_nodal_many(m.nodes_on(x=2.0), 1, -1e4)
    return m, c, loads


class TestParallelCG:
    def test_matches_host_solution(self):
        m, c, loads = problem()
        ref = static_solve(m, MAT, c, loads)
        prog = make_program()
        info = parallel_cg_solve(prog, m, MAT, c, loads, n_workers=3, tol=1e-10)
        assert info.converged
        assert np.allclose(info.u, ref.u, atol=1e-6 * abs(ref.u).max())

    def test_machine_observables(self):
        m, c, loads = problem(4, 2)
        prog = make_program()
        info = parallel_cg_solve(prog, m, MAT, c, loads, n_workers=2, tol=1e-8)
        metr = prog.metrics
        assert info.elapsed_cycles > 0
        assert metr.get("comm.messages.initiate_task") >= 1
        assert metr.get("task.pauses") >= 2 * info.iterations
        assert metr.get("comm.messages.remote_call") > 0  # window traffic
        assert metr.get("proc.flops") > 0
        assert len(info.worker_stats) == 2
        assert all(s["rounds"] == info.iterations for s in info.worker_stats)

    def test_single_worker(self):
        m, c, loads = problem(3, 2)
        ref = static_solve(m, MAT, c, loads)
        prog = make_program(n_clusters=1)
        info = parallel_cg_solve(prog, m, MAT, c, loads, n_workers=1, tol=1e-10)
        assert np.allclose(info.u, ref.u, atol=1e-6 * abs(ref.u).max())

    def test_rejects_inhomogeneous_bc(self):
        m, c, loads = problem(3, 2)
        c.prescribe(m.n_nodes - 1, 0, 0.5)
        with pytest.raises(FEMError):
            parallel_cg_solve(make_program(), m, MAT, c, loads)

    def test_more_workers_do_not_change_answer(self):
        m, c, loads = problem(8, 2)
        u = {}
        for w in (2, 4):
            prog = make_program(n_clusters=2)
            u[w] = parallel_cg_solve(prog, m, MAT, c, loads, n_workers=w, tol=1e-10).u
        assert np.allclose(u[2], u[4], atol=1e-6 * abs(u[2]).max())


class TestParallelSubstructure:
    def test_matches_host_substructure_and_direct(self):
        m, c, loads = problem()
        ref = static_solve(m, MAT, c, loads)
        host = substructure_solve(m, MAT, c, loads, n_substructures=3)
        prog = make_program()
        info = parallel_substructure_solve(prog, m, MAT, c, loads, n_substructures=3)
        assert np.allclose(host.u, ref.u, atol=1e-9 * abs(ref.u).max())
        assert np.allclose(info.u, ref.u, atol=1e-8 * abs(ref.u).max())

    def test_uses_pause_resume_and_broadcast(self):
        m, c, loads = problem(4, 2)
        prog = make_program()
        parallel_substructure_solve(prog, m, MAT, c, loads, n_substructures=2)
        metr = prog.metrics
        assert metr.get("task.pauses") == 2         # one per substructure
        assert metr.get("comm.messages.resume_task") == 2
        assert metr.get("comm.broadcasts") == 2     # schur hand-off to root
        assert metr.get("comm.messages.terminate_notify") == 2

    def test_with_bisection_partitions(self):
        m, c, loads = problem(6, 2)
        ref = static_solve(m, MAT, c, loads)
        subs = partition_bisection(m, 4)
        prog = make_program()
        info = parallel_substructure_solve(prog, m, MAT, c, loads, subs=subs)
        assert np.allclose(info.u, ref.u, atol=1e-8 * abs(ref.u).max())

    def test_worker_stats(self):
        m, c, loads = problem()
        prog = make_program()
        info = parallel_substructure_solve(prog, m, MAT, c, loads, n_substructures=3)
        assert len(info.worker_stats) == 3
        assert all(s["boundary"] > 0 for s in info.worker_stats)


class TestScaling:
    def test_parallel_cg_speeds_up_with_workers(self):
        """Equation-level parallelism: more workers, fewer cycles."""
        m, c, loads = problem(12, 4)

        def cycles(workers, clusters):
            prog = make_program(n_clusters=clusters, pes=4)
            info = parallel_cg_solve(prog, m, MAT, c, loads, n_workers=workers, tol=1e-8)
            assert info.converged
            return info.elapsed_cycles

        assert cycles(4, 4) < cycles(1, 1)

