"""Tests for the requirement-analysis package: estimates must track what
the simulator actually charges."""

import pytest

from repro.analysis import (
    Measured,
    compare,
    estimate_distributed_cg,
    estimate_substructure,
    payload_words,
    subdomain_assembly_flops,
)
from repro.fem import (
    Constraints,
    LoadSet,
    Material,
    parallel_cg_solve,
    parallel_substructure_solve,
    partition_strips,
    rect_grid,
)
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program

MAT = Material(e=70e9, nu=0.3, thickness=0.01)


def problem(nx=6, ny=3):
    m = rect_grid(nx, ny, 2.0, 1.0)
    c = Constraints(m).fix_nodes(m.nodes_on(x=0.0))
    loads = LoadSet().add_nodal_many(m.nodes_on(x=2.0), 1, -1e4)
    return m, c, loads


def run_cg(nx=6, ny=3, workers=3, clusters=2):
    m, c, loads = problem(nx, ny)
    cfg = MachineConfig(
        n_clusters=clusters, pes_per_cluster=4, memory_words_per_cluster=4_000_000
    )
    prog = Fem2Program(cfg)
    subs = partition_strips(m, workers)
    info = parallel_cg_solve(prog, m, MAT, c, loads, subs=subs, tol=1e-9)
    return m, subs, cfg, prog, info


class TestEstimateShapes:
    def test_phases_present(self):
        m, c, loads = problem()
        subs = partition_strips(m, 3)
        est = estimate_distributed_cg(m, subs, MachineConfig(), iterations=10)
        names = [p.name for p in est.phases]
        assert names == ["setup", "assembly", "iterate", "teardown"]
        assert est.flops > 0 and est.messages > 0 and est.message_words > 0
        assert est.phase("iterate").flops > est.phase("assembly").flops

    def test_estimates_scale_with_problem_size(self):
        small, _, _ = problem(4, 2)
        big, _, _ = problem(8, 4)
        cfg = MachineConfig()
        e_small = estimate_distributed_cg(small, partition_strips(small, 2), cfg, 10)
        e_big = estimate_distributed_cg(big, partition_strips(big, 2), cfg, 10)
        assert e_big.flops > e_small.flops
        assert e_big.message_words > e_small.message_words

    def test_estimates_scale_with_iterations(self):
        m, _, _ = problem()
        subs = partition_strips(m, 2)
        cfg = MachineConfig()
        e10 = estimate_distributed_cg(m, subs, cfg, 10)
        e20 = estimate_distributed_cg(m, subs, cfg, 20)
        assert e20.phase("iterate").messages == 2 * e10.phase("iterate").messages

    def test_payload_words_positive(self):
        m, _, _ = problem()
        for s in partition_strips(m, 3):
            assert payload_words(m, s) > 0
            assert subdomain_assembly_flops(m, s) > 0


class TestValidationAgainstSimulator:
    def test_flops_estimate_exact(self):
        """Flop estimates mirror the runtime's charging rules exactly."""
        m, subs, cfg, prog, info = run_cg()
        est = estimate_distributed_cg(m, subs, cfg, info.iterations)
        measured = Measured.from_metrics(prog.metrics)
        assert est.flops == measured.flops

    def test_messages_within_factor(self):
        m, subs, cfg, prog, info = run_cg()
        est = estimate_distributed_cg(m, subs, cfg, info.iterations)
        report = compare(est, Measured.from_metrics(prog.metrics))
        assert report.within("messages", 1.5), report.render()
        assert report.within("message_words", 2.0), report.render()

    def test_storage_is_the_per_cluster_high_water_only(self):
        """``mem.hwm.<tag>.clusterN`` splits ``mem.hwm.clusterN`` by tag;
        summing the whole prefix counts every word twice."""
        m, subs, cfg, prog, info = run_cg()
        metrics = prog.metrics
        per_cluster = sum(metrics.get(f"mem.hwm.cluster{c}")
                          for c in range(cfg.n_clusters))
        assert per_cluster > 0
        tags = {key.split(".")[0] for key in metrics.by_prefix("mem.hwm")
                if "." in key}
        assert len(tags) > 1  # the solve reserves under several tags
        storage = Measured.from_metrics(metrics).storage_hwm_words
        assert storage == per_cluster
        assert storage < metrics.total("mem.hwm")

    def test_comparison_report_renders(self):
        m, subs, cfg, prog, info = run_cg(4, 2, workers=2)
        est = estimate_distributed_cg(m, subs, cfg, info.iterations)
        text = compare(est, Measured.from_metrics(prog.metrics)).render()
        assert "flops" in text and "est/meas" in text

    def test_substructure_flops_exact(self):
        m, c, loads = problem()
        cfg = MachineConfig(
            n_clusters=2, pes_per_cluster=4, memory_words_per_cluster=4_000_000
        )
        prog = Fem2Program(cfg)
        subs = partition_strips(m, 3)
        info = parallel_substructure_solve(prog, m, MAT, c, loads, subs=subs)
        # extract interface/interior sizes from worker stats
        interior = [s["interior"] for s in info.worker_stats]
        boundary = [s["boundary"] for s in info.worker_stats]
        from repro.fem import interface_dofs

        fixed = set(c.fixed_dofs.tolist())
        nb = len([d for d in interface_dofs(m, subs) if d not in fixed])
        est = estimate_substructure(m, subs, nb, interior, boundary)
        measured = Measured.from_metrics(prog.metrics)
        # estimate omits only the root's word-touch cycles (no flops)
        assert est.flops == measured.flops
