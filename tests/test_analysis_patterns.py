"""Tests for communication-pattern analysis over traced runs."""

import json
import pathlib

import numpy as np
import pytest

from repro.analysis import (
    burstiness,
    communication_matrix,
    concurrency_profile,
    hub_score,
    kind_timeline,
    pattern_report,
    task_spans,
    traffic_timeline,
)
from repro.bench import plane_stress_cantilever
from repro.errors import AnalysisError
from repro.fem import parallel_cg_solve, parallel_substructure_solve, partition_strips
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program
from repro.obs import Tracer

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden_patterns.json"


def cg_run(tracer):
    problem = plane_stress_cantilever(6)
    cfg = MachineConfig(n_clusters=4, pes_per_cluster=4,
                        memory_words_per_cluster=16_000_000)
    prog = Fem2Program(cfg, tracer=tracer)
    parallel_cg_solve(prog, problem.mesh, problem.material,
                      problem.constraints, problem.loads,
                      n_workers=4, tol=1e-8)
    return prog


def e3_run(kind):
    """One of E3's two workloads (benchmarks/bench_e3_message_traffic.py)."""
    problem = plane_stress_cantilever(10)
    cfg = MachineConfig(n_clusters=4, pes_per_cluster=5,
                        memory_words_per_cluster=32_000_000, topology="ring")
    prog = Fem2Program(cfg, tracer=Tracer())
    subs = partition_strips(problem.mesh, 4)
    solve = parallel_cg_solve if kind == "cg" else parallel_substructure_solve
    kwargs = {"tol": 1e-8} if kind == "cg" else {}
    solve(prog, problem.mesh, problem.material, problem.constraints,
          problem.loads, subs=subs, **kwargs)
    return prog


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    return tracer, cg_run(tracer)


class TestTimeline:
    def test_bins_cover_all_messages(self, traced_run):
        trace, prog = traced_run
        timeline = traffic_timeline(trace, bins=16)
        assert len(timeline) == 16
        assert sum(b.messages for b in timeline) == int(prog.metrics.get("comm.messages"))
        assert sum(b.words for b in timeline) == int(prog.metrics.get("comm.words"))

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            traffic_timeline(Tracer())

    def test_bad_bins_rejected(self, traced_run):
        trace, _ = traced_run
        with pytest.raises(AnalysisError):
            traffic_timeline(trace, bins=0)

    def test_burstiness_at_least_uniform(self, traced_run):
        trace, _ = traced_run
        assert burstiness(trace) >= 1.0


class TestMatrix:
    def test_matrix_totals_match_metrics(self, traced_run):
        trace, prog = traced_run
        m = communication_matrix(trace, 4)
        assert m.sum() == int(prog.metrics.get("comm.words"))
        # nothing sends to itself off-matrix
        assert m.shape == (4, 4)

    def test_cg_pattern_is_hub_and_spoke(self, traced_run):
        """The CG driver's traffic all touches the root cluster — the
        pattern knowledge that made A2's star finding make sense."""
        trace, _ = traced_run
        m = communication_matrix(trace, 4)
        assert hub_score(m) == pytest.approx(1.0)
        # no worker-to-worker traffic
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert m[i, j] == 0

    def test_hub_score_of_uniform_matrix(self):
        m = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
        assert hub_score(m) < 0.6

    def test_hub_score_empty(self):
        assert hub_score(np.zeros((3, 3), dtype=int)) == 0.0


class TestKindTimeline:
    def test_phases_visible(self, traced_run):
        """Setup kinds (initiate/load_code) front-load; iteration kinds
        (remote_call, resume) spread across the run."""
        trace, _ = traced_run
        kt = kind_timeline(trace, bins=10)
        assert sum(kt["initiate_task"][:2]) == sum(kt["initiate_task"])
        assert sum(1 for c in kt["remote_call"] if c > 0) >= 5

    def test_report_renders(self, traced_run):
        trace, _ = traced_run
        text = pattern_report(trace, 4)
        assert "hub score" in text and "c0:" in text


class TestTaskSpans:
    def test_spans_cover_all_completed_tasks(self, traced_run):
        _, prog = traced_run
        spans = task_spans(prog)
        assert len(spans) == int(prog.metrics.get("task.completed"))
        for _tid, _tt, t0, t1 in spans:
            assert t0 <= t1

    def test_concurrency_profile_shows_parallel_phase(self, traced_run):
        _, prog = traced_run
        profile = concurrency_profile(prog, bins=10)
        # the CG run keeps root + 4 workers alive through the middle
        assert max(profile) >= 5

    def test_empty_trace_rejected_for_spans(self):
        with pytest.raises(AnalysisError):
            concurrency_profile(Fem2Program(MachineConfig.small()))


MESSAGE_VIEWS = {
    "traffic_timeline": traffic_timeline,
    "burstiness": burstiness,
    "communication_matrix": lambda tr: communication_matrix(tr, 4),
    "kind_timeline": kind_timeline,
    "pattern_report": lambda tr: pattern_report(tr, 4),
}


@pytest.mark.parametrize("view", sorted(MESSAGE_VIEWS))
def test_message_views_refuse_a_partial_trace(view):
    """A tracer that dropped spans past its capacity saw only part of
    the traffic; summarising it as whole would be wrong."""
    tracer = Tracer(capacity=10)
    cg_run(tracer)
    assert tracer.dropped > 0
    with pytest.raises(AnalysisError, match=r"tracer\.dropped"):
        MESSAGE_VIEWS[view](tracer)


def pattern_views(prog):
    tracer = prog.tracer
    timeline = traffic_timeline(tracer)
    return {
        "sends": int(prog.metrics.get("comm.messages")),
        "communication_matrix": communication_matrix(tracer, 4).tolist(),
        "traffic_timeline": {
            "messages": [b.messages for b in timeline],
            "words": [b.words for b in timeline],
        },
        "kind_timeline": kind_timeline(tracer),
        "burstiness": burstiness(tracer),
        "task_spans": [list(s) for s in task_spans(prog)],
    }


GOLDEN_RUNS = {
    "patterns_cg": lambda: cg_run(Tracer()),
    "e3_cg": lambda: e3_run("cg"),
    "e3_substructure": lambda: e3_run("substructure"),
}


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_views_match_golden_patterns(run):
    """The views over obs spans and task control blocks equal what the
    former dedicated send/dispatch/finish recorder produced for the same
    runs.  The fixture was written by that recorder, which no longer
    exists: it is never regenerated."""
    want = json.loads(GOLDEN.read_text())[run]
    assert pattern_views(GOLDEN_RUNS[run]()) == want
