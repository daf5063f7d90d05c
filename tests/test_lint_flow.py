"""Tests for repro.lint.flow: interprocedural summaries, the
happens-before rules (W2/W3/D2/X1), FlowSummary route extraction and
its codec, trace soundness against the repro.obs tracer on three
bench-style workloads, the golden ``--json`` fixture, rule selection and
the ``--cost`` CLI."""

import ast
import json
import os
import pathlib
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import plane_stress_cantilever
from repro.fem import parallel_cg_solve, partition_strips
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program, forall
from repro.lint import (
    FLOW_SCHEMA,
    FlowSummary,
    analyze_tasks,
    check_soundness,
    flow_summary,
    lint_paths,
    lint_source,
    machine_env,
)
from repro.lint.astutil import collect_tasks, task_index
from repro.lint.cli import lint_files, main as lint_main
from repro.lint.flow.dataflow import summarize_tasks
from repro.lint.program import check_w1
from repro.obs import Tracer

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RACE_FIXTURE = FIXTURES / "spawn_chain_race.py"
GOLDEN = FIXTURES / "lint_golden.json"


def tasks_of(source):
    return collect_tasks(ast.parse(textwrap.dedent(source)), "<test>")


def codes(report):
    return sorted(f.code for f in report.findings)


def small_config():
    return MachineConfig(n_clusters=2, pes_per_cluster=5,
                         memory_words_per_cluster=8_000_000)


# -- interprocedural summaries ------------------------------------------------


class TestSummaries:
    def test_child_writes_propagate_through_spawn_chain(self):
        tasks = tasks_of("""
            def leaf(ctx, w):
                yield ctx.write(w, data)

            def mid(ctx, w):
                t = yield ctx.initiate("leaf", w)
                yield ctx.wait(t)

            def top(ctx, w):
                t = yield ctx.initiate("mid", w)
                yield ctx.wait(t)
        """)
        summaries = summarize_tasks(tasks, task_index(tasks))
        by_name = {t.name: summaries.of_task(t) for t in tasks}
        assert 0 in by_name["leaf"].writes_params
        assert 0 in by_name["mid"].child_writes_params
        # two hops: top's child (mid) transitively writes parameter 0
        assert 0 in by_name["top"].child_writes_params

    def test_spawn_items_literal_param_dynamic(self):
        tasks = tasks_of("""
            def trampoline(ctx, kind):
                yield ctx.initiate(kind, count=1)

            def root(ctx, factory):
                yield ctx.initiate("trampoline", "leaf", count=1)
                yield ctx.initiate(factory(), count=1)
        """)
        summaries = summarize_tasks(tasks, task_index(tasks))
        root = next(t for t in tasks if t.name == "root")
        items = summaries.of_task(root).spawns
        assert ("lit", "trampoline") in items
        assert ("dyn",) in items


# -- W3: write-write across a spawn chain -------------------------------------


class TestW3:
    def test_seeded_fixture_flagged_by_w3_only(self):
        """The acceptance fixture: invisible to W1/W2, caught by W3."""
        report = lint_paths([RACE_FIXTURE], arch=False)
        assert codes(report) == ["W3"]
        (f,) = report.findings
        assert f.severity == "error"
        assert f.task == "root"
        assert "spawn chain" in f.message
        # and the sibling-local checker really is blind to it
        tasks = collect_tasks(ast.parse(RACE_FIXTURE.read_text()),
                              str(RACE_FIXTURE))
        assert check_w1(tasks, task_index(tasks)) == []

    def test_replicated_spawn_chain_write(self):
        report = lint_source(textwrap.dedent("""
            def leaf(ctx, w):
                yield ctx.write(w, data)

            def mid(ctx, w):
                t = yield ctx.initiate("leaf", w)
                yield ctx.wait(t)

            def root(ctx, w, n):
                tids = yield ctx.initiate("mid", w, count=n)
                yield ctx.wait(tids)
        """))
        assert "W3" in codes(report)

    def test_own_write_vs_pending_writer(self):
        report = lint_source(textwrap.dedent("""
            def leaf(ctx, w):
                yield ctx.write(w, data)

            def root(ctx, w):
                t = yield ctx.initiate("leaf", w)
                yield ctx.write(w, other)
                yield ctx.wait(t)
        """))
        assert "W3" in codes(report)

    def test_wait_between_writers_is_clean(self):
        report = lint_source(textwrap.dedent("""
            def leaf(ctx, w):
                yield ctx.write(w, data)

            def root(ctx, w):
                a = yield ctx.initiate("leaf", w)
                yield ctx.wait(a)
                b = yield ctx.initiate("leaf", w)
                yield ctx.wait(b)
        """))
        assert report.clean

    def test_accumulating_chain_is_exempt(self):
        report = lint_source(textwrap.dedent("""
            def leaf(ctx, w):
                yield ctx.accumulate(w, data)

            def mid(ctx, w):
                t = yield ctx.initiate("leaf", w)
                yield ctx.wait(t)

            def root(ctx, w):
                a = yield ctx.initiate("leaf", w)
                b = yield ctx.initiate("mid", w)
                yield ctx.wait((a, b))
        """))
        assert report.clean


# -- W2 on happens-before -----------------------------------------------------


class TestW2HappensBefore:
    def test_wait_orders_read_after_write(self):
        """The motivating false positive: wait discharges the writer."""
        report = lint_source(textwrap.dedent("""
            def writer(ctx, w):
                yield ctx.write(w, data)

            def root(ctx, w):
                t = yield ctx.initiate("writer", w)
                yield ctx.wait(t)
                vals = yield ctx.read(w)
                return vals
        """))
        assert report.clean

    def test_unwaited_read_still_flagged(self):
        report = lint_source(textwrap.dedent("""
            def writer(ctx, w):
                yield ctx.write(w, data)

            def root(ctx, w):
                t = yield ctx.initiate("writer", w)
                vals = yield ctx.read(w)
                yield ctx.wait(t)
                return vals
        """))
        assert "W2" in codes(report)

    def test_transitive_writer_flagged(self):
        report = lint_source(textwrap.dedent("""
            def leaf(ctx, w):
                yield ctx.write(w, data)

            def mid(ctx, w):
                t = yield ctx.initiate("leaf", w)
                yield ctx.wait(t)

            def root(ctx, w):
                t = yield ctx.initiate("mid", w)
                vals = yield ctx.read(w)
                yield ctx.wait(t)
                return vals
        """))
        assert "W2" in codes(report)
        w2 = next(f for f in report.findings if f.code == "W2")
        assert "spawns" in w2.message


# -- D2: provably wrong waits -------------------------------------------------


class TestD2:
    def test_wait_on_empty_set(self):
        report = lint_source(textwrap.dedent("""
            def root(ctx):
                tids = []
                yield ctx.wait(tids)
        """))
        assert "D2" in codes(report)
        d2 = next(f for f in report.findings if f.code == "D2")
        assert d2.severity == "warning"

    def test_rewait_flagged(self):
        report = lint_source(textwrap.dedent("""
            def leaf(ctx):
                yield ctx.compute(cycles=1)

            def root(ctx):
                t = yield ctx.initiate("leaf", count=1)
                yield ctx.wait(t)
                yield ctx.wait(t)
        """))
        assert "D2" in codes(report)

    def test_per_iteration_wait_loop_is_clean(self):
        """Waiting each tid inside a loop must not look like a re-wait."""
        report = lint_source(textwrap.dedent("""
            def leaf(ctx):
                yield ctx.compute(cycles=1)

            def root(ctx, n):
                tids = yield ctx.initiate("leaf", count=n)
                for t in tids:
                    yield ctx.wait(t)
        """))
        assert "D2" not in codes(report)

    def test_wait_pause_then_wait_is_clean(self):
        """wait_pause discharges writers but does not consume the wait."""
        report = lint_source(textwrap.dedent("""
            def leaf(ctx):
                yield ctx.pause()
                yield ctx.compute(cycles=1)

            def root(ctx):
                t = yield ctx.initiate("leaf", count=1)
                yield ctx.wait_pause(t)
                yield ctx.resume(t)
                yield ctx.wait(t)
        """))
        assert "D2" not in codes(report)


# -- X1: registered but unreachable -------------------------------------------


class TestX1:
    def test_unreachable_registered_task(self):
        report = lint_source(textwrap.dedent("""
            @prog.task()
            def orphan(ctx):
                yield ctx.compute(cycles=1)

            @prog.task()
            def worker(ctx):
                yield ctx.compute(cycles=1)

            @prog.task()
            def root(ctx):
                t = yield ctx.initiate("worker", count=1)
                yield ctx.wait(t)
        """))
        assert "X1" in codes(report)
        x1 = next(f for f in report.findings if f.code == "X1")
        assert x1.severity == "warning"
        assert x1.task == "orphan"

    def test_dynamic_spawn_suppresses_x1(self):
        """One non-literal target makes reachability unknowable."""
        report = lint_source(textwrap.dedent("""
            @prog.task()
            def orphan(ctx):
                yield ctx.compute(cycles=1)

            @prog.task()
            def root(ctx, kind):
                t = yield ctx.initiate(kind, count=1)
                yield ctx.wait(t)
        """))
        assert "X1" not in codes(report)

    def test_unregistered_helpers_never_flagged(self):
        report = lint_source(textwrap.dedent("""
            def helper(ctx):
                yield ctx.compute(cycles=1)

            def root(ctx):
                yield ctx.compute(cycles=1)
        """))
        assert "X1" not in codes(report)


# -- FlowSummary + codec ------------------------------------------------------


class TestFlowSummary:
    SOURCE = """
        def worker(ctx, w, index):
            vals = yield ctx.read(w)
            yield ctx.compute(cycles=100)
            yield ctx.accumulate(w, vals)

        def root(ctx, w):
            tids = yield ctx.initiate("worker", w, count=4)
            yield ctx.wait(tids)
    """

    def test_routes_and_windows(self):
        summary = analyze_tasks(tasks_of(self.SOURCE)).flow
        assert ("root", "worker") in summary.spawn_edges()
        route = next(r for r in summary.routes if r["dst"] == "worker")
        assert route["replicated"] is True
        assert summary.entries == ["root"]
        win = next(w for w in summary.windows if w["task"] == "worker")
        assert "worker" in win["readers"]
        assert "worker" in win["accumulators"]

    def test_burst_chains(self):
        summary = analyze_tasks(tasks_of(self.SOURCE)).flow
        burst = next(b for b in summary.bursts if b["task"] == "worker")
        assert burst["length"] >= 2
        assert burst["cycles"] == 100

    def test_codec_round_trip(self):
        summary = analyze_tasks(tasks_of(self.SOURCE)).flow
        record = summary.to_record()
        assert record["schema"] == FLOW_SCHEMA
        again = FlowSummary.from_record(record)
        assert again.to_record() == record

    def test_codec_rejects_wrong_schema(self):
        record = analyze_tasks(tasks_of(self.SOURCE)).flow.to_record()
        record["schema"] = "fem2-flow/99"
        with pytest.raises(ValueError):
            FlowSummary.from_record(record)

    def test_record_is_json_serializable(self):
        record = analyze_tasks(tasks_of(self.SOURCE)).flow.to_record()
        assert json.loads(json.dumps(record)) == record


# -- soundness: observed trace edges are statically predicted -----------------


class TestSoundness:
    """The acceptance criterion: every traced spawn/message edge on
    three bench-style workloads appears in the static FlowSummary."""

    def test_forall_fanout_workload(self):
        tracer = Tracer()
        prog = Fem2Program(small_config(), tracer=tracer)

        @prog.task()
        def tiny(ctx, index):
            yield ctx.compute(cycles=100)
            return index

        @prog.task()
        def root(ctx):
            results = yield from forall(ctx, "tiny", n=8)
            return len(results)

        assert prog.run("root", cluster=0) == 8
        result = check_soundness(flow_summary(prog), tracer)
        assert result.ok, result.unpredicted
        assert result.checked > 0

    def test_broadcast_workload(self):
        tracer = Tracer()
        prog = Fem2Program(small_config(), tracer=tracer)

        @prog.task()
        def listener(ctx, index):
            value = yield ctx.receive()
            return len(value)

        @prog.task()
        def driver(ctx):
            tids = yield ctx.initiate("listener", count=6)
            yield ctx.broadcast(tids, list(range(16)))
            results = yield ctx.wait(tids)
            return len(results)

        assert prog.run("driver", cluster=0) == 6
        result = check_soundness(flow_summary(prog), tracer)
        assert result.ok, result.unpredicted
        assert result.msg_edges > 0

    def test_parallel_cg_workload(self):
        problem = plane_stress_cantilever(6)
        cfg = MachineConfig(n_clusters=4, pes_per_cluster=5,
                            memory_words_per_cluster=32_000_000)
        tracer = Tracer()
        prog = Fem2Program(cfg, tracer=tracer)
        subs = partition_strips(problem.mesh, 4)
        parallel_cg_solve(prog, problem.mesh, problem.material,
                          problem.constraints, problem.loads,
                          subs=subs, tol=1e-8)
        summary = flow_summary(prog)
        # the CG root fans out through a closure-bound worker name:
        # statically a wildcard route, which must still cover the trace
        assert summary.wildcard_sources()
        result = check_soundness(summary, tracer)
        assert result.ok, result.unpredicted
        assert result.checked > 0


# -- golden --json fixture ----------------------------------------------------


def golden_record():
    report = lint_files([RACE_FIXTURE])
    record = report.to_record()
    for finding in record["findings"]:
        finding["file"] = pathlib.Path(finding["file"]).name
    return record


def test_golden_json_report():
    """Regenerate with:  FEM2_REGEN_GOLDEN=1 PYTHONPATH=src python -m
    pytest tests/test_lint_flow.py -k golden"""
    payload = json.dumps(golden_record(), indent=2) + "\n"
    if os.environ.get("FEM2_REGEN_GOLDEN"):
        GOLDEN.write_text(payload)
    assert GOLDEN.read_text() == payload


def test_report_is_diff_stable():
    """Linting the same file through overlapping roots yields one copy
    of each finding, in (file, line, code) order."""
    report = lint_paths([FIXTURES, RACE_FIXTURE], arch=False)
    race = [f for f in report.findings if f.code == "W3"
            and f.file.endswith("spawn_chain_race.py")]
    assert len(race) == 1
    ordered = report.sorted_findings()
    keys = [(f.file, f.line, f.code) for f in ordered]
    assert keys == sorted(keys)


# -- flow edge cases ----------------------------------------------------------


class TestFlowEdgeCases:
    """Shapes that stress the IR extraction and the fixpoint machinery:
    zero-replication fan-out, nested const loops, deep yield-from
    chains, and yields buried inside larger expressions."""

    def test_zero_replication_fanout(self):
        source = """
            def w(ctx, index):
                yield ctx.compute(flops=1)

            def root(ctx):
                tids = yield ctx.initiate("w", count=0)
                yield ctx.wait(tids)
        """
        report = lint_source(textwrap.dedent(source), "<test>")
        assert report.findings == []
        analysis = analyze_tasks(tasks_of(source))
        assert any(r["dst"] == "w" and r["kind"] == "spawn"
                   for r in analysis.flow.routes)
        cost = analysis.cost
        assert cost.activations["w"].evaluate({}) == (0.0, 0.0)
        assert cost.messages["initiate_task"].evaluate({}) == (0.0, 0.0)

    def test_nested_const_loops_reach_a_fixpoint(self):
        source = """
            def w(ctx, index):
                yield ctx.compute(flops=1)

            def root(ctx):
                tids = []
                for i in range(2):
                    for j in range(3):
                        t = yield ctx.initiate("w", count=1)
                        tids += t
                yield ctx.wait(tids)
        """
        assert lint_source(textwrap.dedent(source), "<test>").findings == []
        cost = analyze_tasks(tasks_of(source)).cost
        assert cost.activations["w"].evaluate({}) == (6.0, 6.0)

    def test_deep_yield_from_chain(self):
        """Effects three subcall levels down still reach the caller's
        summary and cost."""
        source = """
            def leaf(ctx):
                yield ctx.compute(flops=5)

            def mid(ctx):
                yield from leaf(ctx)

            def outer(ctx):
                yield from mid(ctx)

            def root(ctx):
                yield from outer(ctx)
        """
        assert lint_source(textwrap.dedent(source), "<test>").findings == []
        costs = {c.task: c for c in analyze_tasks(tasks_of(source)).costs}
        env = machine_env(MachineConfig())
        assert costs["root"].cycles.evaluate(env) == (5.0, 5.0)

    def test_yield_inside_larger_expression_keeps_its_event(self):
        source = """
            def t(ctx, w):
                v = (yield ctx.read(w)).ravel()
                total = float((yield ctx.read(w)).sum())
        """
        (task,) = tasks_of(source)
        reads = [ev for ev in task.events if ev.kind == "read"]
        assert len(reads) == 2

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_nested_loop_cost_is_exact_for_const_trips(self, a, b, flops):
        source = f"""
            def t(ctx):
                for i in range({a}):
                    for j in range({b}):
                        yield ctx.compute(flops={flops})
        """
        (cost,) = analyze_tasks(tasks_of(source)).costs
        env = machine_env(MachineConfig())
        expected = float(a * b * flops)
        assert cost.cycles.evaluate(env) == (expected, expected)


# -- rule selection and the --cost CLI ----------------------------------------


class TestSelection:
    def test_select_keeps_only_named_codes(self):
        report = lint_files([RACE_FIXTURE]).filtered(select=["W1"])
        assert codes(report) == []
        assert report.selection == {"select": ["W1"], "ignore": []}

    def test_ignore_drops_codes(self):
        report = lint_files([RACE_FIXTURE]).filtered(ignore=["W3"])
        assert codes(report) == []
        assert report.selection == {"select": [], "ignore": ["W3"]}

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown finding code"):
            lint_files([RACE_FIXTURE]).filtered(select=["Z9"])

    def test_cli_json_selection_header(self, capsys):
        rc = lint_main(["--no-arch", "--json", "--ignore", "W3",
                        str(RACE_FIXTURE)])
        assert rc == 0  # the seeded W3 error is filtered out
        record = json.loads(capsys.readouterr().out)
        assert record["selection"] == {"select": [], "ignore": ["W3"]}
        assert record["findings"] == []

    def test_cli_rejects_unknown_code(self, capsys):
        with pytest.raises(SystemExit):
            lint_main(["--select", "Q7", str(RACE_FIXTURE)])


class TestCostCLI:
    def test_cost_json_embeds_report(self, capsys):
        lint_main(["--no-arch", "--json", "--cost", str(RACE_FIXTURE)])
        record = json.loads(capsys.readouterr().out)
        assert record["cost"]["schema"] == "fem2-cost/1"
        assert record["cost"]["tasks"]

    def test_cost_out_writes_file(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        lint_main(["--no-arch", "--cost-out", str(out), str(RACE_FIXTURE)])
        record = json.loads(out.read_text())
        assert record["schema"] == "fem2-cost/1"

    def test_cost_render_on_stdout(self, capsys):
        lint_main(["--no-arch", "--cost", str(RACE_FIXTURE)])
        assert "cost report (fem2-cost/1)" in capsys.readouterr().out
