"""Tests for repro.lint.cost: the symbolic cost algebra (CostExpr /
Interval), the abstract cost interpreter over the event IR, program
composition into the ``fem2-cost/1`` report, the C1 lint rule, and
trace calibration of predicted bounds against the running machine."""

import ast
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import MachineConfig
from repro.langvm import Fem2Program
from repro.lint import (
    COST_SCHEMA,
    analyze_tasks,
    build_cost_report,
    calibrate,
    cost_report,
    lint_source,
    machine_env,
    registry_tasks,
)
from repro.lint.astutil import collect_tasks
from repro.lint.cost import (
    TOP,
    ZERO,
    BoundCheck,
    CalibrationError,
    CostExpr,
    Interval,
    MESSAGE_KINDS,
    bind_params,
    compare,
    observed_costs,
)


def tasks_of(source):
    return collect_tasks(ast.parse(textwrap.dedent(source)), "<test>")


def costs_of(source):
    return list(analyze_tasks(tasks_of(source)).costs)


def cost_findings(source):
    """The C1 findings of one source's task set."""
    return [f for f in analyze_tasks(tasks_of(source)).findings
            if f.code == "C1"]


def report_of(source, entries=None):
    return build_cost_report(costs_of(source), entries=entries)


def small_config():
    return MachineConfig(n_clusters=2, pes_per_cluster=2,
                         memory_words_per_cluster=1_000_000)


# -- the cost algebra ---------------------------------------------------------


class TestCostExpr:
    def test_const_and_param_arithmetic(self):
        n = CostExpr.param("n")
        e = CostExpr.const(2) + n * 3
        assert e.evaluate({"n": 4}) == 14.0
        assert e.const_value() is None
        assert CostExpr.const(7).const_value() == 7
        assert e.params() == {"n"}

    def test_polynomial_product(self):
        n = CostExpr.param("n")
        square = (CostExpr.const(1) + n) * (CostExpr.const(1) + n)
        assert square.evaluate({"n": 3}) == 16.0
        assert square.terms[(("n", 2),)] == 1

    def test_evaluate_default_and_unbound(self):
        e = CostExpr.param("loop:t:k") * 5
        assert e.evaluate({}, default=0.0) == 0.0
        assert e.evaluate({}, default=2.0) == 10.0
        with pytest.raises(KeyError, match="loop:t:k"):
            e.evaluate({})

    def test_record_round_trip(self):
        n = CostExpr.param("n")
        e = CostExpr.const(3) + n * n * 2 + CostExpr.param("m")
        assert CostExpr.from_record(e.to_record()) == e

    def test_render_is_canonical(self):
        e = CostExpr.const(3) + CostExpr.param("n") * 2
        assert e.render() == "3 + 2*n"

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
           st.integers(0, 9), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_joins_bound_min_and_max(self, a0, a1, b0, b1, n):
        """join_min(a,b) <= min(a,b) and join_max(a,b) >= max(a,b) at
        every nonnegative parameter valuation — the soundness property
        branch joins rely on."""
        p = CostExpr.param("n")
        a = CostExpr.const(a0) + p * a1
        b = CostExpr.const(b0) + p * b1
        env = {"n": float(n)}
        av, bv = a.evaluate(env), b.evaluate(env)
        assert CostExpr.join_min(a, b).evaluate(env) <= min(av, bv)
        assert CostExpr.join_max(a, b).evaluate(env) >= max(av, bv)


class TestInterval:
    def test_top_absorbs_addition(self):
        iv = Interval.exact(3) + Interval.unbounded()
        assert not iv.bounded
        assert iv.evaluate({}) == (3.0, None)

    def test_zero_annihilates_top_in_products(self):
        iv = Interval.zero() * Interval.unbounded()
        assert iv.bounded and iv.is_zero()
        # ... but a possibly-positive factor does not
        assert not (Interval.of(0, 2) * Interval.unbounded()).bounded

    def test_join_widens_both_endpoints(self):
        iv = Interval.of(1, 2).join(Interval.of(0, 5))
        assert iv.evaluate({}) == (0.0, 5.0)

    def test_scale(self):
        assert Interval.of(1, 3).scale(4).evaluate({}) == (4.0, 12.0)

    def test_record_round_trip_including_top(self):
        iv = Interval(CostExpr.param("n"), TOP)
        back = Interval.from_record(iv.to_record())
        assert back == iv and not back.bounded
        exact = Interval.exact(CostExpr.param("n") * 2)
        assert Interval.from_record(exact.to_record()) == exact


# -- the per-task interpreter -------------------------------------------------


class TestCostModel:
    def one(self, source, name):
        for c in costs_of(source):
            if c.task == name:
                return c
        raise AssertionError(f"no task {name}")

    def test_constant_compute_is_exact(self):
        cost = self.one("""
            def t(ctx):
                yield ctx.compute(flops=10)
        """, "t")
        lo, hi = cost.cycles.evaluate(machine_env(MachineConfig()))
        assert lo == hi == 10.0  # flop_cycles defaults to 1

    def test_create_charges_words_and_descriptor(self):
        cost = self.one("""
            def t(ctx):
                h = yield ctx.zeros(4)
        """, "t")
        assert cost.alloc.evaluate({}) == (10.0, 10.0)  # 4 words + 6 desc
        assert cost.windows[0].size.evaluate({}) == (4.0, 4.0)

    def test_literal_initiate_count(self):
        cost = self.one("""
            def t(ctx):
                tids = yield ctx.initiate("w", count=3)
        """, "t")
        assert cost.messages["initiate_task"].evaluate({}) == (1.0, 3.0)
        assert cost.messages["load_code"].evaluate({}) == (0.0, 3.0)
        (spawn,) = cost.spawns
        assert spawn.target == "w"
        assert spawn.count.evaluate({}) == (3.0, 3.0)

    def test_zero_replication_sends_nothing(self):
        cost = self.one("""
            def t(ctx):
                tids = yield ctx.initiate("w", count=0)
        """, "t")
        assert cost.messages["initiate_task"].evaluate({}) == (0.0, 0.0)

    def test_const_loop_multiplies(self):
        cost = self.one("""
            def t(ctx):
                for i in range(3):
                    yield ctx.compute(flops=2)
        """, "t")
        lo, hi = cost.cycles.evaluate(machine_env(MachineConfig()))
        assert lo == hi == 6.0

    def test_unresolved_loop_introduces_a_trip_parameter(self):
        cost = self.one("""
            def t(ctx, k):
                for i in range(k):
                    yield ctx.compute(flops=2)
        """, "t")
        assert any(p.startswith("loop:t:") for p in cost.params())
        assert cost.cycles.lo.evaluate({}, default=0.0) == 0.0

    def test_branch_joins_both_arms(self):
        cost = self.one("""
            def t(ctx, flag):
                if flag:
                    yield ctx.compute(flops=2)
                else:
                    yield ctx.compute(flops=8)
        """, "t")
        lo, hi = cost.cycles.evaluate(machine_env(MachineConfig()))
        assert (lo, hi) == (2.0, 8.0)

    def test_local_window_read_is_message_free(self):
        cost = self.one("""
            def t(ctx):
                h = yield ctx.zeros(4)
                w = ctx.window(h)
                vals = yield ctx.read(w)
        """, "t")
        assert cost.messages["remote_call"].is_zero()

    def test_foreign_window_read_may_go_remote(self):
        cost = self.one("""
            def t(ctx, w):
                vals = yield ctx.read(w)
        """, "t")
        assert cost.messages["remote_call"].evaluate({}) == (0.0, 1.0)
        assert cost.messages["remote_return"].evaluate({}) == (0.0, 1.0)

    def test_nested_yield_still_counts_the_read(self):
        """``(yield ctx.read(w)).ravel()`` buries the yield inside a
        larger expression; losing it would under-count remote traffic
        (a real soundness bug caught by E3 calibration)."""
        plain = self.one("""
            def t(ctx, w):
                v = yield ctx.read(w)
        """, "t")
        nested = self.one("""
            def t(ctx, w):
                v = (yield ctx.read(w)).ravel()
        """, "t")
        assert nested.messages["remote_call"] == plain.messages["remote_call"]

    def test_free_sets_the_flag(self):
        cost = self.one("""
            def t(ctx):
                h = yield ctx.zeros(4)
                yield ctx.free(h)
        """, "t")
        assert cost.frees


# -- program composition ------------------------------------------------------


PAIR = """
    def worker(ctx, w, index):
        vals = yield ctx.read(w)
        yield ctx.compute(flops=8)

    def root(ctx):
        h = yield ctx.zeros(8)
        w = ctx.window(h)
        tids = yield ctx.initiate("worker", w, count=4)
        yield ctx.wait(tids)
"""


class TestCostReport:
    def test_entries_are_unspawned_tasks(self):
        report = report_of(PAIR)
        assert report.entries == ["root"]

    def test_activations_follow_spawn_counts(self):
        report = report_of(PAIR)
        assert report.activations["root"].evaluate({}) == (1.0, 1.0)
        assert report.activations["worker"].evaluate({}) == (4.0, 4.0)

    def test_totals_compose_and_stay_ordered(self):
        report = report_of(PAIR)
        env = machine_env(MachineConfig())
        nums = report.evaluate(env, default=1.0)
        for key in ("cycles", "alloc_peak", "depth", "dispatches"):
            lo, hi = nums[key]
            assert hi is not None and 0.0 <= lo <= hi
        assert nums["messages"]["initiate_task"] == (1.0, 4.0)

    def test_literal_self_recursion_is_unbounded(self):
        report = report_of("""
            def t(ctx):
                tids = yield ctx.initiate("t", count=1)
        """)
        assert not report.activations["t"].bounded
        assert not report.bounded

    def test_dynamic_spawn_resolves_to_wildcard_edges(self):
        report = report_of("""
            def a(ctx):
                yield ctx.compute(flops=1)

            def b(ctx):
                yield ctx.compute(flops=1)

            def root(ctx, kind):
                tids = yield ctx.initiate(kind, count=2)
        """)
        wild = [e for e in report.edges if e.wildcard]
        assert {e.target for e in wild} == {"a", "b"}
        for e in wild:  # any of them *might* run, none is guaranteed
            assert e.count.lo == ZERO

    def test_same_name_variants_join(self):
        costs = costs_of("""
            def t(ctx):
                yield ctx.compute(flops=2)
        """) + costs_of("""
            def t(ctx):
                yield ctx.compute(flops=8)
        """)
        report = build_cost_report(costs)
        (merged,) = report.tasks
        lo, hi = merged.cycles.evaluate(machine_env(MachineConfig()))
        assert (lo, hi) == (2.0, 8.0)

    def test_record_schema(self):
        record = report_of(PAIR).to_record()
        assert record["schema"] == COST_SCHEMA
        assert set(record["totals"]) == {
            "cycles", "messages", "alloc_peak", "depth", "dispatches"}
        assert [t["task"] for t in record["tasks"]] == ["root", "worker"]


# -- the C1 rule --------------------------------------------------------------


class TestCostRules:
    C1_SOURCE = """
        def worker(ctx, index):
            yield ctx.compute(flops=1)

        def root(ctx, k, n):
            for i in range(k):
                tids = yield ctx.initiate("worker", count=n)
                yield ctx.wait(tids)
    """

    def test_c1_fires_on_doubly_unresolvable_spawn(self):
        findings = cost_findings(self.C1_SOURCE)
        assert [f.code for f in findings] == ["C1"]
        assert "unbounded" in findings[0].message

    def test_c1_silent_when_either_bound_resolves(self):
        bounded_loop = self.C1_SOURCE.replace("range(k)", "range(3)")
        assert cost_findings(bounded_loop) == []
        bounded_count = self.C1_SOURCE.replace("count=n", "count=4")
        assert cost_findings(bounded_count) == []

    def test_rules_ride_lint_source(self):
        report = lint_source(textwrap.dedent(self.C1_SOURCE), "<test>")
        assert "C1" in {f.code for f in report.findings}


# -- calibration --------------------------------------------------------------


class TestBindParams:
    def test_first_matching_rule_wins_and_cfg_comes_from_base(self):
        base = machine_env(MachineConfig())
        env = bind_params(
            ["loop:t:k", "count:t:n", "cfg.flop_cycles"],
            [("loop", "t", "k", 3.0), ("loop", "*", None, 99.0),
             ("count", "*", None, 5.0)],
            base)
        assert env["loop:t:k"] == 3.0
        assert env["count:t:n"] == 5.0
        assert env["cfg.flop_cycles"] == base["cfg.flop_cycles"]

    def test_wildcard_task_patterns(self):
        env = bind_params(["win:fem.worker:w"],
                          [("win", "fem.*", None, 8.0)], {})
        assert env["win:fem.worker:w"] == 8.0

    def test_unbound_parameter_raises(self):
        with pytest.raises(CalibrationError, match="count:t:n"):
            bind_params(["count:t:n"], [("loop", "*", None, 1.0)], {})


class TestBoundCheck:
    def test_containment_and_tightness(self):
        check = BoundCheck("cycles", observed=10.0, lo=5.0, hi=20.0)
        assert check.ok and check.tightness == 2.0

    def test_violations(self):
        assert not BoundCheck("cycles", 4.0, 5.0, 20.0).ok
        assert not BoundCheck("cycles", 21.0, 5.0, 20.0).ok

    def test_unbounded_above_passes_without_tightness(self):
        check = BoundCheck("cycles", 10.0, 5.0, None)
        assert check.ok and check.tightness is None

    def test_unknown_message_kind_is_a_loud_gap(self):
        report = report_of(PAIR)
        observed = observed_dummy = {
            "cycles": 0.0,
            "messages": {"mystery_kind": 1.0},
            "alloc_peak": 0.0,
        }
        result = compare(report, observed_dummy,
                         dict(machine_env(MachineConfig()), **{
                             p: 1.0 for p in report.params}))
        bad = result.check("messages.mystery_kind")
        assert bad is not None and not bad.ok
        assert (bad.lo, bad.hi) == (0.0, 0.0)


class TestCalibrateEndToEnd:
    def build(self):
        prog = Fem2Program(small_config())

        @prog.task()
        def worker(ctx, w, index):
            vals = yield ctx.read(w)
            yield ctx.compute(flops=8)

        @prog.task()
        def root(ctx):
            h = yield ctx.zeros(8)
            w = ctx.window(h)
            tids = yield ctx.initiate("worker", w, count=4)
            yield ctx.wait(tids)

        return prog

    RULES = [("win", "worker", "w", 8.0)]

    def test_observed_costs_reads_the_metrics(self):
        prog = self.build()
        prog.run("root")
        obs = observed_costs(prog.metrics)
        assert obs["cycles"] > 0
        assert obs["messages"]["initiate_task"] >= 1
        assert obs["alloc_peak"] >= 8

    def test_predicted_bounds_contain_the_run(self):
        prog = self.build()
        prog.run("root")
        result = calibrate(prog, rules=self.RULES)
        assert result.ok, result.render()
        assert result.violations == []
        assert result.tightness is not None and result.tightness >= 1.0

    def test_every_message_kind_is_checked(self):
        prog = self.build()
        prog.run("root")
        result = calibrate(prog, rules=self.RULES)
        checked = {c.metric for c in result.checks}
        assert {"cycles", "messages.total", "alloc_peak"} <= checked
        assert {f"messages.{k}" for k in MESSAGE_KINDS
                if result.check(f"messages.{k}")} & checked

    def test_record_schema(self):
        prog = self.build()
        prog.run("root")
        record = calibrate(prog, rules=self.RULES).to_record()
        assert record["schema"] == "fem2-cost-calibration/1"
        assert record["ok"] is True

    def test_registry_report_matches_source_analysis(self):
        prog = self.build()
        report = cost_report(prog)
        assert {t.task for t in report.tasks} == {"root", "worker"}
        assert report.entries == ["root"]
        assert len(registry_tasks(prog)) == 2
