"""Tests for repro.compile: the static plan analysis of a program's
registered task graph (resolved/blocked split, blocker evidence, and
the P1 findings lint renders from the same blockers).
"""

from repro.compile import SCHEMA, CompiledPlan, compile_program
from repro.hardware.machine import MachineConfig
from repro.langvm.program import Fem2Program
from repro.lint import check_compilable, registry_tasks

# -- program builders (module-level so task source is recoverable) ---------


def build_chain():
    """A single task running a fixed-length burst chain — the fully
    resolved case."""
    prog = Fem2Program(MachineConfig())

    @prog.task()
    def chain(ctx):
        total = 0
        for _ in range(60):
            yield ctx.compute(cycles=7)
            total += 7
        return total

    return prog


def build_dynamic():
    """A dynamic spawn target and a TOP replication count: both tasks
    are blocked, with P1 evidence."""
    prog = Fem2Program(MachineConfig())

    @prog.task()
    def leaf(ctx, index):
        yield ctx.compute(cycles=5)
        return index

    @prog.task()
    def spawn_by_name(ctx, which):
        tids = yield ctx.initiate(which, count=2)
        results = yield ctx.wait(tids)
        return sum(results.values())

    @prog.task()
    def spawn_counted(ctx, n):
        tids = yield ctx.initiate("leaf", count=n)
        results = yield ctx.wait(tids)
        return sum(results.values())

    @prog.task()
    def main(ctx):
        a = yield ctx.initiate("spawn_by_name", "leaf", count=1,
                               index_arg=False)
        b = yield ctx.initiate("spawn_counted", 3, count=1,
                               index_arg=False)
        results = yield ctx.wait(list(a) + list(b))
        return sum(results.values())

    return prog


# -- plan analysis ---------------------------------------------------------


class TestPlanAnalysis:
    def test_fully_compilable_program(self):
        prog = build_chain()
        plan = compile_program(prog)
        assert isinstance(plan, CompiledPlan)
        assert plan.coverage == 1.0
        assert plan.fused_types == {"chain"}
        assert not check_compilable(registry_tasks(prog))
        record = plan.to_record()
        assert record["schema"] == SCHEMA
        assert record["counts"] == {"types": 1, "fused": 1, "fallback": 0}

    def test_dynamic_target_and_top_count_block(self):
        prog = build_dynamic()
        plan = compile_program(prog)
        assert plan.fused_types == {"leaf", "main"}
        assert plan.fallback_types == {"spawn_by_name", "spawn_counted"}
        kinds = {
            name: [b.kind for b in tp.blockers]
            for name, tp in plan.task_plans.items() if tp.blockers
        }
        assert kinds == {
            "spawn_by_name": ["dynamic_target"],
            "spawn_counted": ["top_count"],
        }
        # blockers carry real source lines pointing at the initiate
        for tp in plan.task_plans.values():
            for blocker in tp.blockers:
                assert blocker.line > 0
                assert tp.file.endswith("test_compile.py")

    def test_p1_findings_surface_the_blockers(self):
        prog = build_dynamic()
        findings = check_compilable(registry_tasks(prog))
        assert [f.code for f in findings] == ["P1", "P1"]
        assert all(f.severity == "warning" for f in findings)
        assert {f.task for f in findings} == {"spawn_by_name",
                                              "spawn_counted"}
        # one finding per blocker the plan recorded, at the same line
        plan = compile_program(prog)
        assert sorted((f.task, f.line) for f in findings) == sorted(
            (name, b.line)
            for name, tp in plan.task_plans.items() for b in tp.blockers)

    def test_unrecoverable_source_is_top(self):
        prog = build_chain()
        namespace = {}
        exec(
            "def gen(ctx):\n"
            "    yield ctx.compute(cycles=3)\n"
            "    return 1\n",
            namespace,
        )
        prog.define("gen", namespace["gen"])
        plan = compile_program(prog)
        assert "gen" in plan.fallback_types
        (blocker,) = plan.task_plans["gen"].blockers
        assert blocker.kind == "no_source"
        # the analysis never touches execution
        assert prog.run("gen") == 1
