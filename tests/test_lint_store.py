"""The process-wide analysis store behind lint_program / flow_summary /
cost_report (DESIGN §16): a hit is indistinguishable from a miss in
every record it feeds, the submit gate still gates on a hit, the keys
separate what must be separate, nothing mutates a cached TaskInfo, and
the work is done once per process — counted, not timed, in the style of
``tests/test_call_budget.py``.

``fixtures/lint_store_golden.json`` holds the three records of the
parallel-CG task set and of the racy registry as the commit before the
store produced them (files reduced to their names).  Regenerate with
``FEM2_REGEN_GOLDEN=1`` after an intended change to a pass, or after an
edit that moves lines in ``repro/fem/parallel.py``.
"""

import ast
import copy
import inspect
import json
import os
import pathlib
import warnings

import pytest

from repro.appvm import JobSpec, JobState, MachineService, ServicePool
from repro.errors import AppVMError
from repro.fem import register_parallel_cg
from repro.langvm import Fem2Program
from repro.lint import (
    analyze_costs,
    build_cost_report,
    check_tasks,
    cost_report,
    flow_summary,
    lint_program,
    registry_tasks,
    store,
    summarize,
    task_blockers,
)
from repro.lint.cost import CalibrationError, CostAnalyzer, calibrate
from repro.lint.flow.dataflow import Summaries
from repro.obs import Tracer

from .test_lint import RACY_MODULE, load_module, make_model

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "lint_store_golden.json"
REGEN = bool(os.environ.get("FEM2_REGEN_GOLDEN"))


@pytest.fixture(autouse=True)
def cold_store():
    store.clear()
    yield
    store.clear()


def cg_program(worker="fem.cg_worker.j1", root="fem.cg_root.j1"):
    model = make_model()
    prog = Fem2Program()
    register_parallel_cg(
        prog, model.require_mesh(), model.material,
        model.require_constraints(), model.load_set("case"), n_workers=2,
        worker_name=worker, root_name=root)
    return prog


def racy_program(tmp_path, name="racy_store"):
    mod, _ = load_module(tmp_path, name, RACY_MODULE)
    prog = Fem2Program()
    mod.register(prog)
    return prog


def records(program):
    """The three records as one JSON text, files reduced to names."""
    text = json.dumps({
        "lint": lint_program(program).to_record(),
        "flow": flow_summary(program).to_record(),
        "cost": cost_report(program).to_record(),
    }, indent=1, sort_keys=True)
    for task in registry_tasks(program):
        text = text.replace(json.dumps(task.file)[1:-1],
                            pathlib.Path(task.file).name)
    return text


def spec(user="u", **kw):
    return JobSpec(user=user, model=make_model(), load_set="case", **kw)


# -- hit ≡ miss ---------------------------------------------------------------


class TestHitEqualsMiss:
    @pytest.mark.parametrize("which", ["cg", "racy"])
    def test_records_cold_warm_evicted_and_as_before_the_store(
            self, which, tmp_path, monkeypatch):
        build = {"cg": cg_program, "racy": lambda: racy_program(tmp_path)}
        program = build[which]()
        cold = records(program)
        assert records(program) == cold                       # warm
        assert records(build[which]()) == cold                # fresh program
        # a store of one entry: analysing anything else evicts this set
        monkeypatch.setattr(store, "MAX_TASK_SETS", 1)
        other = build["racy" if which == "cg" else "cg"]()
        flow = flow_summary(program)
        flow_summary(other)
        assert flow_summary(program) is not flow
        assert records(program) == cold                       # re-analysed
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        if REGEN:
            golden[which] = json.loads(cold)
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n")
        assert json.loads(cold) == golden[which]

    def test_bound_holds(self, monkeypatch):
        monkeypatch.setattr(store, "MAX_TASK_SETS", 3)
        programs = [cg_program(f"w{i}", f"r{i}") for i in range(6)]
        flows = [flow_summary(p) for p in programs]
        # the three most recent sets are hits, the older ones were dropped
        assert all(flow_summary(p) is f
                   for p, f in zip(programs[3:], flows[3:]))
        assert flow_summary(programs[0]) is not flows[0]

    def test_lint_report_is_per_caller(self, tmp_path):
        """LintReport has mutators (extend, filtered bookkeeping): every
        caller gets its own, the cached findings are a tuple."""
        program = racy_program(tmp_path)
        first = lint_program(program)
        first.extend(lint_program(cg_program()).findings)
        first.findings.clear()
        assert [f.code for f in lint_program(program).findings] == ["W1"]


# -- the gate still gates -----------------------------------------------------


class TestGateOnHit:
    def test_racy_program_rejected_identically_on_first_and_second_service(
            self, tmp_path, monkeypatch):
        mod, _ = load_module(tmp_path, "racy_twice", RACY_MODULE)
        analyses = []
        real = store.analyze_tasks
        monkeypatch.setattr(
            store, "analyze_tasks",
            lambda tasks: analyses.append(len(tasks)) or real(tasks))
        texts = []
        for _ in range(2):
            svc = MachineService()
            mod.register(svc.program)
            with pytest.raises(AppVMError) as err:
                svc.submit(spec(lint="error"))
            assert svc.program.now == 0 and svc.pending_count == 0
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert "program rejected by static analysis" in texts[0]
        assert "W1" in texts[0]
        assert analyses == [2]    # the second service was a hit

    def test_warn_mode_warns_on_every_submit(self, tmp_path):
        mod, _ = load_module(tmp_path, "racy_warns", RACY_MODULE)
        for _ in range(3):
            svc = MachineService()
            mod.register(svc.program)
            with pytest.warns(UserWarning, match="static analysis findings"):
                svc.submit(spec(lint="warn"))

    def test_traced_submit_gets_its_points_on_a_hit(self, tmp_path):
        mod, _ = load_module(tmp_path, "racy_points", RACY_MODULE)
        seen = []
        for _ in range(2):
            tracer = Tracer()
            svc = MachineService(tracer=tracer)
            mod.register(svc.program)
            with pytest.warns(UserWarning):
                svc.submit(spec(lint="warn"))
            flow, = tracer.spans("lint.flow")
            cost, = tracer.spans("lint.cost")
            w1, = tracer.spans("lint.W1")
            seen.append((flow.attrs, cost.attrs, w1.attrs, w1.label))
        assert seen[0] == seen[1]
        assert seen[0][0]["tasks"] == 2


# -- what the keys separate ---------------------------------------------------


def writer(ctx, out_w):
    yield ctx.write(out_w, [1.0] * 4)


def reader(ctx, out_w):
    yield ctx.read(out_w)


SAME_SOURCE = '''
def body(ctx, out_w):
    yield ctx.write(out_w, [1.0] * 4)
'''


def helper(ctx):
    yield ctx.compute(cycles=700)


def driver(ctx):
    yield from helper(ctx)
    yield ctx.compute(cycles=11)


class TestKeys:
    def test_one_body_under_two_names_is_two_tasks(self):
        prog = Fem2Program()
        prog.define("first", writer)
        prog.define("second", writer)
        tasks = registry_tasks(prog)
        assert [(t.name, t.func_name) for t in tasks] == [
            ("first", "writer"), ("second", "writer")]
        assert tasks[0] is not tasks[1]
        assert flow_summary(prog).tasks == ["first", "second"]

    def test_cost_report_resolves_a_sub_generator_by_function_name(self):
        """One target index for every pass: registered name, then
        function name.  ``analyze_costs`` without an index resolves
        registered names only and prices this ``yield from`` at zero."""
        prog = Fem2Program()
        prog.define("lib.helper", helper)
        prog.define("lib.driver", driver)
        report = cost_report(prog)
        alone = build_cost_report(analyze_costs(registry_tasks(prog)))
        assert report.task("lib.driver").cycles.evaluate({}) == (711, 711)
        assert alone.task("lib.driver").cycles.evaluate({}) == (11, 11)

    def test_two_bodies_under_one_name_do_not_collide(self):
        a, b = Fem2Program(), Fem2Program()
        a.define("t", writer)
        b.define("t", reader)
        assert [t.func_name for t in registry_tasks(a)] == ["writer"]
        assert [t.func_name for t in registry_tasks(b)] == ["reader"]
        assert registry_tasks(a)[0].plain_writes == {"out_w"}
        assert registry_tasks(b)[0].plain_writes == set()
        assert flow_summary(a) is not flow_summary(b)

    def test_equal_code_from_different_files_does_not_collide(
            self, tmp_path):
        one, path_one = load_module(tmp_path, "same_one", SAME_SOURCE)
        two, path_two = load_module(tmp_path, "same_two", SAME_SOURCE)
        assert one.body.__code__ == two.body.__code__   # by value
        a, b = Fem2Program(), Fem2Program()
        a.define("t", one.body)
        b.define("t", two.body)
        assert registry_tasks(a)[0].file == str(path_one)
        assert registry_tasks(b)[0].file == str(path_two)

    def test_body_without_source_is_skipped_every_time(self):
        scope = {}
        exec(SAME_SOURCE, scope)
        prog = Fem2Program()
        prog.define("ghost", scope["body"])
        for _ in range(2):
            assert registry_tasks(prog) == []
            report = lint_program(prog)
            assert report.clean and report.tasks_checked == 0
            with pytest.raises(CalibrationError, match="no registered task"):
                calibrate(prog)
        prog.define("real", writer)
        assert [t.name for t in registry_tasks(prog)] == ["real"]


# -- nothing writes to what the store shares ----------------------------------


class TestReadOnly:
    def test_no_pass_mutates_a_cached_task_info(self, tmp_path):
        from repro.compile import compile_program
        for program in (cg_program(), racy_program(tmp_path)):
            tasks = registry_tasks(program)
            before = copy.deepcopy(tasks)
            check_tasks(tasks)
            summarize(tasks)
            build_cost_report(analyze_costs(tasks))
            for task in tasks:
                task_blockers(task)
            compile_program(program)
            calibrate(program, entries=[tasks[-1].name], rules=[
                (kind, "*", None, 1.0)
                for kind in ("alloc", "count", "cycles", "flops", "loop",
                             "win")])
            assert tasks == before
            assert registry_tasks(program) == before

    def test_a_gated_run_leaves_the_cached_reports_as_they_were(self):
        pool = ServicePool(n_machines=1)
        handle = pool.submit(spec(lint="error"))
        program = pool.machines[0].program
        before = records(program)
        flow, cost = flow_summary(program), cost_report(program)
        pool.run()
        assert handle.done
        assert pool.submit(spec("v", lint="error")).state is JobState.RUNNING
        assert flow_summary(program) is flow and cost_report(program) is cost
        assert records(program) == before


# -- simulated results do not depend on the store's history -------------------


def solve_once(workers):
    pool = ServicePool(n_machines=1)
    handle = pool.submit(spec(workers=workers, lint="error"))
    program = pool.machines[0].program
    pool.run()
    result = handle.result()
    return (result.u.tobytes(), result.iterations, result.elapsed_cycles,
            repr(program.metrics.snapshot()))


def test_simulated_results_identical_first_or_after_fifty_submits():
    first = solve_once(2)
    for i in range(50):
        pool = ServicePool(n_machines=1)
        handle = pool.submit(spec(f"u{i}", workers=1 + i % 3, lint="error"))
        assert handle.state is JobState.RUNNING
        if i % 10 == 0:
            pool.run()
    assert solve_once(2) == first
    store.clear()
    assert solve_once(2) == first


# -- the count guard ----------------------------------------------------------


@pytest.fixture
def counts(monkeypatch):
    """Calls of the four things a cold submit used to repeat."""
    seen = {"getsourcelines": 0, "ast.parse": 0, "summaries": 0,
            "cost_passes": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inspect, "getsourcelines",
                        counting("getsourcelines", inspect.getsourcelines))
    monkeypatch.setattr(ast, "parse", counting("ast.parse", ast.parse))
    monkeypatch.setattr(Summaries, "__init__",
                        counting("summaries", Summaries.__init__))
    monkeypatch.setattr(CostAnalyzer, "__init__",
                        counting("cost_passes", CostAnalyzer.__init__))
    return seen


def test_first_submit_analyses_once_and_a_second_pool_not_at_all(counts):
    """A fresh pool's ``lint="error"`` submit touches two task sets —
    the front machine's empty registry (the gate) and the scratch
    program holding the solve's two bodies (the predicted cost).  Before
    the store these counted 4 / 2 / 4 / 3, again on every fresh pool."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        handle = ServicePool(n_machines=1).submit(spec(lint="error"))
    assert handle.state is JobState.RUNNING
    assert counts == {"getsourcelines": 2, "ast.parse": 2,
                      "summaries": 2, "cost_passes": 2}
    handle = ServicePool(n_machines=1).submit(spec("v", lint="error"))
    assert handle.state is JobState.RUNNING
    assert counts == {"getsourcelines": 2, "ast.parse": 2,
                      "summaries": 2, "cost_passes": 2}
