"""LINT — static-analysis throughput over the repo itself.

The linter runs inside ``MachineService.submit`` when the gate is on,
so its host-side cost is part of the service's submission latency.
This benchmark lints the shipped ``src/`` and ``examples/`` trees
(the same corpus the tier-1 gate checks) and reports files/second and
tasks/second, plus a per-corpus breakdown — the number that must stay
flat as the rule set grows.  Two further experiments cover the flow
layer: LINT-FLOW times the interprocedural analysis (tasks/sec, routes
extracted), and LINT-SOUND replays three traced workloads asserting
every observed spawn/message edge was statically predicted.
"""

import ast
import inspect
import pathlib
import time
import types

import pytest

from conftest import run_once
from repro.bench import Experiment
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program, forall
from repro.lint import check_soundness, flow_summary, lint_paths
from repro.lint.astutil import collect_tasks, task_index
from repro.lint.cli import iter_py_files
from repro.lint.flow import check_flow, summarize, summarize_tasks
from repro.obs import Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_lint_corpus(paths, arch):
    t0 = time.perf_counter()
    report = lint_paths(paths, arch=arch)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def lint_experiment():
    exp = Experiment("LINT", "static analyzer throughput on the repo corpus")
    exp.set_headers("corpus", "files", "tasks", "errors", "warnings",
                    "host ms", "files/sec")
    corpora = {
        "src": ([ROOT / "src"], True),
        "examples": ([ROOT / "examples"], False),
        "src+examples": ([ROOT / "src", ROOT / "examples"], True),
    }
    data = {}
    for name, (paths, arch) in corpora.items():
        report, elapsed = run_lint_corpus(paths, arch)
        data[name] = (report, elapsed)
        exp.add_row(
            name, report.files_checked, report.tasks_checked,
            len(report.errors), len(report.warnings),
            round(1000.0 * elapsed, 1),
            round(report.files_checked / elapsed, 1) if elapsed > 0 else 0.0,
        )
    exp.note("host time, not simulated cycles: the linter runs before "
             "the machine, so its cost is submission latency")
    return exp, data


def flow_experiment():
    """Flow-analysis throughput: interprocedural checks + route extraction."""
    exp = Experiment("LINT-FLOW",
                     "interprocedural flow analysis over the repo corpus")
    exp.set_headers("corpus", "tasks", "routes", "msg routes", "windows",
                    "host ms", "tasks/sec")
    for name, paths in (("src", [ROOT / "src"]),
                        ("src+examples+benchmarks",
                         [ROOT / "src", ROOT / "examples",
                          ROOT / "benchmarks"])):
        tasks = []
        for f in iter_py_files(paths):
            try:
                tree = ast.parse(f.read_text())
            except (SyntaxError, ValueError):
                continue
            tasks.extend(collect_tasks(tree, str(f)))
        t0 = time.perf_counter()
        index = task_index(tasks)
        summaries = summarize_tasks(tasks, index)
        check_flow(tasks, index, summaries)
        summary = summarize(tasks, index, summaries)
        elapsed = time.perf_counter() - t0
        exp.add_row(
            name, len(tasks), len(summary.routes), len(summary.msg_routes),
            len(summary.windows), round(1000.0 * elapsed, 1),
            round(len(tasks) / elapsed, 1) if elapsed > 0 else 0.0,
        )
    exp.note("routes = static spawn edges in the fem2-flow/1 summary; "
             "analysis time excludes parsing (covered by LINT)")
    return exp


def _small_config():
    return MachineConfig(n_clusters=2, pes_per_cluster=5,
                         memory_words_per_cluster=8_000_000)


def _fanout_workload(tracer):
    prog = Fem2Program(_small_config(), tracer=tracer)

    @prog.task()
    def tiny(ctx, index):
        yield ctx.compute(cycles=100)
        return index

    @prog.task()
    def root(ctx):
        results = yield from forall(ctx, "tiny", n=8)
        return len(results)

    prog.run("root", cluster=0)
    return prog


def _broadcast_workload(tracer):
    prog = Fem2Program(_small_config(), tracer=tracer)

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

    prog.run("driver", cluster=0)
    return prog


def _cg_workload(tracer):
    from repro.bench import plane_stress_cantilever
    from repro.fem import parallel_cg_solve, partition_strips

    problem = plane_stress_cantilever(6)
    cfg = MachineConfig(n_clusters=4, pes_per_cluster=5,
                        memory_words_per_cluster=32_000_000)
    prog = Fem2Program(cfg, tracer=tracer)
    subs = partition_strips(problem.mesh, 4)
    parallel_cg_solve(prog, problem.mesh, problem.material,
                      problem.constraints, problem.loads,
                      subs=subs, tol=1e-8)
    return prog


def soundness_experiment():
    """Observed-vs-predicted edge comparison on three traced workloads."""
    exp = Experiment("LINT-SOUND",
                     "trace soundness: observed edges vs static routes")
    exp.set_headers("workload", "spawn edges", "msg edges", "unpredicted",
                    "sound")
    workloads = (
        ("forall fanout (E5)", _fanout_workload),
        ("broadcast (E11)", _broadcast_workload),
        ("parallel CG (E3)", _cg_workload),
    )
    results = {}
    for name, build in workloads:
        tracer = Tracer()
        prog = build(tracer)
        result = check_soundness(flow_summary(prog), tracer)
        results[name] = result
        exp.add_row(name, result.spawn_edges, result.msg_edges,
                    len(result.unpredicted), result.ok)
    exp.note("sound = every spawn/message edge in the repro.obs trace "
             "appears in the program's fem2-flow/1 static summary")
    return exp, results


def _cg_calibration():
    """The E3 workload plus the parameter bindings that ground its free
    cost parameters in measurable problem quantities."""
    from repro.bench import plane_stress_cantilever
    from repro.fem import parallel_cg_solve, partition_strips
    from repro.fem.parallel import _worker_payload

    problem = plane_stress_cantilever(6)
    cfg = MachineConfig(n_clusters=4, pes_per_cluster=5,
                        memory_words_per_cluster=32_000_000)
    prog = Fem2Program(cfg)
    subs = partition_strips(problem.mesh, 4)
    info = parallel_cg_solve(prog, problem.mesh, problem.material,
                             problem.constraints, problem.loads,
                             subs=subs, tol=1e-8)
    n = problem.mesh.n_dofs
    it = info.iterations
    fixed = problem.constraints.fixed_dofs
    max_hull = max(_worker_payload(problem.mesh, problem.material, s,
                                   fixed)["hull"] for s in subs)
    max_aflops = max(w["assembly_flops"] for w in info.worker_stats)
    rules = [
        ("loop", "fem.cg_root.*", "subs", len(subs)),
        ("loop", "fem.cg_root.*", None, it),          # the CG while loop
        ("loop", "fem.cg_worker.*", None, it + 1),    # serve + stop rounds
        ("alloc", "fem.cg_root.*", "n", n),
        ("alloc", "fem.cg_worker.*", "k_assembled", max_hull * max_hull),
        ("flops", "fem.cg_root.*", None, 10 * n),
        ("flops", "fem.cg_worker.*", "flops", max_aflops),
        ("flops", "fem.cg_worker.*", None, 2 * max_hull * max_hull),
        ("win", "fem.cg_worker.*", "ctrl_win", 1),
        ("win", "*", None, n),                        # whole-vector windows
    ]
    return prog, rules


def cost_experiment():
    """LINT-COST: cost-model throughput plus trace calibration."""
    exp = Experiment("LINT-COST",
                     "static cost bounds: model throughput and "
                     "calibration tightness")
    exp.set_headers("workload", "tasks", "checks", "violations",
                    "tightness", "host ms", "tasks/sec")
    from repro.lint import analyze_costs, build_cost_report, calibrate, store

    tasks = []
    for f in iter_py_files([ROOT / "src", ROOT / "examples",
                            ROOT / "benchmarks"]):
        try:
            tree = ast.parse(f.read_text())
        except (SyntaxError, ValueError):
            continue
        tasks.extend(collect_tasks(tree, str(f)))
    t0 = time.perf_counter()
    report = build_cost_report(analyze_costs(tasks, task_index(tasks)))
    elapsed = time.perf_counter() - t0
    exp.add_row("corpus cost model", len(report.tasks), "-", "-", "-",
                round(1000.0 * elapsed, 1),
                round(len(tasks) / elapsed, 1) if elapsed > 0 else 0.0)

    results = {}
    workloads = (
        ("forall fanout (E5)", lambda: (_fanout_workload(None), ())),
        ("broadcast (E11)", lambda: (_broadcast_workload(None), ())),
        ("parallel CG (E3)", _cg_calibration),
    )
    for name, build in workloads:
        prog, rules = build()
        store.clear()  # the analysis is part of what this row times
        t0 = time.perf_counter()
        result = calibrate(prog, rules)
        elapsed = time.perf_counter() - t0
        results[name] = result
        tightness = result.tightness
        exp.add_row(name, "-", len(result.checks), len(result.violations),
                    "-" if tightness is None else round(tightness, 2),
                    round(1000.0 * elapsed, 1), "-")
    exp.note("tightness = max over (cycles, total messages, alloc peak) of "
             "predicted upper bound / observed; bounds hold iff "
             "violations = 0")
    exp.note("corpus row: host cost of one fem2-cost/1 report over every "
             "task in src+examples+benchmarks")
    exp.note("workload rows: host ms is one cold calibrate() — a store "
             "miss (every pass over the task set, not the cost model "
             "alone), then binding + comparison")
    return exp, results


def _fastest_ms(fn, before=None, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1000.0 * best


def store_experiment():
    """LINT-STORE: what a miss and a hit of the analysis store cost.

    ``benchmarks/host`` probes report fastest-of-repeats, which is the
    hit since the store; the miss — what the first submit of a process
    pays, once — is kept visible here."""
    from repro.bench import plane_stress_cantilever
    from repro.fem import register_parallel_cg
    from repro.lint import cost_report, lint_program, store

    exp = Experiment("LINT-STORE",
                     "program entry points on the parallel-CG task set: "
                     "store miss vs hit")
    exp.set_headers("entry point", "cold ms", "warm ms", "cold/warm")
    problem = plane_stress_cantilever(6)
    prog = Fem2Program(_small_config())
    register_parallel_cg(prog, problem.mesh, problem.material,
                         problem.constraints, problem.loads, n_workers=2)
    data = {}
    for name, entry in (("lint_program", lint_program),
                        ("flow_summary", flow_summary),
                        ("cost_report", cost_report)):
        cold = _fastest_ms(lambda: entry(prog), before=store.clear)
        warm = _fastest_ms(lambda: entry(prog))
        data[name] = (cold, warm)
        exp.add_row(name, round(cold, 3), round(warm, 4),
                    round(cold / warm, 0) if warm > 0 else "-")
    exp.note("cold = store.clear() before each call (source recovery, "
             "parse and every pass run once); warm = the same call again; "
             "fastest of 5 each")
    exp.note("a cold call of any one entry point builds the whole bundle, "
             "so the three cold figures are one cost seen three times")
    return exp, data


def run_lint():
    exp, data = lint_experiment()
    flow_exp = flow_experiment()
    sound_exp, sound = soundness_experiment()
    cost_exp, calibrations = cost_experiment()
    store_exp, store_ms = store_experiment()
    return ((exp, flow_exp, sound_exp, cost_exp, store_exp),
            (data, sound, calibrations, store_ms))


def generator_tasks(*tops):
    """Task-shaped functions under *tops*, counted from bytecode rather
    than by the linter: code objects CPython compiled as generators whose
    first parameter is ``ctx``."""
    count = 0
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            stack = [compile(path.read_text(), str(path), "exec")]
            while stack:
                code = stack.pop()
                stack.extend(c for c in code.co_consts
                             if isinstance(c, types.CodeType))
                count += bool(code.co_flags & inspect.CO_GENERATOR
                              and code.co_argcount
                              and code.co_varnames[0] == "ctx")
    return count


def bench_lint_throughput():
    """Files/sec over the full corpus — recorded into the BENCH record."""
    report, elapsed = run_lint_corpus([ROOT / "src", ROOT / "examples"], True)
    return report.files_checked / elapsed if elapsed > 0 else 0.0


def test_lint_throughput(benchmark, experiment_sink):
    exps, (data, sound, calibrations, store_ms) = run_once(benchmark,
                                                           run_lint)
    for exp in exps:
        experiment_sink(exp)
    for entry, (cold, warm) in store_ms.items():
        assert 0 < warm < cold, f"{entry}: hit {warm} ms vs miss {cold} ms"
    for name, (report, _elapsed) in data.items():
        assert report.clean, f"{name} corpus has findings: {report.render()}"
    report, _ = data["src+examples"]
    assert report.files_checked >= 100
    assert report.tasks_checked == generator_tasks(ROOT / "src",
                                                   ROOT / "examples")
    for name, result in sound.items():
        assert result.ok, f"{name}: unpredicted edges {result.unpredicted}"
    for name, result in calibrations.items():
        assert result.ok, f"{name}: {[c.render() for c in result.violations]}"
        assert result.tightness is not None and result.tightness <= 4.0, \
            f"{name}: calibration tightness {result.tightness}"
    assert bench_lint_throughput() > 0
