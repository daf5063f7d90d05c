"""Tier-1 gate: the shipped code must pass its own static analyzer.

``python -m repro.lint src/ examples/`` runs green on every PR — a task
idiom, span pattern, or layering change that trips W/D/O/A checks must
either be fixed or the checker taught the new legal idiom *in the same
PR*.  This is the pytest face of that gate.
"""

import ast
import pathlib

import pytest

from repro.appvm import (
    CommandInterpreter,
    JobHandle,
    JobSpec,
    ServicePool,
    Tenant,
    WorkstationSession,
)
from repro.appvm.display import render_displacements, render_stresses
from repro.appvm.scheduler import fairness_index
from repro.bench import plane_stress_cantilever
from repro.campaign import Campaign
from repro.ckpt import Checkpointer
from repro.core import DesignProcess, LayerStack
from repro.fem import Mesh, conjugate_gradient, partition_strips, sor
from repro.hgraph import Interpreter
from repro.langvm.program import TaskContext
from repro.lint import lint_paths
from repro.lint.findings import CODES
from repro.obs import flame
from repro.sysvm.runtime import Runtime

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _own_yield(fn):
    """Whether *fn*'s own body (not a nested def or lambda) yields."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def generator_tasks(*tops):
    """Task-shaped functions under *tops*, counted without the linter: a
    generator ``def f(ctx, ...)``.  The gate checks that the linter's
    walker finds every one of them."""
    count = 0
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if (isinstance(fn, ast.FunctionDef) and fn.args.args
                        and fn.args.args[0].arg == "ctx" and _own_yield(fn)):
                    count += 1
    return count


def test_src_and_examples_lint_green():
    report = lint_paths([ROOT / "src", ROOT / "examples"])
    assert report.clean, "\n" + report.render()
    assert report.files_checked >= 100
    assert report.tasks_checked == generator_tasks(ROOT / "src",
                                                   ROOT / "examples")


def test_benchmarks_lint_green():
    report = lint_paths([ROOT / "benchmarks"], arch=False)
    assert report.clean, "\n" + report.render()
    assert report.tasks_checked == generator_tasks(ROOT / "benchmarks")


#: names no shipped file may mention, so a later PR cannot half-resurrect
#: a deleted fork: the calendar-queue engine, its selectors and its
#: harness (DESIGN.md §11); the second tracer, the no-op tracer, span
#: sampling and the CSV exporter (DESIGN.md §18); the unused task-graph
#: IR, the per-rule re-analysis entry points and the file cache of the
#: lint pipeline (DESIGN.md §9); the FEM add-ons and helpers the use
#: ledger found no entry point reaching, and the knobs it found no entry
#: point varying, with the code only they reached, the duplicate
#: spellings of the analyst-VM constructs, and the H-graph rendering,
#: serialization and queries nothing above the formal half runs
#: (DESIGN.md §19)
DELETED = {
    "engine_fork": ("FEM2_ENGINE", "forced_engine", "FastEventEngine",
                    "calqueue", "repro.perf"),
    "second_tracer": ("TraceRecorder", "TraceEvent", "hardware.trace",
                      "NullTracer", "NULL_TRACER", "sample_every",
                      "sampled_out", "to_csv"),
    "lint_ir_and_cache": ("TaskGraph", "build_graph", "flow.ir",
                          "LintCache", "lint-cache", "--cache",
                          "cache_hits", "check_w2_flow", "check_cost"),
    "fem_additions": ("natural_frequencies", "newmark_transient",
                      "assemble_mass", "subspace_eigensolve", "mesh_quality",
                      "Quad8", "rect_grid_quad8", "parallel_power_iteration",
                      "parallel_stress_recovery", "check_package_api",
                      "speedup_series"),
    "idle_knobs": ("max_cycles_per_window", "window_cycles", "cost_units",
                   "roll_window", "_predicted_cost_units", "_cost_cache",
                   "check_c2"),
    "content_digest": ("content_fingerprint", "_feed_content",
                       "Snapshottable", "is_snapshottable"),
    "duplicate_constructs": ("forall_windows", "scatter_gather",
                             "worker_pool", "remote_map", "langvm.rpc",
                             "langvm.broadcast", "render_traceability",
                             "get_local", "set_local", "ctx.zeros("),
    "hgraph_unreached": ("to_dot", "graph_signature", "build_list",
                         "list_grammar", "record_grammar", "call_tree",
                         "RequirementTracker"),
    "frame_family": ("Beam2D", "beam2d", "cantilever_frame", "portal_frame",
                     "generate_frame", "_cmd_frame"),
    "link_failure": ("fail_link", "schedule_link_failure", "repair_pe",
                     "restore_cluster", "_drop_link", ".transfer_cost("),
    "job_checkpoint": ("checkpoint_job", "_not_resident", "self._owner",
                       "owner=self", "owner=service"),
    "metrics_surface": ("Histogram.merge", ".flat()", ".is_busy(",
                        "busy.begin(", "metrics.report(", "inj.summary("),
}


#: settings the use ledger's knob half found no entry point varying,
#: made constants (DESIGN.md §19): each call passes one as a keyword
IDLE_KNOBS = {
    "Tenant(max_cycles_per_window=)":
        lambda: Tenant("t", max_cycles_per_window=1),
    "Tenant(window_cycles=)": lambda: Tenant("t", window_cycles=1),
    "JobSpec(cost_units=)":
        lambda: JobSpec(user="u", model=None, load_set="l", cost_units=1),
    "ServicePool(checkpointing=)": lambda: ServicePool(checkpointing=True),
    "TaskContext.create(capacity=)":
        lambda: TaskContext.create(None, [1.0], capacity=1),
    "Checkpointer(keep=)": lambda: Checkpointer(None, 10, keep=1),
    "Campaign(start_method=)": lambda: Campaign(None, start_method="fork"),
    "Runtime(registry=)": lambda: Runtime(None, registry=None),
    "Interpreter(verify=)": lambda: Interpreter(verify=False),
    "Interpreter(trace=)": lambda: Interpreter(trace=True),
    "Interpreter(max_depth=)": lambda: Interpreter(max_depth=10),
    "DesignProcess(check_artifacts=)":
        lambda: DesignProcess(None, check_artifacts=True),
    "conjugate_gradient(x0=)": lambda: conjugate_gradient(None, None, x0=None),
    "conjugate_gradient(callback=)":
        lambda: conjugate_gradient(None, None, callback=None),
    "sor(omega=)": lambda: sor(None, None, omega=1.5),
    "partition_strips(axis=)": lambda: partition_strips(None, 1, axis=0),
    "render_displacements(top=)":
        lambda: render_displacements(None, None, top=10),
    "render_stresses(top=)": lambda: render_stresses(None, top=5),
    "flame(max_children=)": lambda: flame(None, max_children=12),
    "flame(max_depth=)": lambda: flame(None, max_depth=8),
    "fairness_index(active_only=)":
        lambda: fairness_index(None, active_only=True),
    "LayerStack(name=)": lambda: LayerStack(name="fem2"),
    "CommandInterpreter(session=)":
        lambda: CommandInterpreter(session=None),
    "WorkstationSession.result(model_name=)":
        lambda: WorkstationSession().result("l", model_name="m"),
    "Mesh.nodes_on(tol=)": lambda: Mesh([[0.0, 0.0]]).nodes_on(tol=1e-9),
    "plane_stress_cantilever(aspect=)":
        lambda: plane_stress_cantilever(2, aspect=2.0),
    "Mesh(dofs_per_node=)": lambda: Mesh([[0.0, 0.0]], dofs_per_node=2),
    "JobHandle(owner=)": lambda: JobHandle(None, owner=None),
    "ModelDatabase.keys(kind=)":
        lambda: WorkstationSession().database.keys(kind="model"),
}


@pytest.mark.parametrize("knob", sorted(IDLE_KNOBS))
def test_idle_knobs_are_constants(knob):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        IDLE_KNOBS[knob]()


def test_c2_is_not_a_rule():
    assert "C2" not in CODES


@pytest.mark.parametrize("fork", sorted(DELETED))
def test_deleted_names_stay_deleted(fork):
    """``benchmarks/host`` is frozen and skipped (it still refuses the
    env var); this file holds the lists."""
    gone = DELETED[fork]
    frozen, me = ROOT / "benchmarks" / "host", pathlib.Path(__file__).resolve()
    hits = []
    for top in ("src", "tests", "benchmarks", "examples", ".github"):
        for path in sorted((ROOT / top).rglob("*")):
            if (not path.is_file() or path.suffix == ".pyc" or path == me
                    or frozen in path.parents):
                continue
            text = path.read_text(errors="ignore")
            hits += [f"{path.relative_to(ROOT)}: {name}"
                     for name in gone if name in text]
    assert not hits, hits
