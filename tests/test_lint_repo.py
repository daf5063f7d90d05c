"""Tier-1 gate: the shipped code must pass its own static analyzer.

``python -m repro.lint src/ examples/`` runs green on every PR — a task
idiom, span pattern, or layering change that trips W/D/O/A checks must
either be fixed or the checker taught the new legal idiom *in the same
PR*.  This is the pytest face of that gate.
"""

import pathlib

import pytest

from repro.appvm import JobSpec, ServicePool, Tenant
from repro.campaign import Campaign
from repro.ckpt import Checkpointer
from repro.langvm.program import TaskContext
from repro.lint import lint_paths
from repro.lint.findings import CODES
from repro.sysvm.runtime import Runtime

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_src_and_examples_lint_green():
    report = lint_paths([ROOT / "src", ROOT / "examples"])
    assert report.clean, "\n" + report.render()
    assert report.files_checked >= 100
    assert report.tasks_checked >= 30  # the walker is finding real tasks


def test_benchmarks_lint_green():
    report = lint_paths([ROOT / "benchmarks"], arch=False)
    assert report.clean, "\n" + report.render()
    assert report.tasks_checked >= 10


#: names no shipped file may mention, so a later PR cannot half-resurrect
#: a deleted fork: the calendar-queue engine, its selectors and its
#: harness (DESIGN.md §11); the second tracer, the no-op tracer, span
#: sampling and the CSV exporter (DESIGN.md §18); the unused task-graph
#: IR, the per-rule re-analysis entry points and the file cache of the
#: lint pipeline (DESIGN.md §9); the FEM add-ons and helpers the use
#: ledger found no entry point reaching, and the knobs it found no entry
#: point varying, with the code only they reached (DESIGN.md §19)
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
    "TaskContext.zeros(capacity=)":
        lambda: TaskContext.zeros(None, 4, capacity=1),
    "Checkpointer(keep=)": lambda: Checkpointer(None, 10, keep=1),
    "Campaign(start_method=)": lambda: Campaign(None, start_method="fork"),
    "Runtime(registry=)": lambda: Runtime(None, registry=None),
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
