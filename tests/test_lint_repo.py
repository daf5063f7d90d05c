"""Tier-1 gate: the shipped code must pass its own static analyzer.

``python -m repro.lint src/ examples/`` runs green on every PR — a task
idiom, span pattern, or layering change that trips W/D/O/A checks must
either be fixed or the checker taught the new legal idiom *in the same
PR*.  This is the pytest face of that gate.
"""

import pathlib

import pytest

from repro.lint import LintCache, lint_paths

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: one cache for the whole module: the gates re-walk the same trees,
#: so per-file work is paid once
CACHE = LintCache()


def test_src_and_examples_lint_green():
    report = lint_paths([ROOT / "src", ROOT / "examples"], cache=CACHE)
    assert report.clean, "\n" + report.render()
    assert report.files_checked >= 100
    assert report.tasks_checked >= 30  # the walker is finding real tasks


def test_benchmarks_lint_green():
    report = lint_paths([ROOT / "benchmarks"], arch=False, cache=CACHE)
    assert report.clean, "\n" + report.render()
    assert report.tasks_checked >= 10


def test_cache_reuses_unchanged_files():
    """A re-run over an already-analyzed tree is pure cache hits and
    reaches the same verdict."""
    first = lint_paths([ROOT / "src"], arch=False, cache=CACHE)
    again = lint_paths([ROOT / "src"], arch=False, cache=CACHE)
    assert again.cache_misses == 0
    assert again.cache_hits == again.files_checked
    assert [f.render() for f in first.sorted_findings()] \
        == [f.render() for f in again.sorted_findings()]


#: names no shipped file may mention, so a later PR cannot half-resurrect
#: a deleted fork: the calendar-queue engine, its selectors and its
#: harness (DESIGN.md §11); the second tracer, the no-op tracer, span
#: sampling and the CSV exporter (DESIGN.md §18)
DELETED = {
    "engine_fork": ("FEM2_ENGINE", "forced_engine", "FastEventEngine",
                    "calqueue", "repro.perf"),
    "second_tracer": ("TraceRecorder", "TraceEvent", "hardware.trace",
                      "NullTracer", "NULL_TRACER", "sample_every",
                      "sampled_out", "to_csv"),
}


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
