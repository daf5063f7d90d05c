"""Tier-1 gate: the shipped code must pass its own static analyzer.

``python -m repro.lint src/ examples/`` runs green on every PR — a task
idiom, span pattern, or layering change that trips W/D/O/A checks must
either be fixed or the checker taught the new legal idiom *in the same
PR*.  This is the pytest face of that gate.
"""

import pathlib

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


def test_calqueue_snapshot_exemptions_are_tight():
    """S1 audit for the calendar-queue engine: its ``_snapshot_exempt``
    tuple must name only real, reconstructible fields — every exempt
    field is rebuilt empty by ``restore()``, everything else is covered
    by the snapshot/restore pair, and no slot is exempted 'just in
    case' (a stale exemption would let real state silently escape the
    checkpoint contract)."""
    import ast

    from repro.hardware.calqueue import FastEventEngine
    from repro.lint.snapshots import check_snapshots

    path = ROOT / "src" / "repro" / "hardware" / "calqueue.py"
    findings = check_snapshots(ast.parse(path.read_text()), str(path))
    assert not findings, [f.message for f in findings]

    exempt = set(FastEventEngine._snapshot_exempt)
    slots = set(FastEventEngine.__slots__)
    assert exempt <= slots, "exemption names a field that does not exist"
    # exactly the rebuilt-not-serialized fields: the tracer back-ref and
    # the queue internals (each layer re-issues its events on restore)
    assert exempt == {"tracer", "_buckets", "_times"}

    eng = FastEventEngine()
    eng.schedule(3, lambda: None)
    eng.restore({"now": 5, "events_processed": 1, "halted": False})
    assert eng.pending() == 0 and eng.idle()  # exempt queue state rebuilt
    assert eng.snapshot() == {"now": 5, "events_processed": 1,
                              "halted": False}
