"""Property-based tests (hypothesis) for the flow analyzer.

Three contracts from the analyzer's spec:

* it never crashes — any generated task program yields a well-formed,
  JSON-serializable, canonically-ordered report;
* its happens-before window-race findings are a subset of what the
  runtime :class:`~repro.langvm.audit.WindowAudit` raises when the same
  program actually runs (no false positives on the runnable family);
* :class:`~repro.lint.FlowSummary` round-trips through its codec.
"""

import ast
import itertools
import json
import pathlib
import tempfile
import textwrap

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import MachineConfig
from repro.langvm import Fem2Program, WindowAudit
from repro.lint import FlowSummary, analyze_tasks, lint_source
from repro.lint.astutil import collect_tasks
from repro.lint.cli import lint_files
from repro.lint.findings import CODES

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

TMPDIR = pathlib.Path(tempfile.mkdtemp(prefix="fem2-lint-prop-"))
COUNTER = itertools.count(1)


# -- the analyzer never crashes -----------------------------------------------

STATEMENTS = (
    "yield ctx.write({w}, data)",
    "yield ctx.accumulate({w}, data)",
    "vals = yield ctx.read({w})",
    "yield ctx.compute(cycles=3)",
    "t = yield ctx.initiate({target}, {w})",
    "t = yield ctx.initiate({target}, {w}, count=4)",
    "tids = yield ctx.initiate(kind, {w})",
    "yield ctx.wait(t)",
    "yield ctx.wait(tids)",
    "yield ctx.wait_pause(t)",
    "yield ctx.wait(mystery)",
    "tids = []",
    "tids.append(t)",
    "yield from forall(ctx, {target}, 4, ({w},))",
    "yield from helper(ctx, {w})",
    "yield ctx.local(h)",
    "return None",
)

WINDOWS = ("w", "v", "vec(h, 0, 1)")
TARGETS = ('"t0"', '"t1"', '"missing"', "kind")


@st.composite
def blocks(draw, depth):
    """A random statement block, possibly with loops and branches."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.integers(0, 9))
        if depth > 0 and shape == 0:
            lines.append("for i in range(n):")
            lines.extend("    " + s for s in draw(blocks(depth - 1)))
        elif depth > 0 and shape == 1:
            lines.append("if flag:")
            lines.extend("    " + s for s in draw(blocks(depth - 1)))
            if draw(st.booleans()):
                lines.append("else:")
                lines.extend("    " + s for s in draw(blocks(depth - 1)))
        else:
            stmt = draw(st.sampled_from(STATEMENTS))
            lines.append(stmt.format(w=draw(st.sampled_from(WINDOWS)),
                                     target=draw(st.sampled_from(TARGETS))))
    return lines


@st.composite
def task_programs(draw):
    """Source text defining a handful of mutually-referencing tasks."""
    n_tasks = draw(st.integers(1, 3))
    parts = []
    for i in range(n_tasks):
        body = draw(blocks(depth=2))
        parts.append(f"def t{i}(ctx, w, v, h, kind, flag, n):")
        parts.append("    yield ctx.compute(cycles=1)")
        parts.extend("    " + line for line in body)
        parts.append("")
    return "\n".join(parts)


class TestNeverCrashes:
    @SETTINGS
    @given(task_programs())
    def test_report_well_formed(self, source):
        report = lint_source(source)   # must not raise
        for f in report.findings:
            assert f.code in CODES
            assert f.line >= 1
        record = report.to_record()
        assert json.loads(json.dumps(record)) == record
        keys = [(f["file"], f["line"], f["code"]) for f in record["findings"]]
        assert keys == sorted(keys)

    @SETTINGS
    @given(task_programs())
    def test_summary_codec_round_trips(self, source):
        tasks = collect_tasks(ast.parse(source), "<prop>")
        summary = analyze_tasks(tasks).flow     # must not raise either
        record = summary.to_record()
        assert FlowSummary.from_record(record).to_record() == record


# -- static findings vs the runtime WindowAudit -------------------------------

TEMPLATE = '''
import numpy as np

N = 8


def leaf_write(ctx, w, index):
    yield ctx.compute(cycles=10)
    yield ctx.write(w, np.ones(N))


def leaf_acc(ctx, w, index):
    yield ctx.compute(cycles=10)
    yield ctx.accumulate(w, np.ones(N))


def leaf_read(ctx, w, index):
    vals = yield ctx.read(w)
    return float(np.sum(vals))


def mid(ctx, w, index):
    t = yield ctx.initiate("leaf_write", w)
    r = yield ctx.wait(t)
    return 0


def root(ctx):
    a = yield ctx.create(np.zeros(N))
    w = ctx.window(a)
{initiates}
{order}
    return float(np.sum(vals))
'''

CHILDREN = ("leaf_write", "leaf_acc", "leaf_read", "mid")
WRITERS = {"leaf_write", "mid"}


def render_program(children, wait_before_read):
    initiates = "\n".join(
        f'    t{i} = yield ctx.initiate("{child}", w)'
        for i, child in enumerate(children))
    tids = " + ".join(f"t{i}" for i in range(len(children)))
    wait = f"    done = yield ctx.wait({tids})"
    read = "    vals = yield ctx.read(w)"
    order = f"{wait}\n{read}" if wait_before_read else f"{read}\n{wait}"
    return TEMPLATE.format(initiates=initiates, order=order)


def run_audited(source):
    path = TMPDIR / f"gen_{next(COUNTER)}.py"
    path.write_text(source)
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    cfg = MachineConfig(n_clusters=2, pes_per_cluster=5,
                        memory_words_per_cluster=8_000_000)
    prog = Fem2Program(cfg)
    for name in ("leaf_write", "leaf_acc", "leaf_read", "mid", "root"):
        prog.define(name, namespace[name])
    audit = WindowAudit.on(prog)
    prog.run("root", cluster=0)
    return path, audit


class TestStaticSubsetOfRuntime:
    @SETTINGS
    @given(st.lists(st.sampled_from(CHILDREN), min_size=1, max_size=3),
           st.booleans())
    def test_window_race_findings_manifest_at_runtime(
            self, children, wait_before_read):
        source = render_program(children, wait_before_read)
        path, audit = run_audited(source)
        report = lint_files([path])
        static = {f.code for f in report.findings} & {"W1", "W2", "W3"}

        # write-write findings: the conflicting writers really collide
        if static & {"W1", "W3"}:
            assert audit.conflicts
        # W2 read-write: both race partners really touch the array
        if "W2" in static:
            assert any(len(audit.tasks_touching(aid)) >= 2
                       for aid in list(audit._accesses))
        # statically clean => the runtime auditor is clean too
        if not static:
            assert audit.clean

    @SETTINGS
    @given(st.lists(st.sampled_from(CHILDREN), min_size=1, max_size=3),
           st.booleans())
    def test_static_verdict_matches_writer_count(
            self, children, wait_before_read):
        """On this family the write-race verdict is exact: findings
        appear iff two writers can overlap."""
        source = render_program(children, wait_before_read)
        path = TMPDIR / f"gen_{next(COUNTER)}.py"
        path.write_text(source)
        report = lint_files([path])
        static = {f.code for f in report.findings} & {"W1", "W3"}
        n_writers = sum(1 for c in children if c in WRITERS)
        assert bool(static) == (n_writers >= 2)
