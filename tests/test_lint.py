"""Tests for repro.lint: the program checkers (W1/W2/D1/O1), the
architecture checkers (A2/A3), the CLI, lint_program, and the
MachineService submit gate."""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.appvm import JobSpec
from repro.errors import AppVMError
from repro.lint import (
    Finding,
    LintReport,
    lint_paths,
    lint_program,
    lint_source,
)
from repro.lint.cli import main as lint_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def codes(report):
    return sorted(f.code for f in report.findings)


# -- the program checkers, via lint_source ------------------------------------


class TestW1:
    def test_forall_shared_plain_write_flagged(self):
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w):
                yield ctx.write(out_w, data)

            def root(ctx, out_w):
                yield from forall(ctx, "writer", 4, (out_w,))
        """))
        assert codes(report) == ["W1"]
        f = report.findings[0]
        assert f.severity == "error"
        assert f.line == 6
        assert "out_w" in f.message

    def test_replicated_initiate_shared_plain_write_flagged(self):
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w):
                yield ctx.write(out_w, data)

            def root(ctx, out_w, n):
                tids = yield ctx.initiate("writer", out_w, count=n)
                yield ctx.wait(tids)
        """))
        assert "W1" in codes(report)

    def test_generated_pardo_shared_plain_write_flagged(self):
        """Every generated statement gets ``out_w``; only ``part`` differs."""
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w, part):
                yield ctx.write(out_w, data)

            def banded(ctx, part, out_w):
                yield ctx.write(part, data)

            def root(ctx, out_w):
                yield from pardo(ctx, *(("writer", (out_w, p))
                                        for p in out_w.split_rows(4)))
                yield from pardo(ctx, *(("banded", (p, out_w))
                                        for p in out_w.split_rows(4)))
        """))
        assert codes(report) == ["W1"]
        assert report.findings[0].line == 9

    def test_accumulate_exempt(self):
        report = lint_source(textwrap.dedent("""
            def acc(ctx, out_w):
                yield ctx.accumulate(out_w, data)

            def root(ctx, out_w):
                yield from forall(ctx, "acc", 4, (out_w,))
        """))
        assert report.clean

    def test_derived_windows_never_tracked(self):
        """Partitioned fan-out — the canonical legal idiom — is clean."""
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w):
                yield ctx.write(out_w, data)

            def root(ctx, h, n):
                tids = []
                for i in range(n):
                    got = yield ctx.initiate("writer", vec(h, i, i + 1), count=1)
                    tids.extend(got)
                yield ctx.wait(tids)
        """))
        assert report.clean

    def test_single_initiation_not_replicated(self):
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w):
                yield ctx.write(out_w, data)

            def root(ctx, out_w):
                tids = yield ctx.initiate("writer", out_w, count=1)
                yield ctx.wait(tids)
        """))
        assert report.clean

    def test_pardo_siblings_sharing_written_window(self):
        report = lint_source(textwrap.dedent("""
            def wa(ctx, w):
                yield ctx.write(w, a)

            def wb(ctx, w):
                yield ctx.write(w, b)

            def root(ctx, w):
                yield from pardo(ctx, ("wa", (w,)), ("wb", (w,)))
        """))
        assert codes(report) == ["W1"]

    def test_pardo_disjoint_windows_clean(self):
        report = lint_source(textwrap.dedent("""
            def wa(ctx, w):
                yield ctx.write(w, a)

            def root(ctx, w1, w2):
                yield from pardo(ctx, ("wa", (w1,)), ("wa", (w2,)))
        """))
        assert report.clean


class TestW2:
    def test_read_of_unwaited_write_flagged(self):
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w):
                yield ctx.write(out_w, data)

            def root(ctx, out_w):
                tids = yield ctx.initiate("writer", out_w, count=1)
                data = yield ctx.read(out_w)
                yield ctx.wait(tids)
        """))
        assert "W2" in codes(report)

    def test_read_after_wait_clean(self):
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w):
                yield ctx.write(out_w, data)

            def root(ctx, out_w):
                tids = yield ctx.initiate("writer", out_w, count=1)
                yield ctx.wait(tids)
                data = yield ctx.read(out_w)
        """))
        assert report.clean

    def test_forall_waits_inline_so_read_after_is_clean(self):
        report = lint_source(textwrap.dedent("""
            def writer(ctx, out_w):
                yield ctx.write(out_w, data)

            def root(ctx, out_w):
                yield from forall(ctx, "writer", 1, (out_w,))
                data = yield ctx.read(out_w)
        """))
        # forall(n=1) is not replicated sharing, and it waits inline
        assert report.clean


class TestD1:
    def test_discarded_initiate_flagged(self):
        report = lint_source(textwrap.dedent("""
            def child(ctx):
                yield ctx.compute(cycles=5)

            def root(ctx):
                yield ctx.initiate("child", count=4)
                yield ctx.compute(cycles=1)
        """))
        assert codes(report) == ["D1"]
        assert report.findings[0].line == 6

    def test_bound_but_unused_tids_flagged(self):
        report = lint_source(textwrap.dedent("""
            def child(ctx):
                yield ctx.compute(cycles=5)

            def root(ctx):
                tids = yield ctx.initiate("child", count=4)
                yield ctx.compute(cycles=1)
        """))
        assert codes(report) == ["D1"]

    def test_returned_tids_are_a_use(self):
        """A worker pool's spawner returns the tids: the caller waits."""
        report = lint_source(textwrap.dedent("""
            def child(ctx):
                yield ctx.compute(cycles=5)

            def pool(ctx):
                tids = yield ctx.initiate("child", count=4)
                return tids
        """))
        assert report.clean

    def test_unconditional_cycle_flagged(self):
        report = lint_source(textwrap.dedent("""
            def ping(ctx):
                tids = yield ctx.initiate("pong", count=1)
                yield ctx.wait(tids)

            def pong(ctx):
                tids = yield ctx.initiate("ping", count=1)
                yield ctx.wait(tids)
        """))
        assert "D1" in codes(report)
        assert "cycle" in report.findings[-1].message

    def test_conditional_recursion_clean(self):
        """The tree-reduce base case makes self-initiation legal."""
        report = lint_source(textwrap.dedent("""
            def node(ctx, depth):
                if depth == 0:
                    return 1
                tids = yield ctx.initiate("node", depth - 1, count=2)
                got = yield ctx.wait(tids)
                return sum(got)
        """))
        assert report.clean


class TestO1:
    def test_local_on_parameter_flagged(self):
        report = lint_source(textwrap.dedent("""
            def task(ctx, h):
                view = ctx.local(h)
                yield ctx.compute(cycles=1)
        """))
        assert codes(report) == ["O1"]

    def test_local_on_created_handle_clean(self):
        report = lint_source(textwrap.dedent("""
            def task(ctx, n):
                h = yield ctx.create(np.zeros(n))
                view = ctx.local(h)
                yield ctx.compute(cycles=1)
        """))
        assert report.clean


class TestA2:
    def test_unbalanced_branch_flagged(self):
        report = lint_source(textwrap.dedent("""
            def f(obs, fast):
                span = obs.begin("work", "w", 0)
                if fast:
                    return 1
                obs.end(span, 10)
        """))
        assert codes(report) == ["A2"]
        assert report.findings[0].severity == "warning"

    def test_balanced_branches_clean(self):
        report = lint_source(textwrap.dedent("""
            def f(obs, fast):
                span = obs.begin("work", "w", 0)
                if fast:
                    obs.end(span, 1)
                    return 1
                obs.end(span, 10)
        """))
        assert report.clean

    def test_escaped_span_not_flagged(self):
        """A span stored or returned is deliberately long-lived."""
        report = lint_source(textwrap.dedent("""
            def f(obs, handle):
                span = obs.begin("job", "j", 0)
                handle.span = span
        """))
        assert report.clean

    def test_ctx_obs_begin_spelling(self):
        report = lint_source(textwrap.dedent("""
            def task(ctx):
                s = ctx.obs_begin("phase", "p")
                yield ctx.compute(cycles=1)
        """))
        assert codes(report) == ["A2"]


class TestA3:
    def test_drifted_export_flagged(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(textwrap.dedent("""
            from .mod import real_thing

            __all__ = ["real_thing", "renamed_away"]
        """))
        report = lint_paths([tmp_path], arch=False)
        assert codes(report) == ["A3"]
        assert "renamed_away" in report.findings[0].message

    def test_resolving_exports_clean(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(textwrap.dedent("""
            from .mod import real_thing

            VERSION = "1"

            __all__ = ["real_thing", "VERSION"]
        """))
        report = lint_paths([tmp_path], arch=False)
        assert report.clean


class TestS1:
    def test_snapshot_without_restore_flagged(self):
        report = lint_source(textwrap.dedent("""
            class Clock:
                def snapshot(self):
                    return {"now": self.now}
        """))
        assert codes(report) == ["S1"]
        assert "restore" in report.findings[0].message

    def test_uncovered_slot_flagged(self):
        report = lint_source(textwrap.dedent("""
            class PE:
                __slots__ = ("state", "cycles", "on_done")

                def snapshot(self):
                    return {"state": self.state, "cycles": self.cycles}

                def restore(self, state):
                    self.state = state["state"]
                    self.cycles = state["cycles"]
        """))
        assert codes(report) == ["S1"]
        assert "'on_done'" in report.findings[0].message

    def test_exempt_field_clean(self):
        report = lint_source(textwrap.dedent("""
            class PE:
                __slots__ = ("state", "on_done")
                _snapshot_exempt = ("on_done",)

                def snapshot(self):
                    return {"state": self.state}

                def restore(self, state):
                    self.state = state["state"]
        """))
        assert report.clean

    def test_dataclass_fields_checked(self):
        report = lint_source(textwrap.dedent("""
            from dataclasses import dataclass

            @dataclass
            class TCB:
                tid: int
                mailbox: list

                def snapshot(self):
                    return {"tid": self.tid}

                def restore(self, state):
                    self.tid = state["tid"]
        """))
        assert codes(report) == ["S1"]
        assert "'mailbox'" in report.findings[0].message

    def test_string_key_coverage_counts(self):
        """A field serialized via a dict key (not a self.X read) is covered."""
        report = lint_source(textwrap.dedent("""
            class Store:
                __slots__ = ("arrays",)

                def snapshot(self):
                    return {"arrays": sorted(getattr(self, "arrays"))}

                def restore(self, state):
                    setattr(self, "arrays", state["arrays"])
        """))
        assert report.clean

    def test_class_without_snapshot_ignored(self):
        report = lint_source(textwrap.dedent("""
            class Plain:
                __slots__ = ("a", "b")

                def restore(self, state):
                    pass
        """))
        assert report.clean


# -- findings / report plumbing -----------------------------------------------


class TestFindings:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Finding("Z9", "nope", "f.py", 1)

    def test_report_record_schema(self):
        report = LintReport([Finding("W1", "m", "f.py", 3, task="t")],
                            files_checked=1, tasks_checked=2)
        rec = report.to_record()
        assert rec["schema"] == "fem2-lint/1"
        assert rec["counts"] == {"W1": 1}
        assert rec["findings"][0]["file"] == "f.py"
        json.dumps(rec)  # plain data end to end

    def test_exit_codes(self):
        clean = LintReport()
        assert clean.exit_code() == 0 and clean.exit_code(strict=True) == 0
        warn = LintReport([Finding("A2", "m", "f.py", 1, severity="warning")])
        assert warn.exit_code() == 0 and warn.exit_code(strict=True) == 1
        err = LintReport([Finding("W1", "m", "f.py", 1)])
        assert err.exit_code() == 1

    def test_emit_onto_tracer(self):
        from repro.obs import Tracer

        tracer = Tracer()
        report = LintReport([Finding("D1", "m", "f.py", 7, task="root")])
        report.emit(tracer, now=0)
        spans = tracer.spans("lint.D1")
        assert len(spans) == 1
        assert spans[0].attrs["line"] == 7


# -- the CLI ------------------------------------------------------------------


RACY = '''
def writer(ctx, out_w):
    yield ctx.write(out_w, data)

def root(ctx, out_w):
    yield from forall(ctx, "writer", 4, (out_w,))
'''


class TestCLI:
    def test_exit_one_on_racy_file(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(RACY)
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "W1" in out and "racy.py:6" in out

    def test_exit_zero_on_repo(self, capsys):
        rc = lint_main([str(ROOT / "src"), str(ROOT / "examples")])
        assert rc == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(RACY)
        assert lint_main(["--json", str(bad)]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["schema"] == "fem2-lint/1"
        assert rec["counts"] == {"W1": 1}

    def test_unparseable_file_is_e0(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_paths([bad])
        assert codes(report) == ["E0"]

    def test_module_entry_point(self, tmp_path):
        bad = tmp_path / "racy.py"
        bad.write_text(RACY)
        env_src = str(ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "W1" in proc.stdout


# -- lint_program + the MachineService gate -----------------------------------


RACY_MODULE = '''
from repro.langvm.parallel import forall


def register(prog):
    @prog.task("lp_writer")
    def lp_writer(ctx, out_w):
        yield ctx.write(out_w, [1.0] * 4)

    @prog.task("lp_root")
    def lp_root(ctx, out_w):
        yield from forall(ctx, "lp_writer", 4, (out_w,))
'''


def load_module(tmp_path, name, source):
    import importlib.util

    path = tmp_path / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod, path


def make_model():
    from repro.appvm import StructureModel
    from repro.fem import LoadSet, Material, rect_grid

    model = StructureModel(
        "plate", material=Material(e=70e9, nu=0.3, thickness=0.01))
    model.set_mesh(rect_grid(5, 2, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    ls = LoadSet("case")
    ls.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, -1e4)
    model.load_sets["case"] = ls
    return model


class TestTaskRecognition:
    """A task is a ``ctx``-first function whose own body yields."""

    @staticmethod
    def fn(source):
        import ast

        return ast.parse(textwrap.dedent(source)).body[0]

    def test_nested_generator_above_its_own_yield(self):
        from repro.lint.astutil import is_task_function

        assert is_task_function(self.fn("""
            def task(ctx):
                def helper():
                    yield 1
                if ctx.cluster:
                    if ctx.task_id:
                        yield ctx.compute(flops=1)
        """))

    def test_only_a_nested_yield_is_not_a_task(self):
        from repro.lint.astutil import is_task_function

        assert not is_task_function(self.fn("""
            def task(ctx):
                def helper():
                    yield 1
                return list(helper())
        """))


class TestLintProgram:
    def test_racy_registry_reported_with_location(self, tmp_path):
        from repro.langvm import Fem2Program

        mod, path = load_module(tmp_path, "racy_prog", RACY_MODULE)
        prog = Fem2Program()
        mod.register(prog)
        report = lint_program(prog)
        assert codes(report) == ["W1"]
        f = report.findings[0]
        assert f.file == str(path)
        assert f.task == "lp_root"
        assert f.line == 12  # the forall line, in the real module file

    def test_clean_registry(self):
        from repro.langvm import Fem2Program
        from repro.langvm.linalg import ensure_registered

        prog = Fem2Program()
        ensure_registered(prog)
        assert lint_program(prog).clean


class TestSubmitGate:
    def test_error_mode_rejects_before_any_cycle(self, tmp_path):
        from repro.appvm import MachineService

        svc = MachineService()
        mod, _ = load_module(tmp_path, "racy_gate", RACY_MODULE)
        mod.register(svc.program)
        with pytest.raises(AppVMError, match="W1"):
            svc.submit(JobSpec(user="alice", model=make_model(),
                               load_set="case", lint="error"))
        assert svc.program.now == 0
        assert not svc.machine.jobs

    def test_warn_mode_proceeds(self, tmp_path):
        from repro.appvm import MachineService

        svc = MachineService()
        mod, _ = load_module(tmp_path, "racy_warn", RACY_MODULE)
        mod.register(svc.program)
        with pytest.warns(UserWarning, match="static analysis"):
            handle = svc.submit(JobSpec(user="bob", model=make_model(),
                                        load_set="case", lint="warn"))
        assert len(svc.machine.jobs) == 1
        svc.run()
        assert handle.result().max_displacement() > 0

    def test_invalid_mode_rejected(self):
        from repro.appvm import MachineService

        with pytest.raises(AppVMError, match="lint must be one of"):
            JobSpec(user="x", model=make_model(), load_set="case",
                    lint="loud")

    def test_default_is_off(self, tmp_path):
        """Existing callers are untouched: a racy registry does not block
        a submit that never asked for linting."""
        from repro.appvm import MachineService

        svc = MachineService()
        mod, _ = load_module(tmp_path, "racy_off", RACY_MODULE)
        mod.register(svc.program)
        handle = svc.submit(JobSpec(user="carol", model=make_model(),
                                    load_set="case"))
        assert len(svc.machine.jobs) == 1

    def test_clean_program_passes_error_mode(self):
        from repro.appvm import MachineService

        svc = MachineService()
        h = svc.submit(JobSpec(user="dave", model=make_model(),
                               load_set="case", lint="error"))
        svc.run()
        assert h.result().max_displacement() > 0

    def test_findings_ride_the_obs_spine(self, tmp_path):
        from repro.appvm import MachineService
        from repro.obs import Tracer

        tracer = Tracer()
        svc = MachineService(tracer=tracer)
        mod, _ = load_module(tmp_path, "racy_obs", RACY_MODULE)
        mod.register(svc.program)
        with pytest.raises(AppVMError):
            svc.submit(JobSpec(user="eve", model=make_model(),
                               load_set="case", lint="error"))
        assert len(tracer.spans("lint.W1")) == 1
