"""Tests for the observability spine (:mod:`repro.obs`): span recording,
exporters, cross-layer instrumentation, and the tracing-changes-nothing
cycle regression."""

import json

import numpy as np
import pytest

from repro.appvm import MachineService, StructureModel
from repro.fem import LoadSet, Material, rect_grid
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program, forall
from repro.obs import Tracer, flame, plain, span_tree, to_json, to_record


class TestTracer:
    def test_span_nesting_and_parent_links(self):
        tr = Tracer()
        outer = tr.begin("job", "solve", 0, user="alice")
        inner = tr.begin("task", "worker", 10, parent=outer, tid=7)
        tr.end(inner, 40)
        tr.end(outer, 100)
        assert inner.parent_sid == outer.sid
        assert outer.parent_sid is None
        assert inner.cycles == 30 and outer.cycles == 100
        assert not inner.open and not outer.open
        assert [s.sid for s in tr.children_of(outer.sid)] == [inner.sid]
        assert [s.sid for s in tr.roots()] == [outer.sid]
        assert inner.attrs["tid"] == 7

    def test_parent_accepts_span_or_sid(self):
        tr = Tracer()
        a = tr.begin("k", "a", 0)
        b = tr.begin("k", "b", 0, parent=a.sid)
        assert b.parent_sid == a.sid

    def test_stats_aggregate_exactly(self):
        tr = Tracer()
        for cycles in (5, 15, 10):
            s = tr.begin("task", "t", 0)
            tr.end(s, cycles)
        summary = tr.kind_summary()["task"]
        assert summary["count"] == 3
        assert summary["cycles"] == 30
        assert summary["min"] == 5 and summary["max"] == 15
        assert summary["mean"] == pytest.approx(10.0)

    def test_point_events(self):
        tr = Tracer()
        parent = tr.begin("task", "t", 0)
        p = tr.point("msg", "write", 12, parent=parent, words=64)
        assert p.t0 == p.t1 == 12 and p.cycles == 0
        assert p.parent_sid == parent.sid
        agg = tr.point("hw.event", "dispatch", 13, aggregate_only=True)
        assert agg is None
        assert tr.kind_summary()["hw.event"]["count"] == 1
        assert tr.spans("hw.event") == []  # not retained, only aggregated

    def test_capacity_bounds_list_not_stats(self):
        tr = Tracer(capacity=2)
        for i in range(5):
            tr.point("k", "p", i)
        assert len(tr) == 2
        assert tr.dropped == 3 and tr.recorded == 5
        assert tr.kind_summary()["k"]["count"] == 5  # aggregates stay exact

    def test_end_open_and_clear(self):
        tr = Tracer()
        s = tr.begin("k", "x", 0)
        assert s.open and s.cycles == 0
        assert tr.end(None, 10) is None  # tolerated: obs_begin may return None
        tr.clear()
        assert len(tr) == 0 and tr.recorded == 0 and tr.stats() == {}


def sample_tracer():
    tr = Tracer()
    job = tr.begin("appvm.job", "alice/plate", 0, user="alice")
    t1 = tr.begin("sysvm.task", "root", 5, parent=job, tid=1)
    tr.point("sysvm.msg.write", "write", 9, parent=t1, words=8)
    tr.end(t1, 50, outcome="done")
    tr.end(job, 60)
    return tr


class TestExport:
    def test_json_round_trip(self):
        tr = sample_tracer()
        doc = json.loads(to_json(tr))
        assert doc == to_record(tr)
        assert doc["recorded"] == 3 and doc["dropped"] == 0
        kinds = {s["kind"] for s in doc["spans"]}
        assert kinds == {"appvm.job", "sysvm.task", "sysvm.msg.write"}
        by_label = {s["label"]: s for s in doc["spans"]}
        assert by_label["root"]["parent"] == by_label["alice/plate"]["sid"]
        assert by_label["root"]["cycles"] == 45
        assert by_label["root"]["attrs"]["outcome"] == "done"

    def test_plain_converts_numpy(self):
        assert plain(np.int64(3)) == 3
        assert plain(np.float64(2.5)) == 2.5
        assert plain(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert plain({"a": (np.int32(1),)}) == {"a": [1]}
        assert isinstance(plain(object()), str)
        json.dumps(plain({"x": np.arange(3)}))  # must not raise

    def test_span_tree_nests_causally(self):
        tree = span_tree(sample_tracer())
        assert len(tree) == 1
        job = tree[0]
        assert job["kind"] == "appvm.job"
        (task,) = job["children"]
        assert task["kind"] == "sysvm.task"
        (msg,) = task["children"]
        assert msg["kind"] == "sysvm.msg.write" and msg["children"] == []

    def test_flame_text(self):
        text = flame(sample_tracer())
        assert "appvm.job:alice/plate" in text
        assert "per-kind aggregate" in text
        # nested one indent level per causal hop
        lines = text.splitlines()
        job_idx = next(i for i, l in enumerate(lines) if "appvm.job" in l)
        assert lines[job_idx + 1].startswith("  sysvm.task")


def make_program(tracer=None):
    cfg = MachineConfig(
        n_clusters=2, pes_per_cluster=3, memory_words_per_cluster=500_000
    )
    return Fem2Program(cfg, tracer=tracer)


def run_fanout(prog):
    @prog.task()
    def child(ctx, index):
        yield ctx.compute(flops=50 * (index + 1))
        return index

    @prog.task()
    def root(ctx):
        results = yield from forall(ctx, "child", n=3)
        return sum(results)

    return prog.run("root")


class TestInstrumentation:
    def test_task_spans_link_parent_to_children(self):
        tr = Tracer()
        prog = make_program(tracer=tr)
        assert prog.tracer is tr
        assert run_fanout(prog) == 0 + 1 + 2

        tasks = tr.spans("sysvm.task")
        assert len(tasks) == 4  # root + 3 children
        root = next(s for s in tasks if s.label == "root")
        children = [s for s in tasks if s.label == "child"]
        assert all(c.parent_sid == root.sid for c in children)
        assert all(not c.open and c.attrs["outcome"] == "done" for c in children)
        # heap allocation recorded per task, parented under it
        allocs = tr.spans("sysvm.heap.alloc")
        assert len(allocs) == 4
        assert all(a.attrs["words"] > 0 for a in allocs)

    def test_langvm_forall_span_scopes_the_fanout(self):
        tr = Tracer()
        prog = make_program(tracer=tr)
        run_fanout(prog)
        (fa,) = tr.spans("langvm.forall")
        assert fa.label == "child"
        assert fa.attrs == {"n": 3, "tasks": 3}
        root = next(s for s in tr.spans("sysvm.task") if s.label == "root")
        assert fa.parent_sid == root.sid
        assert fa.cycles > 0

    def test_message_and_hw_aggregates(self):
        tr = Tracer()
        prog = make_program(tracer=tr)
        run_fanout(prog)
        kinds = tr.kind_summary()
        # initiating remote children sends INITIATE_TASK messages
        assert any(k.startswith("sysvm.msg.") for k in kinds)
        assert kinds["sysvm.decode"]["count"] >= 1
        # hardware event dispatch is aggregate-only: counted, not listed
        assert kinds["hw.event"]["count"] > 0
        assert tr.spans("hw.event") == []
        assert kinds["hw.event"]["count"] <= prog.machine.engine.events_processed

    def test_tracing_changes_no_cycles(self):
        """The acceptance regression: identical simulation with tracing
        off (None) and fully on."""
        outcomes = []
        for tracer in (None, Tracer()):
            prog = make_program(tracer=tracer)
            result = run_fanout(prog)
            outcomes.append(
                (result, prog.now, prog.metrics.get("proc.flops"),
                 prog.metrics.get("comm.messages"),
                 prog.machine.engine.events_processed)
            )
        assert outcomes[0] == outcomes[1]


def make_model(name="plate"):
    model = StructureModel(
        name, material=Material(e=70e9, nu=0.3, thickness=0.01)
    )
    model.set_mesh(rect_grid(5, 2, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    ls = LoadSet("case")
    ls.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, -1e4)
    model.load_sets["case"] = ls
    return model


class TestServiceProfile:
    def test_job_span_tree_links_all_layers(self):
        """One solve yields job -> root task -> workers -> messages."""
        tr = Tracer()
        service = MachineService(
            MachineConfig(n_clusters=4, pes_per_cluster=5,
                          memory_words_per_cluster=16_000_000),
            tracer=tr,
        )
        from repro.appvm import JobSpec
        handle = service.submit(JobSpec(user="alice", model=make_model(),
                                        load_set="case", workers=2))
        assert handle.span is not None and handle.span.open
        service.run()
        assert handle.result().u is not None

        (job,) = tr.spans("appvm.job")
        assert job.label == "alice/plate"
        assert not job.open
        assert job.attrs["workers"] == 2 and job.attrs["iterations"] >= 1

        # the job's root task parents under the job span
        root_tasks = tr.children_of(job.sid)
        assert any(s.label.startswith("fem.cg_root") for s in root_tasks)
        root = next(s for s in root_tasks if s.label.startswith("fem.cg_root"))
        workers = [
            s for s in tr.children_of(root.sid)
            if s.kind == "sysvm.task" and s.label.startswith("fem.cg_worker")
        ]
        assert len(workers) == 2
        # messages attribute causally to the tasks that sent them
        task_sids = {root.sid} | {w.sid for w in workers}
        msgs = [s for s in tr.spans() if s.kind.startswith("sysvm.msg.")]
        assert msgs and any(m.parent_sid in task_sids for m in msgs)
        # the whole profile is valid JSON and the tree roots at the job
        doc = json.loads(to_json(tr))
        assert doc["kinds"]["appvm.job"]["count"] == 1
        tree = span_tree(tr)
        assert [n["kind"] for n in tree].count("appvm.job") == 1

    def test_untraced_service_has_no_span(self):
        service = MachineService(
            MachineConfig(n_clusters=2, pes_per_cluster=3,
                          memory_words_per_cluster=16_000_000)
        )
        from repro.appvm import JobSpec
        handle = service.submit(JobSpec(user="bob", model=make_model("m"),
                                        load_set="case"))
        assert handle.span is None
        service.run()
        assert handle.done
