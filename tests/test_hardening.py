"""Hardening tests: edge cases and error paths across all layers."""

import numpy as np
import pytest

from repro.errors import (
    AppVMError,
    ConfigurationError,
    LangVMError,
    SchedulingError,
    SysVMError,
)
from repro.hardware import Machine, MachineConfig, PEState
from repro.langvm import Fem2Program, whole
from repro.sysvm import (
    Compute,
    CreateArray,
    Initiate,
    ReadWindow,
    Runtime,
    TaskState,
    WaitChildren,
)


def make_runtime(**kw):
    machine = Machine(MachineConfig(n_clusters=2, pes_per_cluster=3,
                                    memory_words_per_cluster=100_000))
    return Runtime(machine, **kw)


class TestRuntimeEdgeCases:
    def test_yield_non_effect_fails_task(self):
        rt = make_runtime(strict=False)

        def body(ctx):
            yield 42  # not an effect

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.run()[tid][0] == "__error__"

    def test_result_of_unknown_and_unfinished(self):
        rt = make_runtime()

        def body(ctx):
            yield Compute(10)

        rt.define_task("t", body)
        tid = rt.spawn("t")
        with pytest.raises(SysVMError, match="not completed"):
            rt.result_of(tid)
        with pytest.raises(SysVMError, match="unknown"):
            rt.result_of(9999)
        rt.run()
        assert rt.result_of(tid) is None

    def test_live_task_count(self):
        rt = make_runtime()

        def body(ctx):
            yield Compute(10)

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.tasks[tid].is_live()
        rt.run()
        assert not any(t.is_live() for t in rt.tasks.values())

    def test_unknown_placement_rejected(self):
        with pytest.raises(SchedulingError):
            make_runtime(placement="chaotic")

    def test_task_catches_system_error(self):
        """A task body may recover from a system-raised error."""
        rt = make_runtime()

        def body(ctx):
            try:
                yield Initiate("no_such_type", count=1)
            except SysVMError:
                yield Compute(1)
                return "recovered"

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.run()[tid] == "recovered"

    def test_wait_on_already_done_children(self):
        """Results buffered before the wait are delivered immediately."""
        rt = make_runtime()

        def child(ctx, index):
            yield Compute(1)
            return index

        def parent(ctx):
            tids = yield Initiate("child", count=2)
            yield Compute(10_000)  # children finish during this
            results = yield WaitChildren(tuple(tids))
            return sorted(results.values())

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == [0, 1]

    def test_spawn_unknown_type(self):
        rt = make_runtime()
        with pytest.raises(SysVMError):
            rt.spawn("ghost")

    def test_zero_compute_task(self):
        rt = make_runtime()

        def body(ctx):
            yield Compute(0)
            return "ok"

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.run()[tid] == "ok"

    def test_empty_body_task(self):
        rt = make_runtime()

        def body(ctx):
            return 7
            yield  # pragma: no cover - makes it a generator

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.run()[tid] == 7

    def test_oom_on_array_creation_delivered_to_task(self):
        rt = make_runtime(strict=False)

        def body(ctx):
            yield CreateArray(np.zeros(200_000))  # exceeds cluster memory

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.run()[tid][0] == "__error__"

    def test_stale_window_read_fails_task(self):
        rt = make_runtime(strict=False)

        def maker(ctx):
            h = yield CreateArray(np.ones(4))
            return h  # array dropped at termination -> handle goes stale

        def reader(ctx, h):
            from repro.langvm import whole

            yield ReadWindow(whole(h))

        rt.define_task("maker", maker)
        rt.define_task("reader", reader)
        m = rt.spawn("maker")
        rt.run()
        handle = rt.result_of(m)
        r = rt.spawn("reader", handle)
        rt.machine.run_to_completion()
        assert rt.root_results[r][0] == "__error__"


class TestKernelEdgeCases:
    def test_messages_queue_while_kernel_busy(self):
        """A burst of messages drains serially through the kernel PE."""
        rt = make_runtime()
        done = []

        def child(ctx, index):
            yield Compute(1)
            done.append(index)

        def parent(ctx):
            tids = yield Initiate("child", count=10, cluster=1)
            yield WaitChildren(tuple(tids))

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        rt.spawn("parent", cluster=0)
        rt.run()
        assert len(done) == 10
        # kernel PE of cluster 1 did real serialized work
        assert rt.machine.cluster(1).kernel_pe.cycles_executed > 0

    def test_kick_on_failed_kernel_pe_is_noop(self):
        rt = make_runtime()
        cluster = rt.machine.cluster(1)
        cluster.fail()
        rt.kernels[1].kick()  # must not raise


class TestMachineEdgeCases:
    def test_run_until_partial_progress(self):
        rt = make_runtime()

        def body(ctx):
            yield Compute(1000)
            return "done"

        rt.define_task("t", body)
        tid = rt.spawn("t")
        rt.machine.engine.run(until=50)
        assert rt.tasks[tid].is_live()
        rt.machine.run_to_completion()
        assert rt.tasks[tid].state is TaskState.DONE

    def test_live_clusters_shrinks_on_failure(self):
        machine = Machine(MachineConfig(n_clusters=3, pes_per_cluster=3))
        machine.cluster(1).fail()
        assert [c.cluster_id for c in machine.live_clusters()] == [0, 2]

    def test_config_immutable(self):
        cfg = MachineConfig()
        with pytest.raises(Exception):
            cfg.n_clusters = 99


class TestProgramEdgeCases:
    def test_run_all_empty(self):
        prog = Fem2Program(MachineConfig(n_clusters=2, pes_per_cluster=3))
        assert prog.run_all([]) == {}

    def test_data_of_retained_array(self):
        prog = Fem2Program(MachineConfig(n_clusters=2, pes_per_cluster=3))

        @prog.task()
        def t(ctx):
            h = yield ctx.create(np.arange(4.0))
            return h

        handle = prog.run("t", retain_data=True)
        assert np.array_equal(prog.runtime.data.raw(handle), np.arange(4.0))

    def test_forall_preserves_heavy_args(self):
        """Numpy array args survive the initiate message intact."""
        prog = Fem2Program(MachineConfig(n_clusters=2, pes_per_cluster=3,
                                         memory_words_per_cluster=1_000_000))
        payload = np.arange(100.0)

        @prog.task()
        def child(ctx, arr, index):
            yield ctx.compute(flops=1)
            return float(arr.sum())

        @prog.task()
        def main(ctx):
            from repro.langvm import forall

            return (yield from forall(ctx, "child", n=3, args=(payload,)))

        out = prog.run("main")
        assert out == [payload.sum()] * 3
