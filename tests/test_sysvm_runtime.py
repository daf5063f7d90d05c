"""Integration tests for the system VM run-time: tasks, messages,
windows, scheduling — all over the simulated machine."""

import numpy as np
import pytest

from repro.errors import SchedulingError, SysVMError
from repro.hardware import Machine, MachineConfig
from repro.sysvm import (
    Broadcast,
    Compute,
    CreateArray,
    FreeArray,
    Initiate,
    Pause,
    ReadWindow,
    Receive,
    RemoteCall,
    ResumeChild,
    Runtime,
    StaticDispatch,
    TaskState,
    WaitChildren,
    WaitPause,
    WriteWindow,
)


class StubWindow:
    """Minimal object satisfying the sysvm window protocol (1-D slice)."""

    def __init__(self, handle, lo, hi):
        self.handle = handle
        self.lo, self.hi = lo, hi

    @property
    def words(self):
        return self.hi - self.lo

    def size_words(self):
        return 8

    def read_from(self, arr):
        return arr[self.lo : self.hi].copy()

    def write_to(self, arr, data, accumulate=False):
        if accumulate:
            arr[self.lo : self.hi] += data
        else:
            arr[self.lo : self.hi] = data


def make_runtime(n_clusters=2, pes_per_cluster=3, **kw):
    machine = Machine(
        MachineConfig(
            n_clusters=n_clusters,
            pes_per_cluster=pes_per_cluster,
            memory_words_per_cluster=200_000,
            topology="complete",
        )
    )
    return Runtime(machine, **kw)


class TestBasicExecution:
    def test_single_task_computes_and_returns(self):
        rt = make_runtime()

        def body(ctx):
            yield Compute(100, flops=80)
            return 42

        rt.define_task("t", body)
        tid = rt.spawn("t")
        results = rt.run()
        assert results[tid] == 42
        assert rt.metrics.get("proc.flops") == 80
        assert rt.machine.now >= 100

    def test_task_receives_args(self):
        rt = make_runtime()

        def body(ctx, a, b):
            yield Compute(1)
            return a + b

        rt.define_task("add", body)
        tid = rt.spawn("add", 3, 4)
        assert rt.run()[tid] == 7

    def test_ctx_exposes_identity(self):
        rt = make_runtime()
        seen = {}

        def body(ctx):
            seen["tid"] = ctx.task_id
            seen["cluster"] = ctx.cluster
            yield Compute(1)

        rt.define_task("t", body)
        tid = rt.spawn("t", cluster=1)
        rt.run()
        assert seen == {"tid": tid, "cluster": 1}

    def test_non_generator_body_rejected(self):
        rt = make_runtime()
        rt.define_task("bad", lambda ctx: 42)
        with pytest.raises(SysVMError, match="generator"):
            rt.spawn("bad")

    def test_activation_record_freed_on_completion(self):
        rt = make_runtime()

        def body(ctx):
            yield Compute(1)

        rt.define_task("t", body)
        rt.spawn("t", cluster=0)
        rt.run()
        assert rt.heaps[0].used_words() == 0

    def test_strict_failure_propagates(self):
        rt = make_runtime(strict=True)

        def body(ctx):
            yield Compute(1)
            raise ValueError("boom")

        rt.define_task("t", body)
        rt.spawn("t")
        with pytest.raises(SysVMError, match="failed"):
            rt.run()

    def test_nonstrict_failure_recorded(self):
        rt = make_runtime(strict=False)

        def body(ctx):
            yield Compute(1)
            raise ValueError("boom")

        rt.define_task("t", body)
        tid = rt.spawn("t")
        results = rt.run()
        assert results[tid][0] == "__error__"
        assert rt.tasks[tid].state is TaskState.FAILED


class TestInitiateAndWait:
    def test_fan_out_and_collect(self):
        rt = make_runtime()

        def child(ctx, base, index):
            yield Compute(10)
            return base * 10 + index

        def parent(ctx):
            tids = yield Initiate("child", args=(7,), count=4)
            results = yield WaitChildren(tuple(tids))
            return sorted(results.values())

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == [70, 71, 72, 73]
        assert rt.metrics.get("task.initiated") == 5
        assert rt.metrics.get("task.completed") == 5

    def test_children_spread_across_clusters(self):
        rt = make_runtime(n_clusters=4)
        placed = []

        def child(ctx, index):
            placed.append(ctx.cluster)
            yield Compute(1)

        def parent(ctx):
            tids = yield Initiate("child", count=8)
            yield WaitChildren(tuple(tids))

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        rt.spawn("parent")
        rt.run()
        assert len(set(placed)) == 4  # round robin touched every cluster

    def test_remote_initiation_loads_code_once(self):
        rt = make_runtime(n_clusters=2)

        def child(ctx, index):
            yield Compute(1)

        def parent(ctx):
            tids1 = yield Initiate("child", count=2, cluster=1)
            yield WaitChildren(tuple(tids1))
            tids2 = yield Initiate("child", count=2, cluster=1)
            yield WaitChildren(tuple(tids2))

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        rt.spawn("parent", cluster=0)
        rt.run()
        assert rt.metrics.get("comm.messages.load_code") == 1

    def test_pinned_placement(self):
        rt = make_runtime(n_clusters=4)
        placed = []

        def child(ctx, index):
            placed.append(ctx.cluster)
            yield Compute(1)

        def parent(ctx):
            tids = yield Initiate("child", count=3, cluster=2)
            yield WaitChildren(tuple(tids))

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        rt.spawn("parent")
        rt.run()
        assert placed == [2, 2, 2]

    def test_wait_subset_then_rest(self):
        rt = make_runtime()

        def child(ctx, index):
            yield Compute(10 * (index + 1))
            return index

        def parent(ctx):
            tids = yield Initiate("child", count=3)
            first = yield WaitChildren((tids[0],))
            rest = yield WaitChildren(tuple(tids[1:]))
            return (first[tids[0]], sorted(rest.values()))

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == (0, [1, 2])

    def test_nested_initiation(self):
        rt = make_runtime()

        def leaf(ctx, index):
            yield Compute(5)
            return 1

        def mid(ctx, index):
            tids = yield Initiate("leaf", count=2)
            results = yield WaitChildren(tuple(tids))
            return sum(results.values())

        def root(ctx):
            tids = yield Initiate("mid", count=2)
            results = yield WaitChildren(tuple(tids))
            return sum(results.values())

        rt.define_task("leaf", leaf)
        rt.define_task("mid", mid)
        rt.define_task("root", root)
        tid = rt.spawn("root")
        assert rt.run()[tid] == 4

    def test_deadlock_detected(self):
        rt = make_runtime()

        def body(ctx):
            yield Receive()  # nothing will ever arrive

        rt.define_task("t", body)
        rt.spawn("t")
        with pytest.raises(SchedulingError, match="never completed"):
            rt.run()


class TestPauseResume:
    def test_pause_resume_cycle(self):
        rt = make_runtime()
        log = []

        def child(ctx, index):
            log.append(("child-before", ctx.now))
            yield Pause()
            log.append(("child-after", ctx.now))
            return "done"

        def parent(ctx):
            tids = yield Initiate("child", count=1)
            yield WaitPause(tids[0])
            log.append(("parent-sees-pause", ctx.now))
            yield ResumeChild(tids[0])
            results = yield WaitChildren(tuple(tids))
            return results[tids[0]]

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == "done"
        stages = [tag for tag, _ in log]
        assert stages == ["child-before", "parent-sees-pause", "child-after"]
        assert rt.metrics.get("task.pauses") == 1

    def test_local_data_retained_over_pause(self):
        """"Local data of a task retained over pause/resume"."""
        rt = make_runtime()

        def child(ctx, index):
            x = 99
            yield Pause()
            return x

        def parent(ctx):
            tids = yield Initiate("child", count=1)
            yield WaitPause(tids[0])
            yield ResumeChild(tids[0])
            results = yield WaitChildren(tuple(tids))
            return results[tids[0]]

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == 99

    def test_resume_before_pause_race(self):
        """Parent resumes without waiting; resume may beat the pause."""
        rt = make_runtime()

        def child(ctx, index):
            yield Pause()
            return "ok"

        def parent(ctx):
            tids = yield Initiate("child", count=1, cluster=ctx.cluster)
            yield ResumeChild(tids[0])  # may arrive before child pauses
            results = yield WaitChildren(tuple(tids))
            return results[tids[0]]

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == "ok"


class TestBroadcastReceive:
    def test_broadcast_reaches_all(self):
        rt = make_runtime(n_clusters=4)

        def child(ctx, index):
            value = yield Receive()
            return value * (index + 1)

        def parent(ctx):
            tids = yield Initiate("child", count=4)
            yield Broadcast(tuple(tids), 10)
            results = yield WaitChildren(tuple(tids))
            return sorted(results.values())

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == [10, 20, 30, 40]
        assert rt.metrics.get("comm.broadcasts") == 1

    def test_mailbox_queues_values(self):
        rt = make_runtime()

        def child(ctx, index):
            a = yield Receive()
            b = yield Receive()
            return (a, b)

        def parent(ctx):
            tids = yield Initiate("child", count=1)
            yield Broadcast(tuple(tids), "first")
            yield Broadcast(tuple(tids), "second")
            results = yield WaitChildren(tuple(tids))
            return results[tids[0]]

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        tid = rt.spawn("parent")
        assert rt.run()[tid] == ("first", "second")

    def test_broadcast_unknown_task_fails_task(self):
        rt = make_runtime(strict=False)

        def body(ctx):
            yield Broadcast((9999,), "x")

        rt.define_task("t", body)
        tid = rt.spawn("t")
        results = rt.run()
        assert results[tid][0] == "__error__"


class TestWindows:
    def test_create_read_write_local(self):
        rt = make_runtime()

        def body(ctx):
            handle = yield CreateArray(np.arange(10.0))
            win = StubWindow(handle, 2, 6)
            data = yield ReadWindow(win)
            yield WriteWindow(win, data * 2)
            out = yield ReadWindow(win)
            return list(out)

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.run()[tid] == [4.0, 6.0, 8.0, 10.0]
        assert rt.metrics.get("win.local_reads") == 2
        assert rt.metrics.get("win.remote_reads") == 0

    def test_remote_window_access(self):
        rt = make_runtime(n_clusters=2)

        def owner(ctx):
            handle = yield CreateArray(np.zeros(8))
            win = StubWindow(handle, 0, 8)
            tids = yield Initiate("writer", args=(win,), count=1, cluster=1)
            yield WaitChildren(tuple(tids))
            out = yield ReadWindow(win)
            return list(out)

        def writer(ctx, win, index):
            yield WriteWindow(win, np.ones(8) * 5)

        rt.define_task("owner", owner)
        rt.define_task("writer", writer)
        tid = rt.spawn("owner", cluster=0)
        assert rt.run()[tid] == [5.0] * 8
        assert rt.metrics.get("win.remote_writes") == 1
        assert rt.metrics.get("comm.messages.remote_call") >= 1
        assert rt.metrics.get("comm.messages.remote_return") >= 1

    def test_accumulate_write(self):
        rt = make_runtime()

        def body(ctx):
            handle = yield CreateArray(np.ones(4))
            win = StubWindow(handle, 0, 4)
            yield WriteWindow(win, np.ones(4) * 2, accumulate=True)
            out = yield ReadWindow(win)
            return list(out)

        rt.define_task("t", body)
        tid = rt.spawn("t")
        assert rt.run()[tid] == [3.0] * 4

    def test_data_dropped_at_owner_termination(self):
        rt = make_runtime()

        def body(ctx):
            yield CreateArray(np.ones(100))

        rt.define_task("t", body)
        rt.spawn("t", cluster=0)
        rt.run()
        assert rt.data.snapshot()["arrays"] == []
        # only the resident code block remains; arrays and records are gone
        usage = rt.machine.cluster(0).memory.snapshot()["by_tag"]
        assert set(usage) == {"code"}

    def test_retain_data_keeps_arrays(self):
        rt = make_runtime()

        def body(ctx):
            handle = yield CreateArray(np.ones(100))
            return handle

        rt.define_task("t", body)
        tid = rt.spawn("t", cluster=0, retain_data=True)
        handle = rt.run()[tid]
        assert np.array_equal(rt.data.raw(handle), np.ones(100))

    def test_free_array_requires_ownership(self):
        rt = make_runtime(strict=False)

        def owner(ctx):
            handle = yield CreateArray(np.ones(4))
            tids = yield Initiate("thief", args=(handle,), count=1)
            results = yield WaitChildren(tuple(tids))
            return results[tids[0]]

        def thief(ctx, handle, index):
            yield FreeArray(handle)

        rt.define_task("owner", owner)
        rt.define_task("thief", thief)
        tid = rt.spawn("owner")
        result = rt.run()[tid]
        assert result[0] == "__error__"

    def test_remote_read_slower_than_local(self):
        def elapsed(remote):
            rt = make_runtime(n_clusters=2)

            def owner(ctx):
                handle = yield CreateArray(np.zeros(64))
                win = StubWindow(handle, 0, 64)
                cluster = 1 if remote else 0
                tids = yield Initiate("reader", args=(win,), count=1, cluster=cluster)
                yield WaitChildren(tuple(tids))

            def reader(ctx, win, index):
                yield ReadWindow(win)

            rt.define_task("owner", owner)
            rt.define_task("reader", reader)
            rt.spawn("owner", cluster=0)
            rt.run()
            return rt.machine.now

        assert elapsed(remote=True) > elapsed(remote=False)


class TestRemoteCall:
    def test_rpc_by_explicit_cluster(self):
        rt = make_runtime(n_clusters=2)

        def square(ctx, x):
            yield Compute(10)
            return x * x

        def caller(ctx):
            result = yield RemoteCall("square", args=(9,), cluster=1)
            return result

        rt.define_task("square", square)
        rt.define_task("caller", caller)
        tid = rt.spawn("caller", cluster=0)
        assert rt.run()[tid] == 81

    def test_rpc_located_by_window(self):
        """"Remote procedure call - location determined by location of
        data visible in a window"."""
        rt = make_runtime(n_clusters=2)
        ran_at = []

        def setup(ctx):
            handle = yield CreateArray(np.arange(4.0))
            return handle

        def summer(ctx, win):
            ran_at.append(ctx.cluster)
            data = yield ReadWindow(win)
            return float(data.sum())

        def caller(ctx, win):
            result = yield RemoteCall("summer", args=(win,))
            return result

        rt.define_task("setup", setup)
        rt.define_task("summer", summer)
        rt.define_task("caller", caller)
        s = rt.spawn("setup", cluster=1, retain_data=True)
        rt.run()
        handle = rt.result_of(s)
        win = StubWindow(handle, 0, 4)
        c = rt.spawn("caller", win, cluster=0)
        rt.machine.run_to_completion()
        assert rt.result_of(c) == 6.0
        assert ran_at == [1]  # ran where the data lives

    def test_rpc_without_location_fails(self):
        rt = make_runtime(strict=False)

        def proc(ctx):
            yield Compute(1)

        def caller(ctx):
            yield RemoteCall("proc")

        rt.define_task("proc", proc)
        rt.define_task("caller", caller)
        tid = rt.spawn("caller")
        assert rt.run()[tid][0] == "__error__"


class TestDispatchPolicies:
    def _workload(self, policy):
        rt = make_runtime(n_clusters=1, pes_per_cluster=4, dispatch_policy=policy)

        def child(ctx, index):
            yield Compute(100)

        def parent(ctx):
            tids = yield Initiate("child", count=6, cluster=0)
            yield WaitChildren(tuple(tids))

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        rt.spawn("parent", cluster=0)
        rt.run()
        return rt.machine.now

    def test_static_no_slower_than_any(self):
        from repro.sysvm import AnyPEDispatch

        t_any = self._workload(AnyPEDispatch())
        t_static = self._workload(StaticDispatch())
        assert t_any <= t_static

    def test_static_policy_completes(self):
        assert self._workload(StaticDispatch()) > 0


class TestMetrics:
    def test_message_kinds_counted(self):
        rt = make_runtime(n_clusters=2)

        def child(ctx, index):
            yield Compute(5)

        def parent(ctx):
            tids = yield Initiate("child", count=4)
            yield WaitChildren(tuple(tids))

        rt.define_task("child", child)
        rt.define_task("parent", parent)
        rt.spawn("parent")
        rt.run()
        m = rt.metrics
        assert m.get("comm.messages.initiate_task") >= 1
        assert m.get("comm.messages.terminate_notify") == 4
        assert m.total("comm.messages") == m.get("comm.messages")

    def test_turnaround_observed(self):
        rt = make_runtime()

        def body(ctx):
            yield Compute(50)

        rt.define_task("t", body)
        rt.spawn("t")
        rt.run()
        h = rt.metrics.histogram("task.turnaround")
        assert h.count == 1 and h.mean >= 50
