"""Integration tests for the numerical analyst's VM: TaskContext,
Fem2Program, forall/pardo, broadcast patterns, remote calls."""

import numpy as np
import pytest

from repro.errors import LangVMError, OwnershipError
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program, forall, pardo, whole


def make_program(n_clusters=2, pes=3, **kw):
    cfg = MachineConfig(
        n_clusters=n_clusters, pes_per_cluster=pes, memory_words_per_cluster=500_000
    )
    return Fem2Program(cfg, **kw)


class TestTaskContext:
    def test_compute_converts_flops_to_cycles(self):
        prog = make_program()

        @prog.task()
        def t(ctx):
            yield ctx.compute(flops=100)
            return ctx.now

        elapsed = prog.run("t")
        assert elapsed >= 100 * prog.machine.config.flop_cycles
        assert prog.metrics.get("proc.flops") == 100

    def test_create_and_local_access(self):
        prog = make_program()

        @prog.task()
        def t(ctx):
            h = yield ctx.create([1.0, 2.0, 3.0])
            arr = ctx.local(h)  # owner may touch storage directly
            return float(arr.sum())

        assert prog.run("t") == 6.0

    def test_local_access_denied_to_non_owner(self):
        prog = make_program(strict=False)

        @prog.task()
        def child(ctx, h, index):
            ctx.local(h)  # not the owner -> OwnershipError
            yield ctx.compute(1)

        @prog.task()
        def parent(ctx):
            h = yield ctx.create([1.0])
            tids = yield ctx.initiate("child", h, count=1)
            results = yield ctx.wait(tids)
            return results[tids[0]]

        result = prog.run("parent")
        assert result[0] == "__error__" and "Ownership" in result[1]

    def test_window_round_trip_between_tasks(self):
        prog = make_program()

        @prog.task()
        def doubler(ctx, win, index):
            data = yield ctx.read(win)
            yield ctx.compute(flops=data.size)
            yield ctx.write(win, data * 2)

        @prog.task()
        def main(ctx):
            h = yield ctx.create(np.arange(8.0))
            win = ctx.window(h)
            tids = yield ctx.initiate("doubler", win, count=1, cluster=1)
            yield ctx.wait(tids)
            out = yield ctx.read(win)
            return list(out.ravel())

        assert prog.run("main", cluster=0) == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_zeros(self):
        prog = make_program()

        @prog.task()
        def t(ctx):
            h = yield ctx.create(np.zeros((3, 3)))
            return h.shape

        assert prog.run("t") == (3, 3)


class TestForall:
    def test_forall_ordered_results(self):
        prog = make_program()

        @prog.task()
        def sq(ctx, index):
            yield ctx.compute(flops=1)
            return index * index

        @prog.task()
        def main(ctx):
            results = yield from forall(ctx, "sq", n=5)
            return results

        assert prog.run("main") == [0, 1, 4, 9, 16]

    def test_forall_with_args(self):
        prog = make_program()

        @prog.task()
        def addk(ctx, k, index):
            yield ctx.compute(flops=1)
            return k + index

        @prog.task()
        def main(ctx):
            return (yield from forall(ctx, "addk", n=3, args=(100,)))

        assert prog.run("main") == [100, 101, 102]

    def test_forall_zero_iterations_rejected(self):
        prog = make_program()

        @prog.task()
        def main(ctx):
            yield from forall(ctx, "main", n=0)

        with pytest.raises(Exception):
            prog.run("main")

    def test_forall_runs_in_parallel(self):
        """With enough PEs, N iterations take ~1 iteration's compute time."""

        def elapsed(n_pes):
            prog = make_program(n_clusters=1, pes=n_pes)

            @prog.task()
            def work(ctx, index):
                yield ctx.compute(cycles=10_000)

            @prog.task()
            def main(ctx):
                yield from forall(ctx, "work", n=4, cluster=0)

            prog.run("main", cluster=0)
            return prog.now

        t_wide, t_narrow = elapsed(5), elapsed(2)
        # 4 iterations on 4 workers ~ 1 round; on 1 worker ~ 4 rounds
        assert t_wide < t_narrow
        assert t_narrow > 3 * 10_000


class TestPardo:
    def test_pardo_heterogeneous(self):
        prog = make_program()

        @prog.task()
        def a(ctx, x):
            yield ctx.compute(flops=1)
            return x + 1

        @prog.task()
        def b(ctx, x):
            yield ctx.compute(flops=1)
            return x * 2

        @prog.task()
        def main(ctx):
            return (yield from pardo(ctx, ("a", (10,)), ("b", (10,))))

        assert prog.run("main") == [11, 20]

    def test_pardo_with_cluster_pinning(self):
        prog = make_program(n_clusters=2)

        @prog.task()
        def where(ctx):
            yield ctx.compute(flops=1)
            return ctx.cluster

        @prog.task()
        def main(ctx):
            return (yield from pardo(ctx, ("where", (), 0), ("where", (), 1)))

        assert prog.run("main") == [0, 1]

    def test_pardo_generated_statements(self):
        """Distinct arguments per task: the scatter half of scatter/gather."""
        prog = make_program()

        @prog.task()
        def mul(ctx, a, b):
            yield ctx.compute(flops=1)
            return a * b

        @prog.task()
        def main(ctx):
            pairs = [(2, 3), (4, 5), (6, 7)]
            return (yield from pardo(ctx, *(("mul", p) for p in pairs)))

        assert prog.run("main") == [6, 20, 42]

    def test_pardo_over_window_partitions(self):
        """One statement per band of a partitioned window."""
        prog = make_program()

        @prog.task()
        def summer(ctx, win, band):
            data = yield ctx.read(win)
            yield ctx.compute(flops=data.size)
            return float(data.sum())

        @prog.task()
        def main(ctx):
            h = yield ctx.create(np.arange(12.0))
            parts = ctx.window(h).split_cols(3)
            return (yield from pardo(
                ctx, *(("summer", (part, i)) for i, part in enumerate(parts))))

        assert prog.run("main") == [6.0, 22.0, 38.0]

    def test_empty_pardo_rejected(self):
        prog = make_program()

        @prog.task()
        def main(ctx):
            yield from pardo(ctx)

        with pytest.raises(Exception):
            prog.run("main")


class TestBroadcastPatterns:
    def test_initiated_pool_receives_broadcast(self):
        prog = make_program(n_clusters=2, pes=4)

        @prog.task()
        def worker(ctx, index):
            value = yield ctx.receive()
            yield ctx.compute(flops=1)
            return value + index

        @prog.task()
        def main(ctx):
            tids = yield ctx.initiate("worker", count=3)
            yield ctx.broadcast(tids, 100)
            results = yield ctx.wait(tids)
            return sorted(results.values())

        assert prog.run("main") == [100, 101, 102]


class TestRemote:
    def test_remote_wrapper(self):
        """``ctx.call`` pinned to a cluster runs the procedure there."""
        prog = make_program(n_clusters=2)

        @prog.task()
        def cube(ctx, x):
            yield ctx.compute(flops=2)
            return x**3

        @prog.task()
        def main(ctx):
            return (yield ctx.call("cube", 3, cluster=1))

        assert prog.run("main", cluster=0) == 27

    def test_call_per_partition_runs_at_data(self):
        """One ``ctx.call`` per partition, each located by its window."""
        prog = make_program(n_clusters=2)
        ran_at = []

        @prog.task()
        def sum_part(ctx, win):
            ran_at.append(ctx.cluster)
            data = yield ctx.read(win)
            return float(data.sum())

        @prog.task()
        def main(ctx):
            h = yield ctx.create(np.arange(10.0))
            sums = []
            for part in ctx.window(h).split_cols(2):
                sums.append((yield ctx.call("sum_part", part)))
            return sums

        total = prog.run("main", cluster=1)
        assert sum(total) == 45.0
        assert ran_at == [1, 1]  # data lives on cluster 1, calls follow it


class TestMultiProgramming:
    def test_run_all_independent_problems(self):
        """Parallelism level 1 of the conclusion: several independent
        user problems solved simultaneously."""
        prog = make_program(n_clusters=2, pes=4)

        @prog.task()
        def job(ctx, jid):
            yield ctx.compute(cycles=1000)
            return jid * 10

        results = prog.run_all([("job", (1,)), ("job", (2,)), ("job", (3,))])
        assert sorted(results.values()) == [10, 20, 30]

    def test_concurrent_jobs_overlap_in_time(self):
        def elapsed(n_jobs):
            prog = make_program(n_clusters=2, pes=4)

            @prog.task()
            def job(ctx, jid):
                yield ctx.compute(cycles=10_000)

            prog.run_all([("job", (i,)) for i in range(n_jobs)])
            return prog.now

        t1, t4 = elapsed(1), elapsed(4)
        assert t4 < 2.5 * t1  # 4 jobs on 6 workers nearly overlap
