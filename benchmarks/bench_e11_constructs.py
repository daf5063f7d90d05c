"""E11 — Overhead of the parallel language constructs.

forall: the gap between measured cycles and the ideal
``ceil(n/workers) * grain`` shrinks as the task grain grows — the
initiation/termination machinery amortizes.  pardo: the same n
statements, each initiated on its own, so one ``initiate_task`` message
per statement instead of one per target cluster; the extra overhead
also amortizes with grain.  broadcast: cost grows with fan-out and
payload size, with a fixed per-target message charge.  Remote call:
calling a procedure where a window's data lives ships a fixed-size
request and a scalar reply, while reading the window moves the array.
"""

import math

import numpy as np
import pytest

from conftest import run_once
from repro.bench import Experiment
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program, forall, pardo

GRAINS = (1_000, 10_000, 100_000)
RPC_WORDS = (64, 512, 4_096)


def fanout_run(n: int, grain: int, construct: str = "forall",
               workers_cfg=(2, 5)):
    """*n* statements of *grain* cycles under ``forall`` or ``pardo``:
    (cycles, ideal cycles, initiate_task messages, all messages)."""
    clusters, pes = workers_cfg
    cfg = MachineConfig(n_clusters=clusters, pes_per_cluster=pes,
                        memory_words_per_cluster=4_000_000)
    prog = Fem2Program(cfg)

    @prog.task()
    def work(ctx, index):
        yield ctx.compute(cycles=grain)
        return index

    @prog.task()
    def by_forall(ctx):
        return len((yield from forall(ctx, "work", n=n)))

    @prog.task()
    def by_pardo(ctx):
        return len((yield from pardo(ctx, *(("work", (i,)) for i in range(n)))))

    assert prog.run(f"by_{construct}", cluster=0) == n
    workers = cfg.total_workers
    ideal = math.ceil(n / workers) * grain
    m = prog.metrics
    return (prog.now, ideal, int(m.get("comm.messages.initiate_task")),
            int(m.get("comm.messages")))


def broadcast_run(fanout: int, payload_words: int):
    cfg = MachineConfig(n_clusters=4, pes_per_cluster=5,
                        memory_words_per_cluster=4_000_000)
    prog = Fem2Program(cfg)
    value = list(range(payload_words))

    @prog.task()
    def listener(ctx, index):
        v = yield ctx.receive()
        return len(v)

    @prog.task()
    def driver(ctx):
        tids = yield ctx.initiate("listener", count=fanout)
        t0 = ctx.now
        yield ctx.broadcast(tids, value)
        results = yield ctx.wait(tids)
        return ctx.now - t0, len(results)

    elapsed, count = prog.run("driver", cluster=0)
    assert count == fanout
    return elapsed, int(prog.metrics.get("comm.words"))


def rpc_run(words: int, at_data: bool):
    """Sum a *words*-long array that lives on cluster 1 from a task on
    cluster 0, by calling ``total`` at the data or by reading the window:
    (comm words, remote_call messages, cycles of the sum)."""
    cfg = MachineConfig(n_clusters=2, pes_per_cluster=5,
                        memory_words_per_cluster=4_000_000)
    prog = Fem2Program(cfg)

    @prog.task()
    def total(ctx, win):
        data = yield ctx.read(win)
        yield ctx.compute(flops=data.size)
        return float(data.sum())

    @prog.task()
    def call_at_data(ctx, win, index):
        t0 = ctx.now
        value = yield ctx.call("total", win)
        return value, ctx.now - t0

    @prog.task()
    def move_window(ctx, win, index):
        t0 = ctx.now
        data = yield ctx.read(win)
        yield ctx.compute(flops=data.size)
        return float(data.sum()), ctx.now - t0

    @prog.task()
    def array_home(ctx):
        h = yield ctx.create(np.ones(words))
        win = ctx.window(h)
        if at_data:
            tids = yield ctx.initiate("call_at_data", win, cluster=0)
        else:
            tids = yield ctx.initiate("move_window", win, cluster=0)
        results = yield ctx.wait(tids)
        return results[tids[0]]

    value, cycles = prog.run("array_home", cluster=1)
    assert value == words
    m = prog.metrics
    return (int(m.get("comm.words")), int(m.get("comm.messages.remote_call")),
            cycles)


def run_e11():
    exp = Experiment("E11", "forall overhead vs task grain")
    exp.set_headers("n tasks", "grain cycles", "measured", "ideal",
                    "overhead factor")
    overheads = []
    for grain in GRAINS:
        measured, ideal, _, _ = fanout_run(16, grain)
        factor = measured / ideal
        overheads.append(factor)
        exp.add_row(16, grain, measured, ideal, round(factor, 2))
    exp.note("overhead = initiation, scheduling, and termination messages; "
             "it amortizes with grain, the classic granularity tradeoff")

    pexp = Experiment("E11-pardo", "pardo vs forall over 16 statements")
    pexp.set_headers("grain cycles", "construct", "measured", "ideal",
                     "overhead factor", "initiate_task msgs", "messages")
    fanout = {}
    for grain in GRAINS:
        for construct in ("forall", "pardo"):
            measured, ideal, initiates, messages = fanout_run(16, grain,
                                                              construct)
            factor = measured / ideal
            fanout[(grain, construct)] = (factor, initiates)
            pexp.add_row(grain, construct, measured, ideal, round(factor, 2),
                         initiates, messages)
    pexp.note("pardo initiates each statement on its own, one "
              "initiate_task apiece; forall ships one per target cluster")

    bexp = Experiment("E11-broadcast", "broadcast cost vs fan-out and size")
    bexp.set_headers("fan-out", "payload words", "cycles after initiate",
                     "total comm words")
    bcast = {}
    for fan in (2, 8, 16):
        for words in (8, 512):
            elapsed, comm = broadcast_run(fan, words)
            bcast[(fan, words)] = elapsed
            bexp.add_row(fan, words, elapsed, comm)

    rexp = Experiment("E11-rpc", "call at the data vs move the window")
    rexp.set_headers("array words", "spelling", "comm words",
                     "remote_call msgs", "cycles")
    rpc = {}
    for words in RPC_WORDS:
        for spelling, at_data in (("ctx.call", True), ("ctx.read", False)):
            comm, calls, cycles = rpc_run(words, at_data)
            rpc[(words, spelling)] = (comm, cycles)
            rexp.add_row(words, spelling, comm, calls, cycles)
    rexp.note("array on cluster 1, caller on cluster 0; the call runs "
              "total where the data lives and returns one scalar")
    return (exp, pexp, bexp, rexp), (overheads, fanout, bcast, rpc)


def test_e11_constructs(benchmark, experiment_sink):
    (exp, pexp, bexp, rexp), (overheads, fanout, bcast, rpc) = \
        run_once(benchmark, run_e11)
    experiment_sink(exp, pexp, bexp, rexp)
    # overhead factor falls monotonically with grain and approaches 1
    assert overheads[0] > overheads[1] > overheads[2]
    assert overheads[2] < 1.35
    # pardo: one initiate per statement, overhead amortizing with grain
    pardo_factors = [fanout[(g, "pardo")][0] for g in GRAINS]
    assert pardo_factors[0] > pardo_factors[1] > pardo_factors[2]
    assert all(fanout[(g, "pardo")][1] > fanout[(g, "forall")][1]
               for g in GRAINS)
    # broadcast cost grows with fan-out and with payload size
    assert bcast[(16, 8)] > bcast[(2, 8)]
    assert bcast[(8, 512)] > bcast[(8, 8)]
    # a call at the data moves the same words at every size; a read
    # moves the array, and the call is the cheaper sum on a large one
    call_words = [rpc[(w, "ctx.call")][0] for w in RPC_WORDS]
    read_words = [rpc[(w, "ctx.read")][0] for w in RPC_WORDS]
    assert len(set(call_words)) == 1
    assert read_words[0] < read_words[1] < read_words[2]
    big = RPC_WORDS[-1]
    assert rpc[(big, "ctx.call")][1] < rpc[(big, "ctx.read")][1]
