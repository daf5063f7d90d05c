"""Calls per simulated event: the tier-1 stand-in for the host ledger.

``benchmarks/host`` measures ``<layer>.calls`` per run from outside;
this pins the same indicator on one small solve so a refactor of the
event or message path (ROADMAP 4b) cannot quietly put frames back.  The
count is exact and repeats, so the limit is a count, not a timing.  The
same solve pins the simulated numbers and the metrics snapshot — names,
registration order, values and int/float types — as they were before
the diet (PR 16): a faster simulator must simulate the same thing.
"""

import cProfile
import hashlib
import pstats

from repro.fem import Constraints, LoadSet, Material, parallel_cg_solve, rect_grid
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program

#: Python + builtin calls per event allowed on the pinned solve.  Before
#: the diet: 49.4; after it: 27.6.  Before the one-loop engine and the
#: shorter message hop: 26.75; after them: 22.55 (the limit is that plus
#: one call, rounded up).  pstats keeps one entry per (file, line, name),
#: so all generated dataclass ``__init__``s but one go uncounted: 22.06
#: read before the hot-path ones were written out; counting every code
#: object, 27.41 before the hop and 22.65 after.
CALLS_PER_EVENT_LIMIT = 24

EVENTS, CLOCK, MESSAGES, ITERATIONS = 2586, 1341962, 602, 59

COUNTER_ORDER = [
    "mem.hwm.cluster0", "mem.hwm.code.cluster0", "mem.reservations",
    "mem.reserved.code", "mem.hwm.heap.cluster0", "mem.reserved.heap",
    "task.initiated", "proc.bursts", "proc.cycles", "mem.hwm.arrays.cluster0",
    "mem.reserved.arrays", "comm.messages.load_code",
    "comm.message_words.load_code", "comm.network_transfers",
    "comm.network_words", "comm.messages", "comm.words",
    "comm.messages.initiate_task", "comm.message_words.initiate_task",
    "task.blocks", "mem.hwm.cluster1", "mem.hwm.code.cluster1", "proc.flops",
    "mem.hwm.heap.cluster1", "mem.hwm.arrays.cluster1",
    "comm.messages.pause_notify", "comm.message_words.pause_notify",
    "task.pauses", "win.local_writes", "comm.messages.resume_task",
    "comm.message_words.resume_task", "win.local_reads", "win.remote_reads",
    "comm.messages.remote_call", "comm.message_words.remote_call",
    "comm.messages.remote_return", "comm.message_words.remote_return",
    "win.remote_writes", "task.completed", "comm.messages.terminate_notify",
    "comm.message_words.terminate_notify",
]
HISTOGRAM_ORDER = [
    "task.start_latency", "comm.hops", "comm.message_size", "queue.cluster0",
    "queue.cluster1", "task.turnaround",
]
#: sha256 of repr(metrics.snapshot()) at the parent of PR 16
SNAPSHOT_SHA256 = "60796bbe47f9d5d47dd16d84b8286d8c7533f08195605b02aebccec0182614ad"


def solve():
    """One 12x6 cantilever plate on 2 workers of the default machine."""
    mesh = rect_grid(12, 6, 2.0, 1.0)
    constraints = Constraints(mesh)
    constraints.fix_nodes(mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(mesh.nodes_on(x=2.0), 1, -1.0e4)
    program = Fem2Program(MachineConfig())
    profile = cProfile.Profile()
    profile.enable()
    info = parallel_cg_solve(
        program, mesh, Material(e=100e9, nu=0.3, thickness=0.01), constraints,
        loads, n_workers=2, tol=1e-8,
    )
    profile.disable()
    return program, info, pstats.Stats(profile).total_calls


def test_call_budget_and_pinned_simulation():
    program, info, total_calls = solve()
    machine = program.machine
    assert info.converged
    assert (
        machine.engine.events_processed, program.now,
        machine.metrics.get("comm.messages"), info.iterations,
    ) == (EVENTS, CLOCK, MESSAGES, ITERATIONS)
    snap = machine.metrics.snapshot()
    assert list(snap["counters"]) == COUNTER_ORDER
    assert list(snap["histograms"]) == HISTOGRAM_ORDER
    # word counts stay ints, event counts floats: visible in ckpt blobs
    assert type(snap["counters"]["comm.words"]) is int
    assert type(snap["counters"]["comm.network_words"]) is int
    assert type(snap["counters"]["comm.messages"]) is float
    assert hashlib.sha256(repr(snap).encode()).hexdigest() == SNAPSHOT_SHA256
    assert total_calls / EVENTS <= CALLS_PER_EVENT_LIMIT, (
        f"{total_calls} calls for {EVENTS} events = "
        f"{total_calls / EVENTS:.1f} per event"
    )
