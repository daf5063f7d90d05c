"""Message-protocol conservation: counters that must balance once a run
is quiescent, checked on the three kinds of run the experiments make.

* every message is counted once under its kind:
  ``comm.messages == sum(comm.messages.<kind>)``;
* every pause is answered: ``pause_notify == resume_task``;
* every task ends: ``task.initiated == task.completed``;
* every task but a root reports its end to its parent:
  ``terminate_notify`` == completed non-root tasks;
* every remote call is answered except a broadcast delivery, which is a
  ``remote_call`` that gets no reply: ``remote_call - remote_return``
  == the broadcast targets.  ``comm.broadcasts`` counts broadcast
  operations, not deliveries, so the targets are counted here by
  wrapping ``Runtime._do_broadcast``.
"""

import pytest

from repro.appvm import ServicePool, Tenant
from repro.appvm.scheduler.machine import PoolMachine
from repro.bench import plane_stress_cantilever
from repro.fem import parallel_cg_solve, parallel_substructure_solve
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program
from repro.sysvm.runtime import Runtime
from repro.sysvm.scheduler import TaskState

from .test_scheduler import make_model, small_config, spec_for


@pytest.fixture
def deliveries(monkeypatch):
    """Broadcast targets per runtime, counted as each broadcast is issued."""
    counts = {}
    issue = Runtime._do_broadcast

    def counting(self, tcb, tids, value):
        counts[id(self)] = counts.get(id(self), 0) + len(tids)
        return issue(self, tcb, tids, value)

    monkeypatch.setattr(Runtime, "_do_broadcast", counting)
    return counts


def assert_conserved(program, deliveries):
    counters = program.metrics.snapshot()["counters"]
    prefix = "comm.messages."
    kinds = {k[len(prefix):]: v for k, v in counters.items()
             if k.startswith(prefix)}
    assert counters.get("comm.messages", 0) == sum(kinds.values())
    assert kinds.get("pause_notify", 0) == kinds.get("resume_task", 0)
    assert counters.get("task.initiated", 0) == counters.get("task.completed", 0)
    runtime = program.runtime
    assert all(t.state is TaskState.DONE for t in runtime.tasks.values())
    children = sum(1 for t in runtime.tasks.values() if t.parent is not None)
    assert kinds.get("terminate_notify", 0) == children
    assert (kinds.get("remote_call", 0) - kinds.get("remote_return", 0)
            == deliveries.get(id(runtime), 0))


def machine_program():
    return Fem2Program(MachineConfig(n_clusters=4, pes_per_cluster=3,
                                     memory_words_per_cluster=4_000_000))


def test_parallel_cg_conserves(deliveries):
    problem = plane_stress_cantilever(6)
    program = machine_program()
    parallel_cg_solve(program, problem.mesh, problem.material,
                      problem.constraints, problem.loads, n_workers=4,
                      tol=1e-8)
    assert program.metrics.get("comm.messages.pause_notify") > 0
    assert_conserved(program, deliveries)


def test_substructure_solve_conserves(deliveries):
    problem = plane_stress_cantilever(6)
    program = machine_program()
    parallel_substructure_solve(program, problem.mesh, problem.material,
                                problem.constraints, problem.loads,
                                n_substructures=4)
    # the broadcast deliveries are what makes calls outnumber returns
    assert deliveries[id(program.runtime)] > 0
    assert_conserved(program, deliveries)


def test_preempting_pool_conserves(deliveries, monkeypatch):
    """Every program the pool ran to quiescence, the one restored from a
    preemption checkpoint included, balances."""
    programs = {}  # id -> (program, its clock when first seen)
    fresh, install = PoolMachine._fresh, PoolMachine.install

    def seen(program):
        programs.setdefault(id(program), (program, program.now))
        return program

    monkeypatch.setattr(PoolMachine, "_fresh", lambda self: seen(fresh(self)))
    monkeypatch.setattr(PoolMachine, "install",
                        lambda self, program: install(self, seen(program)))
    pool = ServicePool(n_machines=2, config=small_config(), quantum=500,
                       tenants=[Tenant("batch"), Tenant("urgent")])
    for i in range(2):
        pool.submit(spec_for(f"low{i}", make_model(f"m{i}", nx=4),
                             tenant="batch", workers=2))
    pool.advance(1500)
    pool.submit(spec_for("high", make_model("rush"), tenant="urgent",
                         priority=5, workers=2))
    pool.run()
    assert pool.stats["preemptions"] >= 1 and pool.stats["completed"] == 3
    # a preempted program is left mid-run; the rest ran to quiescence
    quiescent = [(p, at) for p, at in programs.values()
                 if p.machine.engine.idle()]
    assert len(quiescent) == len(programs) - pool.stats["preemptions"]
    assert any(at > 0 for _, at in quiescent)  # restored from a checkpoint
    assert sum(p.metrics.get("task.initiated") > 0 for p, _ in quiescent) == 3
    for program, _ in quiescent:
        assert_conserved(program, deliveries)
