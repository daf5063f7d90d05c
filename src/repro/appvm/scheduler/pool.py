"""The multi-tenant job service: a pool of simulated FEM-2 machines.

Submissions (:class:`~repro.appvm.scheduler.spec.JobSpec`) pass through
admission control (quota + the lint gate), wait in per-tenant queues,
and are dispatched by stride fair-share onto pool machines.  A running
job can be *preempted* for a higher-priority one: its machine is
checkpointed through :mod:`repro.ckpt` into a ``fem2-ckpt/1`` blob, the
machine is handed to the urgent job, and the preempted job later
resumes — on the same or a spare machine — bit-identically, because
checkpoint restore replays the journal to the exact event it stopped
at.

Two clock domains exist.  Each machine's program keeps its own
simulated cycle clock; the pool keeps a *global service clock* that
advances in ``quantum``-cycle scheduling rounds, with every busy
machine running its slice of each round concurrently.  Queue-wait
latency, quota windows, and fair-share accounting are all measured in
global service cycles.

:class:`~repro.appvm.MachineService` is a thin single-machine
compatibility wrapper: a one-machine pool in *persistent* mode (one
program reused across batches, unbounded job slots, drain-style
``run()``), which reproduces the pre-pool service exactly.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import asdict
from typing import Any, Dict, Iterable, List, Optional

from ...ckpt import from_bytes, to_bytes
from ...errors import AppVMError
from ...fem import (
    collect_parallel_cg,
    recover_stresses,
    register_parallel_cg,
)
from ...hardware.machine import MachineConfig
from ...langvm import Fem2Program
from ...lint import (
    COST_SCHEMA,
    FLOW_SCHEMA,
    cost_report,
    flow_summary,
    lint_program,
    machine_env,
)
from ..model import AnalysisResult
from .dispatch import FairShareQueue
from .handle import JobHandle
from .quota import TenantTable, admission_reason, fairness_index, jain_index
from .spec import JobSpec, JobState, Tenant

#: schema tag of machine/service checkpoint blobs (unchanged since PR 3)
CKPT_SCHEMA = "fem2-ckpt/1"


def rebuild_program(config: MachineConfig, state: Dict[str, Any],
                    tracer=None) -> Fem2Program:
    """A fresh journaled program with *state*'s jobs re-registered and
    the captured machine state restored into it (the spare-hardware
    model shared by :meth:`MachineService.resume` and pool preemption)."""
    program = Fem2Program(config, tracer=tracer, journal=True)
    for job in state["jobs"]:
        model = job["model"]
        root_name = job["root_name"]
        register_parallel_cg(
            program,
            model.require_mesh(),
            model.material,
            model.require_constraints(),
            model.load_set(job["load_set"]),
            n_workers=job["workers"],
            tol=job["tol"],
            worker_name=root_name.replace("cg_root", "cg_worker"),
            root_name=root_name,
        )
    program.restore(state["program"])
    return program


class PoolMachine:
    """One simulated machine of the pool and the jobs resident on it."""

    def __init__(self, index: int, config: MachineConfig, journal: bool,
                 tracer=None) -> None:
        self.index = index
        self.config = config
        self.journal = journal
        self.tracer = tracer
        self.jobs: List[JobHandle] = []
        #: global service cycle at which this program's local clock was 0
        self.offset = 0
        #: local cycles accumulated across all assignments (utilization)
        self.busy_cycles = 0
        #: True once a job has run here since the last fresh program
        self.dirty = False
        self.program = self._fresh()

    def _fresh(self) -> Fem2Program:
        return Fem2Program(self.config, tracer=self.tracer,
                           journal=self.journal)

    def reset(self, global_now: int) -> None:
        """Swap in a fresh program (job isolation between assignments)."""
        self.busy_cycles += self.program.now
        self.program = self._fresh()
        self.offset = global_now
        self.jobs = []
        self.dirty = False

    @property
    def global_now(self) -> int:
        return self.offset + self.program.now

    # -- job execution ------------------------------------------------------

    def spawn(self, handle: JobHandle) -> None:
        """Register and start *handle*'s solve as a root task here."""
        spec = handle.spec
        model = spec.model
        worker_name, root_name = handle.task_names()
        register_parallel_cg(
            self.program,
            model.require_mesh(),
            model.material,
            model.require_constraints(),
            model.load_set(spec.load_set),
            n_workers=spec.workers,
            tol=spec.tol,
            worker_name=worker_name,
            root_name=root_name,
        )
        runtime = self.program.runtime
        obs = runtime.obs
        if obs is not None and obs.enabled:
            handle.span = obs.begin(
                "appvm.job", f"{spec.user}/{model.name}", self.program.now,
                user=spec.user, model=model.name, load_set=spec.load_set,
                workers=spec.workers,
            )
        # parent the job's root task under the job span (restored after
        # spawn so unrelated root tasks stay unparented)
        runtime.obs_root_parent = handle.span
        try:
            handle.tid = self.program.start(root_name)
        finally:
            runtime.obs_root_parent = None
        self.jobs.append(handle)
        self.dirty = True

    def run_slice(self, global_until: Optional[int] = None) -> int:
        """Advance this machine's event loop; returns local cycles used.

        With a bound, events run while they fall inside the slice (the
        machine stops *between* events, a checkpoint-safe point); with
        ``None`` the machine drains to quiescence through the runtime,
        which also performs its stuck-task diagnosis.
        """
        engine = self.program.machine.engine
        before = engine.now
        if global_until is None:
            self.program.runtime.run()
        else:
            until = global_until - self.offset
            while not engine.halted:
                nxt = engine._peek()
                if nxt is None or nxt.time > until:
                    break
                engine.step()
        return engine.now - before

    def collect_finished(self) -> List[JobHandle]:
        """Resolve every resident job whose root task has completed."""
        runtime = self.program.runtime
        done = [h for h in self.jobs if h.tid in runtime.root_results]
        obs = runtime.obs
        for handle in done:
            info = collect_parallel_cg(self.program, handle.tid)
            stresses = recover_stresses(handle.spec.model.require_mesh(),
                                        handle.spec.model.material, info.u)
            handle._result = AnalysisResult(
                handle.spec.model.name, handle.spec.load_set, info.u, stresses,
                f"fem2-service[{handle.spec.workers}]",
                iterations=info.iterations,
                elapsed_cycles=info.elapsed_cycles,
            )
            if obs is not None and obs.enabled and handle.span is not None:
                obs.end(handle.span, self.program.now,
                        iterations=info.iterations)
        if done:
            self.jobs = [h for h in self.jobs if h not in done]
            if not self.jobs:
                self.busy_cycles += self.program.now
        if self.jobs and self.program.machine.engine.idle():
            # no events left yet jobs are unfinished: let the runtime
            # raise its stuck-task (deadlock / lost wakeup) diagnosis
            runtime.run()
        return done

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self, completed_batches: int = 0) -> bytes:
        """This machine — config, resident jobs, program state — as one
        ``fem2-ckpt/1`` blob, restorable by
        :meth:`MachineService.resume` or by the pool's preemption path."""
        if not self.journal:
            raise AppVMError(
                "service was not built with checkpointing=True"
            )
        jobs = []
        for handle in self.jobs:
            spec = handle.spec
            jobs.append({
                "user": spec.user,
                "model": spec.model,
                "load_set": spec.load_set,
                "workers": spec.workers,
                "tol": spec.tol,
                "priority": spec.priority,
                "tenant": spec.tenant,
                "tid": handle.tid,
                "root_name": self.program.runtime.tasks[handle.tid].task_type,
            })
        return to_bytes({
            "schema": CKPT_SCHEMA,
            "config": asdict(self.config),
            "completed_batches": completed_batches,
            "jobs": jobs,
            "program": self.program.snapshot(),
        })

    def restore_blob(self, blob: bytes, handles: List[JobHandle],
                     global_now: int) -> None:
        """Restore a checkpointed machine image here and re-attach the
        surviving *handles* (their tids are preserved by the blob)."""
        state = from_bytes(blob)
        if state.get("schema") != CKPT_SCHEMA:
            raise AppVMError(
                f"not a machine checkpoint (schema={state.get('schema')!r})")
        if len(state["jobs"]) != len(handles):
            raise AppVMError(
                f"checkpoint carries {len(state['jobs'])} jobs but "
                f"{len(handles)} handles were re-attached")
        self.busy_cycles += self.program.now
        self.program = rebuild_program(MachineConfig(**state["config"]),
                                       state, tracer=self.tracer)
        self.offset = global_now - self.program.now
        self.jobs = list(handles)
        self.dirty = True


class ServicePool:
    """Multi-tenant job scheduler over a pool of simulated machines."""

    def __init__(
        self,
        n_machines: int = 4,
        config: Optional[MachineConfig] = None,
        tenants: Iterable[Tenant] = (),
        *,
        tracer=None,
        quantum: Optional[int] = 2000,
        machine_slots: Optional[int] = 1,
        checkpointing: bool = True,
        persistent: bool = False,
    ) -> None:
        if n_machines < 1:
            raise AppVMError("a pool needs at least one machine")
        if quantum is not None and quantum < 1:
            raise AppVMError("quantum must be >= 1 cycles (or None to drain)")
        if machine_slots is not None and machine_slots < 1:
            raise AppVMError("machine_slots must be >= 1 (or None for unbounded)")
        self.config = config or MachineConfig(
            n_clusters=2, pes_per_cluster=3,
            memory_words_per_cluster=8_000_000,
        )
        #: drain mode (quantum=None) runs each machine to quiescence —
        #: the single-machine compatibility behaviour
        self.quantum = quantum
        self.machine_slots = machine_slots
        self.checkpointing = checkpointing
        #: persistent machines reuse one program across batches and are
        #: never reset (the pre-pool MachineService contract); fresh
        #: machines get a new program per assignment (job isolation)
        self.persistent = persistent
        # pool-level sched.* spans exist only in quantum mode; drain mode
        # is the single-machine compatibility path, which must produce
        # byte-identical traces to the pre-pool service (no sched spans)
        self.tracer = tracer if quantum is not None else None
        # machine-level tracing shares the pool tracer only when the two
        # clock domains coincide (one persistent machine, global clock =
        # machine clock); multi-machine pools trace at the sched.* level
        machine_tracer = tracer if (persistent and n_machines == 1) else None
        self.machines = [
            PoolMachine(i, self.config, journal=checkpointing,
                        tracer=machine_tracer)
            for i in range(n_machines)
        ]
        self.tenants = TenantTable()
        for tenant in tenants:
            self.tenants.declare(tenant)
        self.queue = FairShareQueue(self.tenants)
        #: the global service clock, in cycles
        self.now = 0
        self.completed_batches = 0
        self.handles: List[JobHandle] = []
        self.stats: Dict[str, int] = {
            "submitted": 0, "rejected": 0, "dispatched": 0, "completed": 0,
            "preemptions": 0, "resumes": 0, "ckpt_bytes": 0,
        }
        self._ids = itertools.count(1)
        self._finished_unclaimed: List[JobHandle] = []
        self._lint_cache: Dict[tuple, object] = {}
        #: predicted cost units per (model, load set, workers, tol)
        self._cost_cache: Dict[tuple, int] = {}

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job (or reject it) and queue it for dispatch.

        Rejection is not an exception: the returned handle's state is
        ``REJECTED`` and its ``reason`` says which quota refused it.
        The lint gate keeps its pre-pool contract: ``lint="error"``
        raises on findings before anything is queued.
        """
        if not isinstance(spec, JobSpec):
            raise AppVMError(
                f"submit() takes a JobSpec, got {type(spec).__name__}")
        spec.validate_model()
        if spec.lint != "off":
            self._lint_gate(spec.lint)
        cost = self._cost_units(spec)
        handle = JobHandle(spec, owner=self, job_id=next(self._ids))
        handle.submit_time = self.now
        self.handles.append(handle)
        ledger = self.tenants.get(spec.tenant)
        reason = admission_reason(ledger, self.now, cost=cost)
        if reason is not None:
            handle.state = JobState.REJECTED
            handle.reason = reason
            ledger.jobs_rejected += 1
            self.stats["rejected"] += 1
            self._point("sched.reject", f"{spec.user}/{spec.tenant}",
                        tenant=spec.tenant, reason=reason)
            return handle
        handle.state = JobState.ADMITTED
        ledger.in_flight += 1
        self.stats["submitted"] += 1
        self._enqueue(handle)
        self._dispatch()
        return handle

    def _enqueue(self, handle: JobHandle) -> None:
        handle._enqueued_at = self.now
        tr = self.tracer
        if tr is not None and tr.enabled:
            handle.queue_span = tr.begin(
                "sched.queue", f"{handle.spec.user}/{handle.spec.model.name}",
                self.now, tenant=handle.spec.tenant,
                priority=handle.spec.priority,
            )
        self.queue.push(handle)

    def _lint_gate(self, mode: str) -> None:
        """Run :func:`repro.lint.lint_program` over the task types
        registered on the pool's front machine (cached per registry
        state) and enforce its findings before admission.  The gate also
        extracts the program's static route summary (``fem2-flow/1``)
        and cost bounds (``fem2-cost/1``), posting both on the tracer as
        ``lint.flow`` / ``lint.cost`` points, so every admitted job
        carries its predicted communication structure and cost."""
        program = self.machines[0].program
        key = tuple(program.runtime.registry.types())
        cached = self._lint_cache.get(key)
        if cached is None:
            cached = (lint_program(program), flow_summary(program),
                      cost_report(program))
            self._lint_cache[key] = cached
        report, flow, cost = cached
        report.emit(program.runtime.obs, program.now)
        tr = program.runtime.obs
        if tr is not None and getattr(tr, "enabled", False):
            tr.point("lint.flow", "static routes", program.now,
                     schema=FLOW_SCHEMA, tasks=len(flow.tasks),
                     routes=len(flow.routes),
                     msg_routes=len(flow.msg_routes))
            tr.point("lint.cost", "static cost bounds", program.now,
                     schema=COST_SCHEMA, tasks=len(cost.tasks),
                     edges=len(cost.edges), bounded=cost.bounded)
        if report.clean:
            return
        rendered = "; ".join(f.render() for f in report.findings)
        if mode == "error" and report.errors:
            raise AppVMError(f"program rejected by static analysis: {rendered}")
        warnings.warn(f"static analysis findings: {rendered}",
                      UserWarning, stacklevel=4)

    # -- predicted cost ------------------------------------------------------

    def _cost_units(self, spec: JobSpec) -> int:
        """The job's admission cost in cycles: the declared
        ``cost_units`` override when present (cross-checked against the
        model under the lint gate), else the static cost model's
        predicted lower bound — the cycles the job *provably* consumes,
        so admission never over-rejects on a loose upper bound."""
        if spec.cost_units is None:
            return self._predicted_cost_units(spec)
        if spec.lint != "off":
            predicted = self._predicted_cost_units(spec)
            if spec.cost_units < predicted:
                msg = (f"declared cost_units={spec.cost_units} is below "
                       f"the predicted lower bound of {predicted} cycles "
                       f"for {spec.model.name!r}")
                if spec.lint == "error":
                    raise AppVMError(f"job rejected by cost check: {msg}")
                warnings.warn(msg, UserWarning, stacklevel=3)
        return spec.cost_units

    def _predicted_cost_units(self, spec: JobSpec) -> int:
        """Predicted guaranteed-minimum cycles of one solve, from the
        ``fem2-cost/1`` report of the job's task types registered on a
        scratch program (cached per solve shape).  Unresolved program
        parameters evaluate at zero — sound for a lower bound, since
        every cost parameter is non-negative."""
        key = (spec.model.name, spec.load_set, spec.workers, spec.tol)
        cached = self._cost_cache.get(key)
        if cached is None:
            scratch = Fem2Program(self.config)
            register_parallel_cg(
                scratch,
                spec.model.require_mesh(),
                spec.model.material,
                spec.model.require_constraints(),
                spec.model.load_set(spec.load_set),
                n_workers=spec.workers,
                tol=spec.tol,
                worker_name="cost.cg_worker",
                root_name="cost.cg_root",
            )
            lo, _hi = cost_report(scratch).cycles.evaluate(
                machine_env(self.config), default=0.0)
            cached = max(1, int(lo))
            self._cost_cache[key] = cached
        return cached

    # -- dispatch -----------------------------------------------------------

    def _free_machine(self) -> Optional[PoolMachine]:
        for machine in self.machines:
            if self.machine_slots is None \
                    or len(machine.jobs) < self.machine_slots:
                return machine
        return None

    def _dispatch(self) -> None:
        """Place queued jobs on free machines in fair-share order; when
        none is free, consider preempting for a higher-priority job."""
        while self.queue:
            machine = self._free_machine()
            if machine is not None:
                handle = self.queue.pop_next()
                self._place(handle, machine)
                continue
            victim = self._preemption_victim()
            if victim is None:
                break
            self._preempt(victim)
            self._place(self.queue.pop_urgent(), self._free_machine())

    def _place(self, handle: JobHandle, machine: PoolMachine) -> None:
        wait = self.now - handle._enqueued_at
        handle.queue_wait += wait
        if handle.dispatch_time is None:
            handle.dispatch_time = self.now
        tr = self.tracer
        if tr is not None and tr.enabled and handle.queue_span is not None:
            tr.end(handle.queue_span, self.now, wait=wait)
            handle.queue_span = None
        if not self.persistent and not machine.jobs:
            # sync the machine's clock domain to the global clock: a
            # fresh assignment starts "now", not at the machine's epoch
            if machine.dirty:
                machine.reset(self.now)
            else:
                machine.offset = self.now - machine.program.now
        if handle._resume_image is not None:
            machine.restore_blob(handle._resume_image, [handle], self.now)
            handle._resume_image = None
            self.stats["resumes"] += 1
            self._point("sched.resume", f"{handle.spec.user}",
                        machine=machine.index, wait=wait)
        else:
            machine.spawn(handle)
            self._point("sched.dispatch", f"{handle.spec.user}",
                        machine=machine.index, wait=wait)
        handle.state = JobState.RUNNING
        handle.machine = machine
        if self.quantum is not None:
            self.tenants.get(handle.spec.tenant).bump(self.quantum)
        self.stats["dispatched"] += 1

    # -- preemption ---------------------------------------------------------

    @property
    def preemption_enabled(self) -> bool:
        return self.checkpointing and not self.persistent \
            and self.quantum is not None

    def _preemption_victim(self) -> Optional[PoolMachine]:
        """The machine to checkpoint away for the best queued job, or
        None when nothing queued outranks every running job."""
        if not self.preemption_enabled:
            return None
        best = self.queue.best_priority()
        if best is None:
            return None
        victims = [
            m for m in self.machines
            if len(m.jobs) == 1
            and m.jobs[0].state is JobState.RUNNING
            and m.jobs[0].spec.priority < best
        ]
        if not victims:
            return None
        # lowest priority first; among equals the most over-served tenant
        return min(victims, key=lambda m: (
            m.jobs[0].spec.priority,
            -self.tenants.get(m.jobs[0].spec.tenant).pass_value,
            m.index,
        ))

    def _preempt(self, machine: PoolMachine) -> None:
        (handle,) = machine.jobs
        blob = machine.checkpoint()
        handle._resume_image = blob
        handle.state = JobState.PREEMPTED
        handle.preemptions += 1
        handle.machine = None
        self.stats["preemptions"] += 1
        self.stats["ckpt_bytes"] += len(blob)
        self._point("sched.preempt", f"{handle.spec.user}",
                    machine=machine.index, bytes=len(blob))
        machine.reset(self.now)
        self._enqueue(handle)

    # -- the clock ----------------------------------------------------------

    def advance(self, cycles: int):
        """Run scheduling rounds until the global clock has moved
        *cycles* forward (idle time included); jobs may be submitted
        between calls, which is how arrivals-over-time are modelled."""
        if self.quantum is None:
            raise AppVMError("advance() needs a quantum (drain-mode pool)")
        end = self.now + cycles
        while self.now < end:
            if not self.queue and not any(m.jobs for m in self.machines):
                self.now = end
                break
            self._round(min(end, self.now + self.quantum))
        return self

    def run(self) -> List[JobHandle]:
        """Run every admitted job to completion; returns the handles
        finished since the last call, in completion order."""
        if self.quantum is None:
            self._dispatch()
            for machine in self.machines:
                if machine.jobs:
                    delta = machine.run_slice(None)
                    self.now = max(self.now, machine.global_now)
                    self._charge(machine, delta)
                    self._resolve(machine)
        else:
            while self.queue or any(m.jobs for m in self.machines):
                self._round(self.now + self.quantum)
        self.completed_batches += 1
        finished = self._finished_unclaimed
        self._finished_unclaimed = []
        return finished

    def _round(self, target: int) -> None:
        """One co-scheduling round: dispatch, then every busy machine
        runs its slice of [now, target) concurrently."""
        self._dispatch()
        deltas = []
        for machine in self.machines:
            if machine.jobs:
                deltas.append((machine, machine.run_slice(target)))
        self.now = target
        for machine, delta in deltas:
            self._charge(machine, delta)
            self._resolve(machine)

    def _charge(self, machine: PoolMachine, delta: int) -> None:
        """Account a slice's cycles to the resident jobs' tenants."""
        if delta <= 0 or not machine.jobs:
            return
        share, remainder = divmod(delta, len(machine.jobs))
        for i, handle in enumerate(machine.jobs):
            cycles = share + (remainder if i == 0 else 0)
            if cycles:
                self.tenants.get(handle.spec.tenant).charge(cycles, self.now)

    def _resolve(self, machine: PoolMachine) -> None:
        for handle in machine.collect_finished():
            handle.state = JobState.DONE
            handle.finish_time = machine.global_now
            handle.machine = None
            ledger = self.tenants.get(handle.spec.tenant)
            ledger.in_flight -= 1
            ledger.jobs_done += 1
            ledger.wait_cycles += handle.queue_wait
            self.stats["completed"] += 1
            self._finished_unclaimed.append(handle)

    # -- checkpoint scope ---------------------------------------------------

    def checkpoint_job(self, handle: JobHandle) -> bytes:
        """Checkpoint *handle*'s machine (per-job scoping: one machine,
        its resident jobs, nothing else)."""
        machine = handle.machine
        if machine is None:
            raise AppVMError(
                f"job for {handle.spec.user!r} is not resident on a machine "
                f"(state={handle.state.value})")
        return machine.checkpoint(completed_batches=self.completed_batches)

    # -- reporting ----------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return sum(1 for h in self.handles if h.state.in_flight)

    def queue_waits(self) -> List[int]:
        """Queue-wait cycles of every finished job (latency population)."""
        return [h.queue_wait for h in self.handles
                if h.state is JobState.DONE]

    def latency_summary(self) -> Dict[str, float]:
        waits = sorted(self.queue_waits())
        if not waits:
            return {"jobs": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0}

        def pct(q: float) -> float:
            return float(waits[min(len(waits) - 1, int(q * len(waits)))])

        return {
            "jobs": len(waits),
            "p50": pct(0.50),
            "p99": pct(0.99),
            "mean": sum(waits) / len(waits),
        }

    def report(self) -> Dict[str, Any]:
        busy = sum(m.busy_cycles + (m.program.now if m.jobs else 0)
                   for m in self.machines)
        capacity = max(1, self.now * len(self.machines))
        return {
            "global_cycles": self.now,
            "machines": len(self.machines),
            "stats": dict(self.stats),
            "tenants": self.tenants.report(),
            "fairness_min_max": round(fairness_index(self.tenants), 4),
            "fairness_jain": round(jain_index(self.tenants), 4),
            "utilization": round(min(1.0, busy / capacity), 4),
            "latency": self.latency_summary(),
        }

    def _point(self, kind: str, label: str, **attrs: Any) -> None:
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.point(kind, label, self.now, **attrs)
