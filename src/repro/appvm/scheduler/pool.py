"""The multi-tenant job service: a pool of simulated FEM-2 machines.

Submissions (:class:`~repro.appvm.scheduler.spec.JobSpec`) pass through
admission control (quota + the lint gate), wait in per-tenant queues,
and are dispatched by stride fair-share onto pool machines
(:class:`~repro.appvm.scheduler.machine.PoolMachine`), one job per
machine and a fresh program per assignment.  A running job can be
*preempted* for a higher-priority one: its machine is checkpointed into
a ``fem2-ckpt/1`` blob, the machine is handed to the urgent job, and
the preempted job later resumes on whichever machine comes free.

Two clock domains exist.  Each machine's program keeps its own
simulated cycle clock; the pool keeps a *global service clock* that
advances in ``quantum``-cycle scheduling rounds, with every busy
machine running its slice of each round concurrently.  Queue-wait
latency, quota windows, and fair-share accounting are all measured in
global service cycles.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Any, Dict, Iterable, List, Optional

from ...errors import AppVMError
from ...hardware.machine import MachineConfig
from ...langvm import Fem2Program
from ...lint import cost_report, machine_env
from .dispatch import FairShareQueue
from .handle import JobHandle
from .machine import PoolMachine, _lint_gate, _register_solve
from .quota import TenantTable, admission_reason, fairness_index, jain_index
from .spec import JobSpec, JobState, Tenant


class ServicePool:
    """Multi-tenant job scheduler over a pool of simulated machines."""

    def __init__(
        self,
        n_machines: int = 4,
        config: Optional[MachineConfig] = None,
        tenants: Iterable[Tenant] = (),
        *,
        tracer=None,
        quantum: int = 2000,
        checkpointing: bool = True,
    ) -> None:
        if n_machines < 1:
            raise AppVMError("a pool needs at least one machine")
        if not isinstance(quantum, int) or quantum < 1:
            raise AppVMError(
                f"quantum must be an int >= 1 cycles, got {quantum!r}")
        self.config = config or MachineConfig(
            n_clusters=2, pes_per_cluster=3,
            memory_words_per_cluster=8_000_000,
        )
        self.quantum = quantum
        #: journaled machines can be checkpointed, which is what
        #: preemption needs
        self.checkpointing = checkpointing
        # the tracer records sched.* spans on the global service clock;
        # machines keep their own clocks and are not traced
        self.tracer = tracer
        self.machines = [
            PoolMachine(i, self.config, journal=checkpointing)
            for i in range(n_machines)
        ]
        self.tenants = TenantTable()
        for tenant in tenants:
            self.tenants.declare(tenant)
        self.queue = FairShareQueue(self.tenants)
        #: the global service clock, in cycles
        self.now = 0
        self.handles: List[JobHandle] = []
        self.stats: Dict[str, int] = {
            "submitted": 0, "rejected": 0, "dispatched": 0, "completed": 0,
            "preemptions": 0, "resumes": 0, "ckpt_bytes": 0,
        }
        self._ids = itertools.count(1)
        self._finished_unclaimed: List[JobHandle] = []
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
        # the gate reads the front machine's registry
        _lint_gate(self.machines[0].program, spec.lint)
        cost = self._cost_units(spec)
        handle = JobHandle(spec, owner=self, job_id=next(self._ids))
        handle.submit_time = self.now
        self.handles.append(handle)
        ledger = self.tenants.get(spec.tenant)
        reason = admission_reason(ledger, self.now, cost=cost)
        if reason is not None:
            handle._finish(JobState.REJECTED)
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
        if tr is not None:
            handle.queue_span = tr.begin(
                "sched.queue", f"{handle.spec.user}/{handle.spec.model.name}",
                self.now, tenant=handle.spec.tenant,
                priority=handle.spec.priority,
            )
        self.queue.push(handle)

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
            _register_solve(scratch, spec.model, spec.load_set, spec.workers,
                            spec.tol, "cost.cg_worker", "cost.cg_root")
            lo, _hi = cost_report(scratch).cycles.evaluate(
                machine_env(self.config), default=0.0)
            cached = max(1, int(lo))
            self._cost_cache[key] = cached
        return cached

    # -- dispatch -----------------------------------------------------------

    def _free_machine(self) -> Optional[PoolMachine]:
        for machine in self.machines:
            if not machine.jobs:
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
        if tr is not None and handle.queue_span is not None:
            tr.end(handle.queue_span, self.now, wait=wait)
            handle.queue_span = None
        # sync the machine's clock domain to the global clock: a fresh
        # assignment starts "now", not at the machine's epoch
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
        self.tenants.get(handle.spec.tenant).bump(self.quantum)
        self.stats["dispatched"] += 1

    # -- preemption ---------------------------------------------------------

    def _preemption_victim(self) -> Optional[PoolMachine]:
        """The machine to checkpoint away for the best queued job, or
        None when nothing queued outranks every running job."""
        if not self.checkpointing:
            return None
        best = self.queue.best_priority()
        if best is None:
            return None
        victims = [
            m for m in self.machines
            if m.jobs
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
        while self.queue or any(m.jobs for m in self.machines):
            self._round(self.now + self.quantum)
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
        """Account a slice's cycles to the resident job's tenant."""
        if delta > 0 and machine.jobs:
            (handle,) = machine.jobs
            self.tenants.get(handle.spec.tenant).charge(delta, self.now)

    def _resolve(self, machine: PoolMachine) -> None:
        for handle in machine.collect_finished():
            handle._finish(JobState.DONE)
            handle.finish_time = machine.global_now
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
            raise handle._not_resident()
        return machine.checkpoint()

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
        busy = sum(m.busy_cycles for m in self.machines)
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
        if tr is not None:
            tr.point(kind, label, self.now, **attrs)
