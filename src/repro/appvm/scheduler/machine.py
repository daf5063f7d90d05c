"""One simulated FEM-2 machine and the solve jobs resident on it.

:class:`PoolMachine` is the piece the two services share:
:class:`~repro.appvm.MachineService` owns exactly one, a
:class:`~repro.appvm.scheduler.ServicePool` owns several.  It spawns a
job's solve as a root task, runs the event loop (bounded slice or
drain), resolves finished jobs, and checkpoints itself into a
``fem2-ckpt/1`` blob that either service can restore — on the same or a
spare machine, bit-identically, because restore replays the journal to
the exact event the machine stopped at.

The submit-time lint gate lives here too: it reads one machine's
program and nothing of the service around it.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from ...ckpt import from_bytes, to_bytes
from ...errors import AppVMError, ConfigurationError
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
)
from ..model import AnalysisResult, StructureModel
from .handle import JobHandle

#: schema tag of machine/service checkpoint blobs (unchanged since PR 3)
CKPT_SCHEMA = "fem2-ckpt/1"

_BLOB_KEYS = ("config", "jobs", "program", "completed_batches")


def _register_solve(program: Fem2Program, model: StructureModel,
                    load_set: str, workers: int, tol: float,
                    worker_name: str, root_name: str) -> None:
    """Register one job's parallel-CG task types on *program*."""
    register_parallel_cg(
        program,
        model.require_mesh(),
        model.material,
        model.require_constraints(),
        model.load_set(load_set),
        n_workers=workers,
        tol=tol,
        worker_name=worker_name,
        root_name=root_name,
    )


def _lint_gate(program: Fem2Program, mode: str) -> None:
    """Unless *mode* is ``"off"``, run :func:`repro.lint.lint_program`
    over the task types registered on *program* and enforce its
    findings before admission.  The gate also extracts the program's
    static route summary (``fem2-flow/1``) and cost bounds
    (``fem2-cost/1``), posting both on the tracer as ``lint.flow`` /
    ``lint.cost`` points, so every admitted job carries its predicted
    communication structure and cost.  All three are views of one
    analysis that :mod:`repro.lint.store` keeps per task set, so only
    the first submit in a process to see a task set pays for it."""
    if mode == "off":
        return
    report = lint_program(program)
    flow = flow_summary(program)
    cost = cost_report(program)
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
    # stacklevel 3: this gate <- the service's submit() <- the caller
    warnings.warn(f"static analysis findings: {rendered}",
                  UserWarning, stacklevel=3)


def _decode_blob(blob: bytes) -> Tuple[Dict[str, Any], MachineConfig]:
    """Decode and validate a ``fem2-ckpt/1`` machine blob; returns the
    state tree and the machine configuration it was taken on.  A blob
    that is not a checkpoint at all raises :class:`~repro.errors.CkptError`
    from the codec; a well-formed blob of the wrong shape raises
    :class:`AppVMError` naming what is wrong."""
    state = from_bytes(blob)
    if not isinstance(state, dict):
        raise AppVMError(
            f"not a machine checkpoint (payload is a "
            f"{type(state).__name__}, not a dict)")
    if state.get("schema") != CKPT_SCHEMA:
        raise AppVMError(
            f"not a machine checkpoint (schema={state.get('schema')!r})")
    missing = [key for key in _BLOB_KEYS if key not in state]
    if missing:
        raise AppVMError(
            f"machine checkpoint is missing {', '.join(missing)}")
    try:
        config = MachineConfig(**state["config"])
        config.validate()
    except (TypeError, ConfigurationError) as exc:
        raise AppVMError(
            f"machine checkpoint has a bad config: {exc}") from exc
    return state, config


def rebuild_program(config: MachineConfig, state: Dict[str, Any],
                    tracer=None) -> Fem2Program:
    """A fresh journaled program with *state*'s jobs re-registered and
    the captured machine state restored into it (the spare-hardware
    model shared by :meth:`MachineService.resume` and pool preemption)."""
    program = Fem2Program(config, tracer=tracer, journal=True)
    for job in state["jobs"]:
        root_name = job["root_name"]
        _register_solve(program, job["model"], job["load_set"],
                        job["workers"], job["tol"],
                        root_name.replace("cg_root", "cg_worker"), root_name)
    program.restore(state["program"])
    return program


class PoolMachine:
    """One simulated machine and the jobs resident on it."""

    def __init__(self, index: int, config: MachineConfig, journal: bool,
                 tracer=None) -> None:
        self.index = index
        self.config = config
        self.journal = journal
        self.tracer = tracer
        self.jobs: List[JobHandle] = []
        #: global service cycle at which this program's local clock was 0
        self.offset = 0
        #: cycles run by the programs this machine has already retired
        self._retired_cycles = 0
        #: True once a job has run here since the last fresh program
        self.dirty = False
        self.program = self._fresh()
        self._installed_at = 0

    def _fresh(self) -> Fem2Program:
        return Fem2Program(self.config, tracer=self.tracer,
                           journal=self.journal)

    def install(self, program: Fem2Program) -> None:
        """Retire the current program and run *program* from its own
        clock on: 0 for a fresh program, the checkpoint's for a restored
        one, whose earlier cycles were run (and counted) elsewhere."""
        self._retired_cycles = self.busy_cycles
        self.program = program
        self._installed_at = program.now

    @property
    def busy_cycles(self) -> int:
        """Cycles every program installed here has advanced while
        installed (the pool's utilization numerator)."""
        return self._retired_cycles + self.program.now - self._installed_at

    def reset(self, global_now: int) -> None:
        """Swap in a fresh program (job isolation between assignments)."""
        self.install(self._fresh())
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
        _register_solve(self.program, model, spec.load_set, spec.workers,
                        spec.tol, worker_name, root_name)
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
        state, config = _decode_blob(blob)
        if len(state["jobs"]) != len(handles):
            raise AppVMError(
                f"checkpoint carries {len(state['jobs'])} jobs but "
                f"{len(handles)} handles were re-attached")
        self.install(rebuild_program(config, state, tracer=self.tracer))
        self.offset = global_now - self.program.now
        self.jobs = list(handles)
        self.dirty = True
