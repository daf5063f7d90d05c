"""The shared analysis service: one FEM-2 machine, many users.

"Provide multi-user access" — this module is the machine-side half of
that requirement.  Sessions submit solve jobs described by a
:class:`~repro.appvm.scheduler.JobSpec` and get back a
:class:`~repro.appvm.scheduler.JobHandle`; the service runs every
pending job *concurrently* as independent root tasks on one machine
(the outermost level of parallelism), then each user reads their
result from their handle:

    spec = JobSpec(user="alice", model=model, load_set="case", workers=4)
    handle = service.submit(spec)
    service.run()
    result = handle.result()

Since the pool rework, :class:`MachineService` is a thin compatibility
wrapper over a one-machine :class:`~repro.appvm.scheduler.ServicePool`
in *persistent* drain mode: one program reused across batches, no job
slots, no quantum slicing — exactly the pre-pool behaviour, traces
included.  Multi-machine scheduling (tenants, quotas, fair share,
preemption) lives on :class:`ServicePool` itself.

When the service's machine carries a :mod:`repro.obs` tracer, every job
opens an ``appvm.job`` span that parents the job's root-task span, so a
profile links user job → tasks → messages → cycles.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Optional

from ..ckpt import from_bytes
from ..errors import AppVMError
from ..hardware.machine import MachineConfig
from .scheduler import (
    CKPT_SCHEMA,
    LINT_MODES,
    JobHandle,
    JobSpec,
    JobState,
    ServicePool,
    rebuild_program,
)

__all__ = ["CKPT_SCHEMA", "LINT_MODES", "JobHandle", "JobSpec",
           "MachineService"]


class MachineService:
    """Batches user solve requests onto one simulated FEM-2 machine."""

    def __init__(self, config: Optional[MachineConfig] = None, tracer=None,
                 checkpointing: bool = False) -> None:
        self.config = config or MachineConfig(memory_words_per_cluster=16_000_000)
        #: checkpointing turns on runtime journaling so the service's
        #: program can be snapshotted (see :meth:`checkpoint`)
        self.checkpointing = checkpointing
        self.pool = ServicePool(
            n_machines=1, config=self.config, tracer=tracer,
            quantum=None, machine_slots=None,
            checkpointing=checkpointing, persistent=True,
        )

    @property
    def program(self):
        return self.pool.machines[0].program

    @property
    def tracer(self):
        return self.program.tracer

    @property
    def completed_batches(self) -> int:
        return self.pool.completed_batches

    def submit(self, spec: JobSpec) -> JobHandle:
        """Queue one solve described by a :class:`JobSpec`; nothing runs
        until :meth:`run`.

        ``spec.lint`` gates the submission on
        :func:`repro.lint.lint_program` over every task type registered
        on the service's program: ``"error"`` rejects a program with
        error-severity findings before any task is spawned, ``"warn"``
        emits warnings instead, ``"off"`` (the default) skips the check.
        """
        return self.pool.submit(spec)

    def run(self):
        """Run every submitted job concurrently; resolves their handles."""
        if self.pool.pending_count == 0:
            raise AppVMError("no jobs submitted")
        return self.pool.run()

    # -- checkpoint/resume ---------------------------------------------------

    def checkpoint(self) -> bytes:
        """Serialize the whole service — configuration, pending jobs, and
        the complete machine state — into one blob.

        Task bodies and meshes-as-code are not in the blob; resume
        re-registers each job's solve from its model via
        :func:`repro.fem.register_parallel_cg` before restoring.
        """
        return self.pool.machines[0].checkpoint(
            completed_batches=self.completed_batches)

    @classmethod
    def resume(cls, blob: bytes, tracer=None) -> "MachineService":
        """Rebuild a service from a :meth:`checkpoint` blob and continue.

        A fresh machine is constructed from the checkpointed config (the
        spare-hardware model), each job's task types are re-registered
        under their original names, and the program state is restored —
        after which :meth:`run` completes the jobs exactly as the
        original machine would have.

        Accepts both whole-service blobs and the per-job machine blobs
        produced by :meth:`JobHandle.checkpoint` or pool preemption —
        they share the ``fem2-ckpt/1`` format.
        """
        state = from_bytes(blob)
        if state.get("schema") != CKPT_SCHEMA:
            raise AppVMError(
                f"not a MachineService checkpoint (schema={state.get('schema')!r})"
            )
        config = MachineConfig(**state["config"])
        service = cls(config=config, tracer=tracer, checkpointing=True)
        pool = service.pool
        machine = pool.machines[0]
        machine.program = rebuild_program(config, state, tracer=tracer)
        machine.dirty = True
        handles = []
        for job in state["jobs"]:
            spec = JobSpec(
                user=job["user"], model=job["model"],
                load_set=job["load_set"], workers=job["workers"],
                tol=job["tol"], priority=job.get("priority", 0),
                tenant=job.get("tenant", "default"),
            )
            handle = JobHandle(spec, owner=pool, job_id=next(pool._ids))
            handle.tid = job["tid"]
            handle.state = JobState.RUNNING
            handle.machine = machine
            pool.handles.append(handle)
            pool.tenants.get(spec.tenant).in_flight += 1
            handles.append(handle)
        machine.jobs = handles
        pool.completed_batches = state["completed_batches"]
        # keep post-resume submissions clear of the restored task names
        max_id = len(handles)
        for job in state["jobs"]:
            tagged = re.search(r"\.j(\d+)$", job["root_name"])
            if tagged:
                max_id = max(max_id, int(tagged.group(1)))
        pool._ids = itertools.count(max_id + 1)
        return service

    @property
    def pending_count(self) -> int:
        return self.pool.pending_count

    def machine_report(self) -> Dict[str, float]:
        m = self.program.metrics
        return {
            "elapsed_cycles": self.program.now,
            "messages": m.get("comm.messages"),
            "flops": m.get("proc.flops"),
            "tasks": m.get("task.initiated"),
            "utilization": self.program.machine.utilization(),
        }
