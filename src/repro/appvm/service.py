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

The service owns one :class:`~repro.appvm.scheduler.machine.PoolMachine`
and nothing else: no queue, no tenants, no quotas, no cost prediction.
Those belong to the multi-machine :class:`~repro.appvm.ServicePool`.

When the service's machine carries a :mod:`repro.obs` tracer, every job
opens an ``appvm.job`` span that parents the job's root-task span, so a
profile links user job → tasks → messages → cycles.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, List, Optional

from ..errors import AppVMError
from ..hardware.machine import MachineConfig
from .scheduler.handle import JobHandle
from .scheduler.machine import (
    CKPT_SCHEMA,
    PoolMachine,
    _decode_blob,
    _lint_gate,
    rebuild_program,
)
from .scheduler.spec import LINT_MODES, JobSpec, JobState

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
        #: one program, reused across batches and traced on its own clock
        self.machine = PoolMachine(0, self.config, journal=checkpointing,
                                   tracer=tracer)
        self.completed_batches = 0
        self._ids = itertools.count(1)

    @property
    def program(self):
        return self.machine.program

    def submit(self, spec: JobSpec) -> JobHandle:
        """Start one solve described by a :class:`JobSpec` as a root task;
        no simulated time passes until :meth:`run`.

        ``spec.lint`` gates the submission on
        :func:`repro.lint.lint_program` over every task type registered
        on the service's program: ``"error"`` rejects a program with
        error-severity findings before any task is spawned, ``"warn"``
        emits warnings instead, ``"off"`` (the default) skips the check.
        """
        if not isinstance(spec, JobSpec):
            raise AppVMError(
                f"submit() takes a JobSpec, got {type(spec).__name__}")
        spec.validate_model()
        _lint_gate(self.program, spec.lint)
        handle = JobHandle(spec, job_id=next(self._ids))
        handle.submit_time = handle.dispatch_time = self.program.now
        self.machine.spawn(handle)
        handle.state = JobState.RUNNING
        handle.machine = self.machine
        return handle

    def run(self) -> List[JobHandle]:
        """Run every submitted job concurrently; resolves their handles
        and returns them."""
        if not self.machine.jobs:
            raise AppVMError("no jobs submitted")
        self.machine.run_slice(None)
        finished = self.machine.collect_finished()
        for handle in finished:
            handle._finish(JobState.DONE)
            handle.finish_time = self.program.now
        self.completed_batches += 1
        return finished

    # -- checkpoint/resume ---------------------------------------------------

    def checkpoint(self) -> bytes:
        """Serialize the whole service — configuration, pending jobs, and
        the complete machine state — into one blob.

        Task bodies and meshes-as-code are not in the blob; resume
        re-registers each job's solve from its model via
        :func:`repro.fem.register_parallel_cg` before restoring.
        """
        return self.machine.checkpoint(
            completed_batches=self.completed_batches)

    @classmethod
    def resume(cls, blob: bytes, tracer=None) -> "MachineService":
        """Rebuild a service from a :meth:`checkpoint` blob and continue.

        A fresh machine is constructed from the checkpointed config (the
        spare-hardware model), each job's task types are re-registered
        under their original names, and the program state is restored —
        after which :meth:`run` completes the jobs exactly as the
        original machine would have.

        Accepts both whole-service blobs and the machine blobs that
        pool preemption produces — they share the ``fem2-ckpt/1`` format.
        """
        state, config = _decode_blob(blob)
        service = cls(config=config, tracer=tracer, checkpointing=True)
        machine = service.machine
        machine.install(rebuild_program(config, state, tracer=tracer))
        for job in state["jobs"]:
            spec = JobSpec(
                user=job["user"], model=job["model"],
                load_set=job["load_set"], workers=job["workers"],
                tol=job["tol"], priority=job.get("priority", 0),
                tenant=job.get("tenant", "default"),
            )
            handle = JobHandle(spec, job_id=next(service._ids))
            handle.tid = job["tid"]
            handle.state = JobState.RUNNING
            handle.machine = machine
            machine.jobs.append(handle)
        service.completed_batches = state["completed_batches"]
        # keep post-resume submissions clear of the restored task names
        max_id = len(machine.jobs)
        for job in state["jobs"]:
            tagged = re.search(r"\.j(\d+)$", job["root_name"])
            if tagged:
                max_id = max(max_id, int(tagged.group(1)))
        service._ids = itertools.count(max_id + 1)
        return service

    def machine_report(self) -> Dict[str, float]:
        m = self.program.metrics
        return {
            "elapsed_cycles": self.program.now,
            "messages": m.get("comm.messages"),
            "flops": m.get("proc.flops"),
            "tasks": m.get("task.initiated"),
            "utilization": self.program.machine.utilization(),
        }
