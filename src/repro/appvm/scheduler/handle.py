"""The job handle: one submission's identity, lifecycle, and result.

A :class:`JobHandle` is returned by every ``submit`` — including
rejected ones, whose state is :attr:`JobState.REJECTED` and whose
``reason`` says why.  The handle records the scheduling timeline
(submit / dispatch / finish, in global service cycles) so queue-wait
latency is measurable per job, and carries the job's obs spans.
"""

from __future__ import annotations

from typing import Optional

from ...errors import AppVMError
from ..model import AnalysisResult
from .spec import JobSpec, JobState


class JobHandle:
    """One submitted solve job, tracked through the scheduler lifecycle."""

    __slots__ = ("spec", "state", "reason", "job_id", "tid", "span",
                 "queue_span", "machine", "submit_time", "dispatch_time",
                 "finish_time", "queue_wait", "preemptions", "_result",
                 "_owner", "_resume_image", "_enqueued_at")

    def __init__(self, spec: JobSpec, owner=None, job_id: int = 0) -> None:
        self.spec = spec
        self.state = JobState.PENDING
        self.reason: Optional[str] = None   # set when REJECTED
        self.job_id = job_id
        self.tid: Optional[int] = None      # root task id on its machine
        self.span = None                    # appvm.job span (machine tracer)
        self.queue_span = None              # sched.queue span (pool tracer)
        self.machine = None                 # PoolMachine while RUNNING
        self.submit_time: Optional[int] = None    # global service cycles
        self.dispatch_time: Optional[int] = None  # first dispatch
        self.finish_time: Optional[int] = None
        self.queue_wait = 0                 # total cycles spent queued
        self.preemptions = 0
        self._result: Optional[AnalysisResult] = None
        self._owner = owner
        self._resume_image: Optional[bytes] = None  # fem2-ckpt/1 blob
        self._enqueued_at: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Derived alias for ``state is JobState.DONE``."""
        return self.state is JobState.DONE

    def result(self) -> AnalysisResult:
        """The job's analysis result; raises until the job is DONE."""
        if self._result is None:
            if self.state is JobState.REJECTED:
                raise AppVMError(
                    f"job for {self.spec.user!r} was rejected: {self.reason}")
            raise AppVMError(
                f"job for {self.spec.user!r} has not finished "
                f"(state={self.state.value}; run the service)")
        return self._result

    def checkpoint(self) -> bytes:
        """Checkpoint the *job's machine* — not the whole service.

        The blob captures this job's machine (its configuration, the
        jobs resident on it, and the complete program state) in the
        ``fem2-ckpt/1`` format; restore it with
        :meth:`repro.appvm.MachineService.resume` or let the pool do it
        as part of preemption.  Jobs sharing the machine are captured
        too; jobs on *other* pool machines are not.
        """
        if self._owner is None:
            raise self._not_resident()
        return self._owner.checkpoint_job(self)

    def _not_resident(self) -> AppVMError:
        return AppVMError(
            f"job for {self.spec.user!r} is not resident on a machine "
            f"(state={self.state.value})")

    def _finish(self, state: JobState) -> None:
        """Enter a final state.  A finished handle is a result, not a
        lease on its service: it lets go of the owner (and with it the
        pool, its machines and their finished programs)."""
        self.state = state
        self.machine = None
        self._owner = None

    # -- naming -------------------------------------------------------------

    def task_names(self) -> tuple:
        """Deterministic (worker, root) task-type names for this job.

        Stable names make re-registration under resume replay-identical
        (see :func:`repro.fem.register_parallel_cg`).
        """
        return (f"fem.cg_worker.j{self.job_id}", f"fem.cg_root.j{self.job_id}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"JobHandle({self.spec.user!r}, {self.spec.model.name!r}, "
                f"{self.state.value})")
