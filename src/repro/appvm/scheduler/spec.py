"""Job specifications, the job lifecycle, and tenant definitions.

The front door of the multi-tenant job service is one value: a
:class:`JobSpec`.  It replaces the growing ``submit(user, model,
load_set, *, workers, tol, lint)`` keyword pile with a single validated
record that carries everything the scheduler needs — who is asking
(``user``/``tenant``), what to solve (``model``/``load_set``), how to
run it (``workers``/``tol``), and how to schedule it (``priority``,
``lint`` gate mode).

A submitted job moves through an explicit lifecycle::

    PENDING -> ADMITTED -> RUNNING -> DONE
                  |           ^  |
                  |           |  v
                  |        PREEMPTED      (checkpointed, back in queue)
                  v
               REJECTED                   (quota or admission failure)

:class:`Tenant` declares a tenant's fair-share weight and quotas; the
pool's admission control and stride dispatcher consume it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ...errors import AppVMError
from ..model import StructureModel

#: accepted values for JobSpec.lint (the admission-control lint gate)
LINT_MODES = ("off", "warn", "error")


class JobState(enum.Enum):
    """Explicit job lifecycle (replaces the old boolean ``done``)."""

    PENDING = "pending"        # built, not yet through admission
    ADMITTED = "admitted"      # accepted; waiting in the tenant queue
    RUNNING = "running"        # dispatched to a pool machine
    PREEMPTED = "preempted"    # checkpointed off its machine; will resume
    DONE = "done"              # result available
    REJECTED = "rejected"      # refused by admission control (see .reason)

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.REJECTED)

    @property
    def in_flight(self) -> bool:
        """Counts against the tenant's concurrency quota."""
        return self in (JobState.ADMITTED, JobState.RUNNING,
                        JobState.PREEMPTED)


@dataclass(frozen=True)
class JobSpec:
    """Everything one solve submission carries through the service."""

    user: str
    model: StructureModel
    load_set: str
    workers: int = 2
    tol: float = 1e-9
    priority: int = 0
    tenant: str = "default"
    lint: str = "off"
    #: ServicePool admission only: declared cost in machine cycles,
    #: overriding the cost model's prediction for window quotas.  Under
    #: the lint gate a declaration below the predicted lower bound is
    #: rejected (``lint="error"``) or warned about, never trusted.
    cost_units: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.user, str) or not self.user:
            raise AppVMError("JobSpec.user must be a non-empty string")
        if not isinstance(self.model, StructureModel):
            raise AppVMError(
                f"JobSpec.model must be a StructureModel, got "
                f"{type(self.model).__name__}")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise AppVMError("JobSpec.tenant must be a non-empty string")
        if self.workers < 1:
            raise AppVMError(f"JobSpec.workers must be >= 1, got {self.workers}")
        if self.tol <= 0:
            raise AppVMError(f"JobSpec.tol must be positive, got {self.tol}")
        if self.lint not in LINT_MODES:
            raise AppVMError(
                f"lint must be one of {LINT_MODES}, got {self.lint!r}")
        if self.cost_units is not None and self.cost_units < 1:
            raise AppVMError(
                f"JobSpec.cost_units must be >= 1 when set, "
                f"got {self.cost_units}")

    def validate_model(self) -> None:
        """Fail fast at submit time on an unsolvable model."""
        self.model.require_mesh()
        self.model.require_constraints()
        self.model.load_set(self.load_set)


@dataclass(frozen=True)
class Tenant:
    """One tenant's scheduling contract with the pool.

    ``share`` is the stride-scheduling weight: over any contended
    stretch, a tenant with share 2 receives twice the machine cycles of
    a tenant with share 1.  The quotas are admission-control limits:
    ``max_concurrent`` caps jobs simultaneously in flight
    (admitted/running/preempted), ``max_cycles_per_window`` caps cycles
    consumed inside each ``window_cycles``-long window of service time;
    a submit that would exceed either is REJECTED, not queued.
    """

    name: str
    share: int = 1
    max_concurrent: Optional[int] = None
    max_cycles_per_window: Optional[int] = None
    window_cycles: int = 1_000_000

    def __post_init__(self) -> None:
        if self.share < 1:
            raise AppVMError(f"tenant share must be >= 1, got {self.share}")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise AppVMError("max_concurrent must be >= 1 when set")
        if self.max_cycles_per_window is not None \
                and self.max_cycles_per_window < 1:
            raise AppVMError("max_cycles_per_window must be >= 1 when set")
        if self.window_cycles < 1:
            raise AppVMError("window_cycles must be >= 1")
