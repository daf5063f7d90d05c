"""repro.appvm.scheduler — the multi-tenant sharded job service.

Submissions are :class:`JobSpec` values; the :class:`ServicePool`
shards them across a pool of simulated machines with per-tenant
quotas (admission control), stride fair-share dispatch, and
checkpoint-based preemption via :mod:`repro.ckpt`.
"""

from .dispatch import FairShareQueue
from .handle import JobHandle
from .machine import CKPT_SCHEMA, PoolMachine, rebuild_program
from .pool import ServicePool
from .quota import (
    TenantLedger,
    TenantTable,
    admission_reason,
    fairness_index,
    jain_index,
)
from .spec import LINT_MODES, JobSpec, JobState, Tenant

__all__ = [
    "CKPT_SCHEMA",
    "FairShareQueue",
    "JobHandle",
    "JobSpec",
    "JobState",
    "LINT_MODES",
    "PoolMachine",
    "ServicePool",
    "Tenant",
    "TenantLedger",
    "TenantTable",
    "admission_reason",
    "fairness_index",
    "jain_index",
    "rebuild_program",
]
