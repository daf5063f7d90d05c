"""Admission control: a per-tenant concurrency quota.

Each tenant has a mutable :class:`TenantLedger` — in-flight job count,
lifetime cycles, and the stride-scheduling pass value the dispatcher
orders by.  Admission is a pure check over (ledger, tenant): it never
mutates, so a rejected submit leaves no trace beyond the REJECTED
handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .spec import Tenant


@dataclass
class TenantLedger:
    """Mutable scheduling state for one tenant."""

    tenant: Tenant
    in_flight: int = 0          # admitted + running + preempted jobs
    consumed: int = 0           # lifetime cycles consumed
    jobs_done: int = 0
    jobs_rejected: int = 0
    pass_value: float = 0.0     # stride pass: consumed / share
    wait_cycles: int = 0        # summed queue wait of finished jobs

    def charge(self, cycles: int) -> None:
        """Account *cycles* of machine time consumed."""
        self.consumed += cycles
        self.pass_value += cycles / self.tenant.share

    def bump(self, cycles: int) -> None:
        """Advance the stride pass without recording consumption.

        Charged at dispatch time (one quantum's worth): placements made
        in the same scheduling round must see each other in the pass
        ordering, or a tenant whose pass ties at a multi-machine free-up
        wins every machine at once and fair share degenerates to
        alternation.
        """
        self.pass_value += cycles / self.tenant.share


def admission_reason(ledger: TenantLedger) -> Optional[str]:
    """Why a new submit must be rejected right now, or None to admit."""
    tenant = ledger.tenant
    if tenant.max_concurrent is not None \
            and ledger.in_flight >= tenant.max_concurrent:
        return (f"tenant {tenant.name!r} is at its concurrency quota "
                f"({ledger.in_flight}/{tenant.max_concurrent} jobs in flight)")
    return None


@dataclass
class TenantTable:
    """All tenant ledgers, auto-registering unknown tenants on first use."""

    ledgers: Dict[str, TenantLedger] = field(default_factory=dict)

    def declare(self, tenant: Tenant) -> TenantLedger:
        ledger = TenantLedger(tenant)
        self.ledgers[tenant.name] = ledger
        return ledger

    def get(self, name: str) -> TenantLedger:
        ledger = self.ledgers.get(name)
        if ledger is None:
            ledger = self.declare(Tenant(name))
        return ledger

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant accounting snapshot (for benches and fairness)."""
        out: Dict[str, Dict[str, float]] = {}
        for name, led in sorted(self.ledgers.items()):
            out[name] = {
                "share": led.tenant.share,
                "in_flight": led.in_flight,
                "consumed_cycles": led.consumed,
                "cycles_per_share": led.consumed / led.tenant.share,
                "jobs_done": led.jobs_done,
                "jobs_rejected": led.jobs_rejected,
            }
        return out


def fairness_index(table: TenantTable) -> float:
    """min/max ratio of share-normalized consumption (1.0 = perfectly
    proportional) over the tenants that consumed anything."""
    rates = [led.consumed / led.tenant.share
             for led in table.ledgers.values() if led.consumed > 0]
    if len(rates) < 2:
        return 1.0
    return min(rates) / max(rates)


def jain_index(table: TenantTable) -> float:
    """Jain's fairness index over share-normalized consumption."""
    rates = [led.consumed / led.tenant.share
             for led in table.ledgers.values() if led.consumed > 0]
    if not rates:
        return 1.0
    return (sum(rates) ** 2) / (len(rates) * sum(r * r for r in rates))
