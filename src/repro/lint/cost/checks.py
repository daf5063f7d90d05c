"""The cost-model lint rule C1 (unbounded cost).

C1 fires where the interval model loses all static control over
program cost: an initiation whose replication count is unresolvable
*inside* a loop whose trip count is also unresolvable (or a recursive
sub-generator chain).  Each such site multiplies two free parameters,
so no closed-form bound exists.  It is a warning (an error under
``--strict``): dynamic spawning is legal, but the author should make
one of the two bounds a literal/const.
"""

from __future__ import annotations

from typing import List

from ..findings import Finding
from .model import TaskCost


def check_c1(costs: List[TaskCost]) -> List[Finding]:
    findings: List[Finding] = []
    for cost in costs:
        for site in cost.unbounded:
            findings.append(Finding(
                "C1",
                f"statically unbounded cost: {site.reason} — no "
                f"closed-form bound exists; bind the loop or the "
                f"replication count to a literal/const",
                cost.file, site.line, severity="warning", task=cost.task,
            ))
    return findings
