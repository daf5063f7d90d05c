"""repro.lint.cost — static cost bounds over the flow IR.

An abstract interpreter (:mod:`.model`) walks each task body's event
IR and produces symbolic interval bounds — polynomials with
non-negative integer coefficients over named non-negative parameters —
for executed burst cycles, messages per kind, peak ``arrays``
allocation, and dispatches.  :mod:`.report` composes them over the
resolved spawn graph into the versioned ``fem2-cost/1``
:class:`CostReport`; :mod:`.checks` derives the C1 lint rule; and
:mod:`.calibrate` replays real executions against the predicted
intervals to keep the model honest.
"""

from __future__ import annotations

from .calibrate import (
    BoundCheck,
    CalibrationError,
    CalibrationResult,
    bind_params,
    calibrate,
    compare,
    observed_costs,
)
from .checks import check_c1
from .expr import CostExpr, Interval, TOP, ZERO
from .model import MESSAGE_KINDS, CostAnalyzer, TaskCost, analyze_costs
from .report import (
    COST_SCHEMA,
    CostReport,
    SpawnEdge,
    build_cost_report,
    machine_env,
)

__all__ = [
    "BoundCheck",
    "COST_SCHEMA",
    "CalibrationError",
    "CalibrationResult",
    "CostAnalyzer",
    "CostExpr",
    "CostReport",
    "Interval",
    "MESSAGE_KINDS",
    "SpawnEdge",
    "TOP",
    "TaskCost",
    "ZERO",
    "analyze_costs",
    "bind_params",
    "build_cost_report",
    "calibrate",
    "check_c1",
    "compare",
    "machine_env",
    "observed_costs",
]
