"""Design-space campaigns: many simulated machines, one report.

The FEM-2 paper ran its simulations to *explore a design space* —
architectural-choice sweeps over machine, mesh, and solver parameters.
``repro.campaign`` is that layer: declare a :class:`ParamSpace`, fan
every point out as an independent simulated-machine run across a
``multiprocessing`` worker pool, refine adaptively where the observed
cycles/communication vary most, and collect one versioned
``fem2-campaign/1`` report that is byte-identical regardless of worker
count, wave ordering, or refinement interleaving.

CLI: ``python -m repro.campaign --axis nx=2,4,8 --axis workers=1,2
--campaign-workers 4 --waves 2 --refine 4 --out campaign.json``.
"""

from .campaign import Campaign
from .refine import midpoint, pair_score, refine_candidates
from .report import CAMPAIGN_SCHEMA, CampaignReport
from .runner import (
    DEFAULTS,
    KNOWN_AXES,
    MACHINE_AXES,
    MESH_AXES,
    SOLVER_AXES,
    RunOptions,
    build_config,
    build_model,
    pool_worker,
    run_point,
    validate_axes,
)
from .space import Axis, ParamSpace, point_key

__all__ = [
    "Axis",
    "CAMPAIGN_SCHEMA",
    "Campaign",
    "CampaignReport",
    "DEFAULTS",
    "KNOWN_AXES",
    "MACHINE_AXES",
    "MESH_AXES",
    "ParamSpace",
    "RunOptions",
    "SOLVER_AXES",
    "build_config",
    "build_model",
    "midpoint",
    "pair_score",
    "point_key",
    "pool_worker",
    "refine_candidates",
    "run_point",
    "validate_axes",
]
