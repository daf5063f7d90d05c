"""One campaign point = one simulated FEM-2 machine run.

:func:`run_point` maps a point of the parameter space onto a fresh
:class:`~repro.appvm.MachineService`: machine axes select the
:class:`~repro.hardware.MachineConfig`, mesh axes build the plate model
(a cantilever ``rect_grid`` fixed at ``x=0`` and tip-loaded at
``x=lx``), solver axes shape the :class:`~repro.appvm.JobSpec`.  The
run's simulated observables come back as a JSON-safe *point payload*
holding a per-point ``fem2-bench/1`` record, the flat machine metrics,
and (when tracing) the obs span aggregate.

Everything here is picklable and importable at module level because
points fan out across OS processes: :func:`pool_worker` is the
``multiprocessing`` entry point.

Warm restarts: with ``restart_events`` set, the run checkpoints after
that many engine events into a ``fem2-ckpt/1`` blob and *resumes from
the blob* on a fresh service to finish.  The payload then records the
restart fingerprints; the run's observables are bit-identical to a
cold run of the same point (``tests/test_campaign_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..appvm import JobSpec, MachineService, StructureModel
from ..bench import Experiment
from ..ckpt import content_fingerprint, fingerprint
from ..errors import CampaignError
from ..fem import LoadSet, Material, rect_grid
from ..hardware import MachineConfig
from ..obs import Tracer
from .space import ParamSpace, Point

#: point axes consumed by the machine configuration
MACHINE_AXES = (
    "n_clusters", "pes_per_cluster", "memory_words_per_cluster",
    "topology", "hop_latency", "bandwidth_words_per_cycle",
    "message_fixed_cycles", "dispatch_cycles", "flop_cycles",
    "word_touch_cycles",
)
#: point axes consumed by the mesh builder
MESH_AXES = ("nx", "ny", "lx", "ly", "load")
#: point axes consumed by the solve job
SOLVER_AXES = ("workers", "tol")

KNOWN_AXES = frozenset(MACHINE_AXES + MESH_AXES + SOLVER_AXES)

#: mesh/solver values used when a point does not sweep that axis
DEFAULTS: Dict[str, Any] = {
    "nx": 4, "ny": 2, "lx": 2.0, "ly": 1.0, "load": -1e4,
    "workers": 2, "tol": 1e-6,
}


@dataclass(frozen=True)
class RunOptions:
    """Everything a worker process needs besides the point itself."""

    #: MachineConfig fields the point does not override
    base_config: Dict[str, Any] = field(default_factory=dict)
    #: mesh/solver defaults overriding :data:`DEFAULTS`
    defaults: Dict[str, Any] = field(default_factory=dict)
    #: collect obs span aggregates (cold runs only)
    trace: bool = True
    #: journal the runtime so final state is snapshottable; implied by
    #: ``restart_events``
    journal: bool = False
    #: checkpoint after this many engine events, then resume from the
    #: blob on a fresh service (None = cold run)
    restart_events: Optional[int] = None


def validate_axes(space: ParamSpace) -> None:
    """Reject axes the default runner cannot map onto a run."""
    unknown = sorted(set(space.axis_names) - KNOWN_AXES)
    if unknown:
        raise CampaignError(
            f"unknown axes {unknown} for the default point runner; "
            f"known axes: {sorted(KNOWN_AXES)} "
            f"(pass a custom runner= for synthetic spaces)")


def _merged(point: Point, options: RunOptions) -> Dict[str, Any]:
    merged = dict(DEFAULTS)
    merged.update(options.defaults)
    merged.update(point)
    return merged


def build_config(point: Point, options: RunOptions) -> MachineConfig:
    """The machine configuration a point runs on."""
    fields = dict(options.base_config)
    fields.update({k: v for k, v in point.items() if k in MACHINE_AXES})
    return MachineConfig(**fields)


def build_model(point: Point, options: RunOptions) -> StructureModel:
    """The cantilever plate model a point solves."""
    p = _merged(point, options)
    model = StructureModel(
        "campaign_plate",
        material=Material(e=70e9, nu=0.3, thickness=0.01),
    )
    model.set_mesh(rect_grid(int(p["nx"]), int(p["ny"]),
                             float(p["lx"]), float(p["ly"])))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(model.mesh.nodes_on(x=float(p["lx"])), 1,
                         float(p["load"]))
    model.load_sets["case"] = loads
    return model


def _point_experiment(point: Point, metrics: Dict[str, Any]) -> Experiment:
    """The point's own ``fem2-bench/1`` experiment record."""
    exp = Experiment("E16P", "campaign point: simulated observables")
    exp.set_headers("metric", "value")
    for key in sorted(metrics):
        exp.add_row(key, metrics[key])
    exp.note("point " + ", ".join(f"{k}={point[k]}" for k in sorted(point)))
    return exp


def run_point(point: Point, options: RunOptions
              ) -> Tuple[Dict[str, Any], Optional[bytes]]:
    """Run one point to completion; returns ``(payload, restart_blob)``.

    The payload is JSON-safe and a pure function of the point and
    options — no host identifiers, wall-clock times, or worker state
    leak into it, which is what makes campaign reports byte-identical
    across worker counts.  ``restart_blob`` is the mid-run
    ``fem2-ckpt/1`` blob when warm-restart plumbing was exercised.
    """
    journal = options.journal or options.restart_events is not None
    tracer = Tracer() if options.trace and options.restart_events is None \
        else None
    config = build_config(point, options)
    model = build_model(point, options)
    p = _merged(point, options)
    spec = JobSpec(user="campaign", model=model, load_set="case",
                   workers=int(p["workers"]), tol=float(p["tol"]))

    service = MachineService(config, tracer=tracer, checkpointing=journal)
    handle = service.submit(spec)
    restart = None
    blob = None
    if options.restart_events is not None:
        # run partway, capture the machine, and finish from the blob on
        # a fresh service — the warm-restart path refinement waves use
        service.program.machine.engine.run(
            max_events=options.restart_events)
        blob = service.checkpoint()
        service = MachineService.resume(blob)
        finished = service.run()
        if len(finished) != 1:
            raise CampaignError(
                f"warm restart finished {len(finished)} jobs, expected 1")
        handle = finished[0]
        restart = {
            "events": options.restart_events,
            "blob_sha256": fingerprint(blob),
        }
    else:
        service.run()

    result = handle.result()
    report = service.machine_report()
    metrics = {
        "cycles": int(report["elapsed_cycles"]),
        "messages": report["messages"],
        "flops": report["flops"],
        "tasks": report["tasks"],
        "utilization": report["utilization"],
        "iterations": int(result.iterations),
    }
    payload: Dict[str, Any] = {
        "point": dict(point),
        "metrics": metrics,
        "result": {
            "iterations": int(result.iterations),
            "elapsed_cycles": int(result.elapsed_cycles),
            "max_displacement": result.max_displacement(),
            "method": result.method,
        },
        "bench": {
            "schema": "fem2-bench/1",
            "bench": "campaign.point",
            "records": [_point_experiment(point, metrics).to_record()],
        },
        "spans": tracer.kind_summary() if tracer is not None else None,
        "restart": restart,
        # content digest, not blob bytes: a restored program aliases
        # its objects differently than the original, so only a
        # topology-independent fingerprint can equate warm and cold
        "final_ckpt_sha256": (
            content_fingerprint(service.program.snapshot())
            if journal else None),
    }
    return payload, blob


def pool_worker(job: Tuple[int, Point, RunOptions]
                ) -> Tuple[int, Dict[str, Any], Optional[bytes]]:
    """``multiprocessing`` entry point: one point, one simulated
    machine, in whatever OS process the pool scheduled it on."""
    index, point, options = job
    payload, blob = run_point(point, options)
    return index, payload, blob
