"""Campaign orchestration: waves of points across a worker pool.

A :class:`Campaign` takes a :class:`~repro.campaign.space.ParamSpace`
and runs every point as an independent simulated-machine run, fanned
out across a ``multiprocessing`` pool (``workers=N``) or the serial
in-process fallback (``workers=0``).  One simulated machine per OS
process is the first real use of host parallelism in this codebase:
each point is its own event loop, so points never share state and the
report cannot depend on how they were interleaved.

Waves: wave 0 is the declared schedule (the space expansion); each
following wave is chosen by adaptive refinement
(:func:`~repro.campaign.refine.refine_candidates`) — midpoints of the
steepest observed cycles/comms variation.  With ``restart_events`` set,
refined points exercise the warm-restart path: checkpoint mid-run into
a ``fem2-ckpt/1`` blob, finish from the blob, and keep the blob around
(:attr:`Campaign.restart_blobs`) so a refined point can be re-resumed
without recomputing its prefix.

Determinism contract: the :class:`~repro.campaign.report.CampaignReport`
returned by :meth:`Campaign.run` is **byte-identical** for any worker
count, because (a) every point payload is a pure function of the point
(no host state), (b) wave schedules and refinement scores read only
simulated observables, and (c) results are assembled in schedule order
regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import CampaignError
from ..hardware import MachineConfig
from .refine import refine_candidates
from .report import CampaignReport
from .runner import (
    DEFAULTS,
    RunOptions,
    pool_worker,
    run_point,
    validate_axes,
)
from .space import ParamSpace, Point, point_key

#: fork shares the parent's loaded module pages; elsewhere the
#: platform default (None)
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else None)


class Campaign:
    """A parameter-sweep campaign over one declared space."""

    def __init__(
        self,
        space: ParamSpace,
        *,
        name: str = "campaign",
        base_config: Union[MachineConfig, Dict[str, Any], None] = None,
        workers: int = 0,
        waves: int = 1,
        refine_per_wave: int = 0,
        restart_events: Optional[int] = None,
        defaults: Optional[Dict[str, Any]] = None,
        trace: bool = True,
        runner: Optional[Callable[[Point, RunOptions], Dict[str, Any]]] = None,
    ) -> None:
        if workers < 0:
            raise CampaignError(f"workers must be >= 0, got {workers}")
        if waves < 1:
            raise CampaignError(f"waves must be >= 1, got {waves}")
        if refine_per_wave < 0:
            raise CampaignError(
                f"refine_per_wave must be >= 0, got {refine_per_wave}")
        if restart_events is not None and restart_events < 1:
            raise CampaignError(
                f"restart_events must be >= 1 when set, got {restart_events}")
        if isinstance(base_config, MachineConfig):
            fields = {
                k: getattr(base_config, k)
                for k in MachineConfig.__dataclass_fields__
                if k != "engine"  # inert; never part of a report
            }
            base_config = fields
        self.space = space
        self.name = name
        self.base_config = dict(base_config) if base_config else {
            "n_clusters": 2, "pes_per_cluster": 3,
            "memory_words_per_cluster": 8_000_000,
        }
        #: host worker processes; 0 = serial in-process fallback
        self.workers = workers
        self.waves = waves
        self.refine_per_wave = refine_per_wave
        self.restart_events = restart_events
        self.defaults = dict(defaults or {})
        self.trace = trace
        #: custom point runner (synthetic spaces, tests); custom runners
        #: always run in-process — only the default runner fans out
        self.runner = runner
        #: mid-run fem2-ckpt/1 blobs of warm-restarted points, keyed by
        #: canonical point key — re-resume material for refined points
        self.restart_blobs: Dict[Tuple, bytes] = {}
        #: host wall-clock of the last run() (volatile; never reported)
        self.host_seconds = 0.0
        if runner is None:
            validate_axes(space)
            for axis in self.defaults:
                if axis not in DEFAULTS:
                    raise CampaignError(
                        f"unknown default {axis!r}; one of {sorted(DEFAULTS)}")

    # -- wave options --------------------------------------------------------

    def _options_for(self, wave: int) -> RunOptions:
        """Refined waves exercise the warm-restart path (journal on,
        tracing off — spans cannot span a restart boundary); wave 0
        runs cold with tracing."""
        warm = wave > 0 and self.restart_events is not None
        return RunOptions(
            base_config=dict(self.base_config),
            defaults=dict(self.defaults),
            trace=self.trace and not warm,
            journal=warm,
            restart_events=self.restart_events if warm else None,
        )

    # -- execution -----------------------------------------------------------

    def _run_serial(self, jobs: List[Tuple[int, Point, RunOptions]]):
        out = []
        for index, point, options in jobs:
            if self.runner is not None:
                payload, blob = dict(self.runner(point, options)), None
            else:
                payload, blob = run_point(point, options)
            out.append((index, payload, blob))
        return out

    def _run_wave(self, pool, jobs: List[Tuple[int, Point, RunOptions]]):
        if pool is None or self.runner is not None:
            return self._run_serial(jobs)
        # map preserves schedule order; chunksize=1 load-balances points
        # of unequal cost across the pool
        return pool.map(pool_worker, jobs, chunksize=1)

    def run(self) -> CampaignReport:
        """Run every wave; returns the ``fem2-campaign/1`` report."""
        t0 = time.perf_counter()
        schedule = self.space.expand()
        scheduled = {point_key(p) for p in schedule}
        records: List[Dict[str, Any]] = []
        waves_meta: List[Dict[str, Any]] = []
        next_index = 0

        pool = None
        try:
            if self.workers > 0 and self.runner is None:
                ctx = multiprocessing.get_context(_START_METHOD)
                pool = ctx.Pool(processes=self.workers)
            for wave in range(self.waves):
                if wave > 0:
                    schedule = refine_candidates(
                        self.space, records, self.refine_per_wave, scheduled)
                    scheduled.update(point_key(p) for p in schedule)
                    if not schedule:
                        break
                options = self._options_for(wave)
                jobs = [(next_index + i, point, options)
                        for i, point in enumerate(schedule)]
                next_index += len(jobs)
                results = self._run_wave(pool, jobs)
                for (index, payload, blob), point in zip(results, schedule):
                    record = dict(payload)
                    record["point"] = dict(point)
                    record["wave"] = wave
                    record["index"] = index
                    record.setdefault("metrics", {})
                    record.setdefault("restart", None)
                    records.append(record)
                    if blob is not None:
                        self.restart_blobs[point_key(point)] = blob
                waves_meta.append({
                    "wave": wave,
                    "points": len(jobs),
                    "warm": options.restart_events is not None,
                })
        finally:
            if pool is not None:
                pool.close()
                pool.join()

        self.host_seconds = time.perf_counter() - t0
        return CampaignReport(
            name=self.name,
            space=self.space.describe(),
            options={
                "base_config": dict(self.base_config),
                "defaults": dict(self.defaults),
                "waves": self.waves,
                "refine_per_wave": self.refine_per_wave,
                "restart_events": self.restart_events,
                "trace": self.trace,
            },
            waves=waves_meta,
            points=records,
        )
