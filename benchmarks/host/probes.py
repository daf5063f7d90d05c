"""Per-layer probes: timers around single public calls, run after the
traced phase on the workload's median solve.

Each probe answers "what does this layer cost here" with one number a
later change to that layer should move.  Times are the fastest of a few
repeats (this host's noise only ever adds time); counts are exact.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.campaign import Campaign, ParamSpace
from repro.ckpt import from_bytes, to_bytes
from repro.fem import (
    assemble_stiffness,
    parallel_cg_solve,
    recover_stresses,
    register_parallel_cg,
    start_parallel_cg,
    static_solve,
)
from repro.hardware import ENGINES, Machine
from repro.langvm import Fem2Program
from repro.lint import cost_report, flow_summary, lint_program
from repro.obs import Tracer

from workloads import CAMPAIGN_AXES


def _ms(fn, repeats):
    """Fastest wall milliseconds of ``fn()`` over *repeats* calls, and
    the last return value."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best, out


class Case:
    """The workload's median solve: one model, a worker count, a machine."""

    def __init__(self, model, workers, config) -> None:
        self.model = model
        self.workers = workers
        self.config = config
        self.fem_args = (model.require_mesh(), model.material,
                         model.require_constraints(), model.load_set("case"))

    def solve(self, config=None, **program_kw):
        program = Fem2Program(config or self.config, **program_kw)
        info = parallel_cg_solve(program, *self.fem_args,
                                 n_workers=self.workers, tol=1e-8)
        return program, info

    def registered(self, **program_kw):
        """A program carrying the solve's task types, not yet started."""
        program = Fem2Program(self.config, **program_kw)
        register_parallel_cg(program, *self.fem_args, n_workers=self.workers,
                             tol=1e-8)
        return program


#: the engine kinds BENCHMARK.json has a row for
DECLARED_ENGINES = ("reference", "fast", "compiled")


def engines(case: Case) -> dict:
    """Host microseconds per simulated event on every concrete engine
    found at run time, same solve, results required identical.  A
    declared kind that no longer exists reads 0, not a failure."""
    out = {f"hardware.engine_us_per_event.{k}": 0.0 for k in DECLARED_ENGINES}
    seen = set()
    for kind in (k for k in ENGINES if k != "default"):
        ms, (program, info) = _ms(
            lambda: case.solve(replace(case.config, engine=kind)), 3)
        events = program.machine.engine.events_processed
        out[f"hardware.engine_us_per_event.{kind}"] = ms * 1e3 / events
        seen.add((info.u.tobytes(), info.iterations, program.now, events))
    if len(seen) != 1:
        raise AssertionError("engines disagree on the same solve")
    return out


def builds(case: Case) -> dict:
    return {
        "hardware.machine_build_ms": _ms(lambda: Machine(case.config), 20)[0],
        "langvm.program_build_ms": _ms(lambda: Fem2Program(case.config), 20)[0],
    }


def ratios(case: Case) -> dict:
    """Cost of journaling and of the repo's own tracer, as ratios of the
    same solve without them (variants interleaved)."""
    plain, journaled, traced = [], [], []
    for _ in range(3):
        plain.append(_ms(case.solve, 1)[0])
        journaled.append(_ms(lambda: case.solve(journal=True), 1)[0])
        traced.append(_ms(lambda: case.solve(tracer=Tracer()), 1)[0])
    return {
        "sysvm.journal_overhead_ratio": min(journaled) / min(plain),
        "obs.tracer_overhead_ratio": min(traced) / min(plain),
    }


def fem(case: Case) -> dict:
    mesh, material = case.fem_args[:2]
    u = static_solve(*case.fem_args).u
    return {
        "fem.register_ms": _ms(case.registered, 5)[0],
        "fem.assemble_ms": _ms(lambda: assemble_stiffness(mesh, material), 5)[0],
        "fem.stress_ms": _ms(lambda: recover_stresses(mesh, material, u), 5)[0],
        "fem.oracle_ms": _ms(lambda: static_solve(*case.fem_args), 5)[0],
    }


def lint(case: Case) -> dict:
    program = case.registered()
    return {
        "lint.lint_program_ms": _ms(lambda: lint_program(program), 3)[0],
        "lint.flow_summary_ms": _ms(lambda: flow_summary(program), 3)[0],
        "lint.cost_report_ms": _ms(lambda: cost_report(program), 3)[0],
    }


def compile_(case: Case) -> dict:
    program = case.registered()
    ms, plan = _ms(program.compile_plan, 3)
    return {"compile.compile_plan_ms": ms,
            "compile.coverage": float(plan.coverage)}


def ckpt(case: Case) -> dict:
    """Snapshot, encode and decode a journaled program stopped halfway
    through the solve."""
    finished, _ = case.solve(journal=True)
    program = Fem2Program(case.config, journal=True)
    start_parallel_cg(program, *case.fem_args, n_workers=case.workers,
                      tol=1e-8)
    program.machine.engine.run(
        max_events=finished.machine.engine.events_processed // 2)
    snap_ms, state = _ms(program.snapshot, 5)
    enc_ms, blob = _ms(lambda: to_bytes(state), 5)
    dec_ms, _ = _ms(lambda: from_bytes(blob), 5)
    return {"ckpt.snapshot_ms": snap_ms, "ckpt.to_bytes_ms": enc_ms,
            "ckpt.from_bytes_ms": dec_ms, "ckpt.blob_bytes": len(blob)}


def campaign_fanout() -> dict:
    """One 48-point campaign serial and on two worker processes.  Kept
    out of the end-to-end set: child processes are invisible to the
    roll-up, and noisier."""
    points = ParamSpace(CAMPAIGN_AXES).expand()[:48]
    workers = min(2, os.cpu_count() or 1)

    def run(n):
        campaign = Campaign(ParamSpace.explicit(points), workers=n,
                            trace=False)
        return campaign.run().canonical_bytes()

    serial_ms, serial = _ms(lambda: run(0), 1)
    fanned_ms, fanned = _ms(lambda: run(workers), 1)
    return {"campaign.w2_speedup": serial_ms / fanned_ms,
            "campaign.w2_identical": float(serial == fanned),
            "campaign.report_bytes": len(serial)}


#: campaign_fanout's metrics where the workload runs no campaign
NO_CAMPAIGN = {"campaign.w2_speedup": 0.0, "campaign.w2_identical": 0.0,
               "campaign.report_bytes": 0}


def run_all(case: Case) -> dict:
    out = {}
    for probe in (engines, builds, ratios, fem, lint, compile_, ckpt):
        out.update(probe(case))
    return out
