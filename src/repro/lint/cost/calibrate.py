"""Trace-validated calibration of the static cost model.

The interval bounds of :mod:`repro.lint.cost` are only worth trusting
if real executions land inside them.  This harness replays a built
(and already run) program's measurements against its own cost report:

* **predicted** — :func:`build_cost_report` over the program's
  registered task set, evaluated under the machine config's ``cfg.*``
  bindings plus caller-supplied :data:`BindingRule` values for the
  program-shaped parameters (``loop:root:subs = 4``, ...).  Every free
  parameter must be bound — an unbound parameter raises
  :class:`CalibrationError` rather than silently defaulting, because a
  defaulted bound validates nothing.
* **observed** — the machine's :class:`~repro.hardware.metrics`
  registry after the run: ``proc.cycles`` (bursts + kernel decode +
  dispatch), ``comm.messages.<kind>`` per kind, and the summed
  per-cluster ``mem.hwm.arrays.*`` high-water marks.  The sum of
  per-cluster peaks upper-bounds the true global peak and is itself
  bounded by total words allocated, so it sits inside the predicted
  interval whenever the model is sound.

Each comparison is a :class:`BoundCheck` — observed value, predicted
``[lo, hi]``, and the *tightness* ratio ``hi / observed`` that the
LINT-COST bench row records.  A violation (observed outside the
interval) means a model soundness bug, not a program bug: the
acceptance gate asserts zero violations on the E-bench programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from .model import MESSAGE_KINDS
from .report import CostReport, build_cost_report, machine_env

#: (kind, task glob, name or None, value) — binds cost parameters
#: ``kind:task:name``.  Rules are tried in order; the first match wins,
#: so list specific rules before catch-alls.  ``name=None`` matches any
#: name of that kind/task.
BindingRule = Tuple[str, str, Optional[str], float]

#: relative tolerance for the lower/upper containment test (floating
#: evaluation of integer-coefficient polynomials stays well inside it)
_EPS = 1e-9


class CalibrationError(ValueError):
    """A cost parameter the rules leave unbound (or a bad rule)."""


def bind_params(params: Sequence[str], rules: Sequence[BindingRule],
                base: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
    """An evaluation env binding every parameter in *params*.

    ``cfg.*`` parameters come from *base* (see
    :func:`~repro.lint.cost.report.machine_env`); everything else must
    match a rule.  Raises :class:`CalibrationError` on any leftover.
    """
    env: Dict[str, float] = dict(base or {})
    unbound: List[str] = []
    for param in params:
        if param in env:
            continue
        if param.startswith("cfg."):
            unbound.append(param)
            continue
        kind, task, name = param.split(":", 2)
        for rkind, rtask, rname, value in rules:
            if rkind != kind:
                continue
            if not fnmatchcase(task, rtask):
                continue
            if rname is not None and rname != name:
                continue
            env[param] = float(value)
            break
        else:
            unbound.append(param)
    if unbound:
        raise CalibrationError(
            f"unbound cost parameter(s): {', '.join(sorted(unbound))} — "
            f"add a (kind, task_glob, name, value) binding rule"
        )
    return env


def observed_costs(metrics: Any) -> Dict[str, Any]:
    """The run's measured quantities, keyed like the predicted totals."""
    return {
        "cycles": float(metrics.get("proc.cycles", 0)),
        "messages": {k: float(v)
                     for k, v in metrics.by_prefix("comm.messages.").items()},
        "alloc_peak": float(
            sum(metrics.by_prefix("mem.hwm.arrays.").values())),
    }


@dataclass
class BoundCheck:
    """One observed value against its predicted interval."""

    metric: str
    observed: float
    lo: float
    hi: Optional[float]  # None: statically unbounded above

    @property
    def ok(self) -> bool:
        if self.observed < self.lo - _EPS - _EPS * abs(self.lo):
            return False
        if self.hi is None:
            return True
        return self.observed <= self.hi + _EPS + _EPS * abs(self.hi)

    @property
    def tightness(self) -> Optional[float]:
        """``hi / observed`` — how loose the upper bound is.  None when
        unbounded or when nothing was observed (0 = 0 is exact but the
        ratio is undefined)."""
        if self.hi is None or self.observed <= 0:
            return None
        return self.hi / self.observed

    def to_record(self) -> Dict[str, Any]:
        return {"metric": self.metric, "observed": self.observed,
                "lo": self.lo, "hi": self.hi, "ok": self.ok,
                "tightness": self.tightness}

    def render(self) -> str:
        hi = "unbounded" if self.hi is None else f"{self.hi:g}"
        mark = "ok" if self.ok else "VIOLATION"
        tight = (f" ({self.tightness:.2f}x)"
                 if self.tightness is not None else "")
        return (f"  {self.metric:<28} {self.observed:>12g} in "
                f"[{self.lo:g}, {hi}] {mark}{tight}")


@dataclass
class CalibrationResult:
    """All bound checks of one replay, plus the report they came from."""

    checks: List[BoundCheck]
    report: CostReport
    env: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violations(self) -> List[BoundCheck]:
        return [c for c in self.checks if not c.ok]

    #: the program-level quantities the headline tightness summarises;
    #: per-kind message checks still assert containment but a kind the
    #: kernel batches (``initiate_task`` pairs per cluster) would skew
    #: the headline without saying anything about total predicted work
    AGGREGATES = ("cycles", "messages.total", "alloc_peak")

    @property
    def tightness(self) -> Optional[float]:
        """The loosest defined upper bound across the aggregate checks
        — the single number the LINT-COST bench row records per
        workload."""
        ratios = [c.tightness for c in self.checks
                  if c.metric in self.AGGREGATES
                  and c.tightness is not None]
        if not ratios:
            ratios = [c.tightness for c in self.checks
                      if c.tightness is not None]
        return max(ratios) if ratios else None

    def check(self, metric: str) -> Optional[BoundCheck]:
        for c in self.checks:
            if c.metric == metric:
                return c
        return None

    def to_record(self) -> Dict[str, Any]:
        return {
            "schema": "fem2-cost-calibration/1",
            "ok": self.ok,
            "tightness": self.tightness,
            "checks": [c.to_record() for c in self.checks],
            "env": {k: v for k, v in sorted(self.env.items())},
        }

    def render(self) -> str:
        lines = [f"calibration: {len(self.checks)} check(s), "
                 f"{len(self.violations)} violation(s)"
                 + (f", tightness {self.tightness:.2f}x"
                    if self.tightness is not None else "")]
        lines.extend(c.render() for c in self.checks)
        return "\n".join(lines)


def compare(report: CostReport, observed: Mapping[str, Any],
            env: Mapping[str, float]) -> CalibrationResult:
    """Check *observed* quantities against *report* evaluated under
    *env* (every report parameter must be bound — see
    :func:`bind_params`)."""
    checks: List[BoundCheck] = []

    lo, hi = report.cycles.evaluate(env)
    checks.append(BoundCheck("cycles", observed["cycles"], lo, hi))

    obs_msgs: Dict[str, float] = dict(observed.get("messages", {}))
    kinds: Set[str] = set(MESSAGE_KINDS) | set(obs_msgs)
    total_obs = 0.0
    total_lo, total_hi = 0.0, 0.0
    for kind in sorted(kinds):
        iv = report.messages.get(kind)
        if iv is None:
            # a kind the model does not know about: predicted zero, so
            # any observed traffic is a (loud) model gap
            klo, khi = 0.0, 0.0
        else:
            klo, khi = iv.evaluate(env)
        got = obs_msgs.get(kind, 0.0)
        if got == 0.0 and klo == 0.0 and (khi == 0.0):
            continue  # nothing predicted, nothing seen
        checks.append(BoundCheck(f"messages.{kind}", got, klo, khi))
        total_obs += got
        total_lo += klo
        total_hi = (None if total_hi is None or khi is None
                    else total_hi + khi)
    checks.append(BoundCheck("messages.total", total_obs,
                             total_lo, total_hi))

    lo, hi = report.alloc_peak.evaluate(env)
    checks.append(BoundCheck("alloc_peak",
                             observed.get("alloc_peak", 0.0), lo, hi))

    return CalibrationResult(checks=checks, report=report, env=dict(env))


def calibrate(program: Any, rules: Sequence[BindingRule] = (),
              entries: Optional[Sequence[str]] = None,
              report: Optional[CostReport] = None) -> CalibrationResult:
    """Validate the cost model against one already-run program.

    Builds the program's cost report from its registered task set
    (unless a prebuilt *report* is passed), binds every free parameter
    from the machine config and *rules*, and checks the run's metrics
    against the predicted intervals.
    """
    if report is None:
        from ..store import program_analysis
        analysis = program_analysis(program)
        if program.runtime.registry.types() and not analysis.tasks:
            raise CalibrationError(
                "no registered task body's source could be recovered "
                "(REPL/stdin-defined tasks?) — the report would predict "
                "zero everywhere; build one from collect_tasks and pass "
                "it as report=")
        report = (analysis.cost if entries is None
                  else build_cost_report(analysis.costs, entries=entries))
    env = bind_params(report.params, rules,
                      machine_env(program.machine.config))
    return compare(report, observed_costs(program.metrics), env)
