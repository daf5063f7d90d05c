"""The five workloads.

Each is a closed loop with one client: the driver prepares batch *i*
(untimed — models, specs and points are the *inputs*), runs it (timed),
and keeps what came back for verification after timing stops.  Every
input is a pure function of ``(seed, workload, batch index)``, so a run
of any length sees a prefix of the same sequence.

Only the public, non-deprecated API is driven, with its defaults: no
``engine=`` argument, no ``MachineService``, no private attributes.

Batches come in *rounds*: a round holds every input class of the
workload once, in an order drawn from the seed, and the driver only
stops between rounds.  Batches of one class do the same amount of work
whatever the seed — the seed draws materials, loads, orders and the
axes that do not change the work — so that the fastest batch of a class
estimates what the class costs on an undisturbed host (see
``measure.py``), and the mix of classes a run has measured is the same
however fast the host.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.appvm import JobSpec, ServicePool, StructureModel, Tenant
from repro.campaign import Campaign, ParamSpace, RunOptions, build_model
from repro.fem import LoadSet, Material, parallel_cg_solve, rect_grid, static_solve
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program

from observe import direct

#: a solve whose displacements differ from the host oracle by more than
#: this (max-norm, relative) has failed
ACCURACY_LIMIT = 1e-6


def plate(name, nx, ny, rng):
    """A cantilever plate, fixed along x=0, with seed-drawn material and
    a downward tip load of seed-drawn size.  The load is uniform along
    the tip: a ragged one costs CG half as many iterations again, and
    the draw is meant to vary the numbers, not the amount of work."""
    model = StructureModel(name, material=Material(
        e=float(rng.uniform(60e9, 210e9)), nu=float(rng.uniform(0.25, 0.33)),
        thickness=0.01))
    model.set_mesh(rect_grid(nx, ny, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(model.mesh.nodes_on(x=2.0), 1,
                         -float(rng.uniform(0.5e4, 1.5e4)))
    model.load_sets["case"] = loads
    return model


def oracle(model):
    """Host-side reference displacements (sparse LU)."""
    return static_solve(model.require_mesh(), model.material,
                        model.require_constraints(), model.load_set("case"),
                        method="sparse_lu").u


def rel_err(u, ref):
    return float(np.abs(u - ref).max() / np.abs(ref).max())


class Verdict:
    """What verification found: ops attempted, ops that failed, and the
    worst relative error among the solves that were compared."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst_err = 0.0

    def op(self, ok: bool, err: float = 0.0) -> None:
        self.attempted += 1
        self.worst_err = max(self.worst_err, err)
        if not ok or not err <= ACCURACY_LIMIT:
            self.failed += 1


class Workload:
    """Base: seeded input streams and the round structure."""

    name = ""
    why = ""
    #: batches per round (one per input class)
    round_size = 1
    #: rounds a traced run makes per second of ``--seconds`` (fixed, so
    #: its counts repeat exactly); sized for ~8 s traced at 15 s
    trace_rounds_per_s = 1.0
    #: whether the campaign fan-out probe belongs to this workload
    runs_campaigns = False

    def __init__(self, seed: int, call=direct) -> None:
        self.seed = seed
        self.call = call
        self._orders = {}
        self._oracles = {}

    def rng(self, *key):
        return np.random.default_rng([self.seed, WORKLOADS.index(type(self)),
                                      *key])

    def slot(self, i):
        """Which input class batch *i* takes: rounds are seed-drawn
        permutations of the classes."""
        if self.round_size == 1:
            return 0
        rnd, pos = divmod(i, self.round_size)
        if rnd not in self._orders:
            self._orders[rnd] = self.rng(0, rnd).permutation(self.round_size)
        return int(self._orders[rnd][pos])

    def oracle(self, model):
        """Reference displacements, computed once per model."""
        if model.name not in self._oracles:
            self._oracles[model.name] = oracle(model)
        return self._oracles[model.name]

    # -- the interface the driver uses --------------------------------------

    def prepare(self, i):
        """Inputs of batch *i* (untimed)."""
        raise NotImplementedError

    def run(self, inputs):
        """One batch (timed); returns a record for :meth:`verify`."""
        raise NotImplementedError

    def verify(self, records, verdict: Verdict) -> None:
        """Check every record (after timing)."""
        raise NotImplementedError

    def iterations(self, records) -> int:
        """CG iterations summed over the records' solves (exact)."""
        raise NotImplementedError

    def probe_case(self):
        """``(model, workers, config)`` of the workload's median solve,
        for the per-layer probes."""
        raise NotImplementedError

    def pool_report(self):
        """``pool.report()`` of the workload's long-lived pool, if any."""
        return None


class SolveLarge(Workload):
    name = "solve_large"
    why = ("one solve on a fresh 4x5 machine: event dispatch, sysvm and "
           "coroutines do the work; lint, cost model, plan compile, pool "
           "and ckpt do none")
    MESHES = ((16, 8), (20, 10), (24, 12))
    WORKERS = (2, 4)
    CLASSES = tuple(itertools.product(MESHES, WORKERS))
    round_size = len(CLASSES)
    trace_rounds_per_s = 0.4

    def prepare(self, i):
        (nx, ny), workers = self.CLASSES[self.slot(i)]
        return plate(f"solve{i}", nx, ny, self.rng(1, i)), workers

    def run(self, inputs):
        model, workers = inputs
        program = self.call("langvm.program", Fem2Program, MachineConfig())
        info = self.call(
            "fem.solve", parallel_cg_solve, program, model.mesh,
            model.material, model.constraints, model.load_set("case"),
            n_workers=workers, tol=1e-8)
        return model, info

    def verify(self, records, verdict):
        for model, info in records:
            verdict.op(info.converged, rel_err(info.u, oracle(model)))

    def iterations(self, records):
        return sum(info.iterations for _, info in records)

    def probe_case(self):
        (nx, ny), workers = self.CLASSES[len(self.CLASSES) // 2]
        return plate("probe", nx, ny, self.rng(2)), workers, MachineConfig()


#: the four tenants of bench E15: unequal shares, one with a
#: concurrency quota that a 10-job burst overruns
STREAM_TENANTS = (
    Tenant("gold", share=4),
    Tenant("silver", share=2),
    Tenant("bronze", share=1),
    Tenant("capped", share=1, max_concurrent=8),
)


def _check_job(workload, handle, verdict, control=None):
    """One finished pool job against the oracle (and, when given, against
    an unpreempted control run: bit-identical or failed)."""
    if not handle.done:
        verdict.op(False)
        return
    result = handle.result()
    same = True
    if control is not None:
        same = (np.array_equal(result.u, control.u)
                and result.iterations == control.iterations
                and result.elapsed_cycles == control.elapsed_cycles)
    verdict.op(same, rel_err(result.u, workload.oracle(handle.spec.model)))


class PoolWorkload(Workload):
    """A workload whose batch records are lists of job handles."""

    #: the long-lived pool, for the workloads that keep one
    pool = None

    def fetch(self, handles):
        """The client reads every finished job's result."""
        for handle in handles:
            if handle.done:
                self.call("appvm.result", handle.result)
        return handles

    def iterations(self, records):
        return sum(handle.result().iterations
                   for handles in records for handle in handles if handle.done)

    def pool_report(self):
        return self.pool.report() if self.pool is not None else None


class ServiceStream(PoolWorkload):
    name = "service_stream"
    why = ("a long-lived 6-machine pool fed 40-job waves of tiny plates: "
           "admission, warm cost cache, stride dispatch, a fresh program "
           "per job, journaling, quota rejections; simulation is small")
    MODELS_PER_TENANT = 5
    COPIES = 2      # each model twice a wave: 10 jobs per tenant
    trace_rounds_per_s = 1.6

    def __init__(self, seed, call=direct):
        super().__init__(seed, call)
        self.pool = ServicePool(n_machines=6, tenants=STREAM_TENANTS,
                                quantum=2000)
        rng = self.rng(2)
        # a small catalogue per tenant, so the pool's cost cache is warm
        # after the first wave, as it is for a tenant resubmitting models
        self.catalogue = {
            t.name: [
                JobSpec(user=f"{t.name}_user",
                        model=plate(f"{t.name}_plate{k}", 2 + k % 2, 1, rng),
                        load_set="case", workers=1, tenant=t.name)
                for k in range(self.MODELS_PER_TENANT)]
            for t in STREAM_TENANTS}

    def prepare(self, i):
        # every wave is the whole catalogue COPIES times over, in an
        # order drawn from the seed
        wave = [spec for specs in self.catalogue.values()
                for spec in specs] * self.COPIES
        return [wave[j] for j in self.rng(1, i).permutation(len(wave))]

    def run(self, inputs):
        pool = self.pool
        handles = [self.call("appvm.submit", pool.submit, spec)
                   for spec in inputs]
        self.call("appvm.drain", pool.run)
        return self.fetch(handles)

    def verify(self, records, verdict):
        for handle in itertools.chain.from_iterable(records):
            if handle.reason is not None:
                # only the capped tenant may be refused, and only for
                # its concurrency quota; a refusal is not an op
                if not (handle.spec.tenant == "capped"
                        and "concurrency quota" in handle.reason):
                    verdict.op(False)
                continue
            _check_job(self, handle, verdict)
        stats = self.pool.report()["stats"]
        if stats["completed"] + stats["rejected"] != len(self.pool.handles):
            verdict.op(False)

    def probe_case(self):
        spec = self.catalogue["gold"][0]
        return spec.model, spec.workers, self.pool.config


class PreemptChurn(PoolWorkload):
    name = "preempt_churn"
    why = ("the same pool used the other way: every batch forces a "
           "checkpoint, eviction and journal-replay restore, so a "
           "service_stream gain bought from journaling or ckpt shows here")
    trace_rounds_per_s = 9.0

    def __init__(self, seed, call=direct):
        super().__init__(seed, call)
        self.tenants = (Tenant("batch"), Tenant("urgent"))
        self.pool = ServicePool(n_machines=2, tenants=self.tenants,
                                quantum=500)
        rng = self.rng(2)
        self.low = [JobSpec(user="low", model=plate(f"low{k}", 4, 2, rng),
                            load_set="case", tenant="batch")
                    for k in range(4)]
        self.rush = [JobSpec(user="high", model=plate(f"rush{k}", 2, 1, rng),
                             load_set="case", tenant="urgent", priority=5)
                     for k in range(2)]

    def prepare(self, i):
        a, b, c = self.rng(1, i).integers((len(self.low), len(self.low),
                                           len(self.rush)))
        return self.low[a], self.low[b], self.rush[c]

    def run(self, inputs):
        low_a, low_b, rush = inputs
        pool = self.pool
        handles = [self.call("appvm.submit", pool.submit, low_a),
                   self.call("appvm.submit", pool.submit, low_b)]
        self.call("appvm.advance", pool.advance, 1500)  # work worth losing
        handles.append(self.call("appvm.preempt_submit", pool.submit, rush))
        self.call("appvm.drain", pool.run)
        return self.fetch(handles)

    def verify(self, records, verdict):
        # unpreempted controls: each distinct spec alone on an idle pool
        control_pool = ServicePool(n_machines=1, tenants=self.tenants,
                                   quantum=500)
        controls = {}
        for spec in self.low + self.rush:
            handle = control_pool.submit(spec)
            control_pool.run()
            controls[spec.model.name] = handle.result()
        for handles in records:
            if not any(h.preemptions for h in handles):
                verdict.op(False)   # the batch did not preempt anything
            for handle in handles:
                _check_job(self, handle, verdict,
                           controls[handle.spec.model.name])

    def probe_case(self):
        spec = self.low[0]
        return spec.model, spec.workers, self.pool.config


#: the machine/mesh grid of bench E16 (64 points)
CAMPAIGN_AXES = {
    "nx": [2, 3, 4, 5],
    "hop_latency": [5, 10, 20, 40],
    "n_clusters": [2, 4],
    "workers": [1, 2],
}


class CampaignCold(Workload):
    name = "campaign_cold"
    why = ("serial in-process campaigns of 8 points, a fresh service per "
           "point: cost model, plan compile/cache and report building "
           "weigh more than simulation")
    trace_rounds_per_s = 1.2
    runs_campaigns = True

    def prepare(self, i):
        # one point per (nx, workers), which fix the work; the machine
        # axes, which do not, are drawn from the seed
        rng = self.rng(1, i)
        return [{"nx": nx, "workers": workers,
                 "hop_latency": int(rng.choice(CAMPAIGN_AXES["hop_latency"])),
                 "n_clusters": int(rng.choice(CAMPAIGN_AXES["n_clusters"]))}
                for nx in CAMPAIGN_AXES["nx"]
                for workers in CAMPAIGN_AXES["workers"]]

    def campaign(self, points):
        return Campaign(ParamSpace.explicit(points), workers=0, trace=False)

    def run(self, inputs):
        return inputs, self.call("campaign.run", self.campaign(inputs).run)

    def verify(self, records, verdict):
        refs = {}   # the grid's meshes differ in nx only
        for n, (points, report) in enumerate(records):
            # a repeat of the same points must give the same bytes
            # (every tenth campaign is repeated)
            repeatable = True
            if n % 10 == 0:
                again = self.campaign(points).run()
                repeatable = (again.canonical_bytes()
                              == report.canonical_bytes())
            for point, record in zip(points, report.points):
                nx = point["nx"]
                if nx not in refs:
                    model = build_model(point, RunOptions())
                    refs[nx] = float(np.abs(oracle(model)).max())
                got = record["result"]["max_displacement"]
                verdict.op(repeatable and record["point"] == point,
                           abs(got - refs[nx]) / refs[nx])

    def iterations(self, records):
        return sum(p["result"]["iterations"]
                   for _, report in records for p in report.points)

    def probe_case(self):
        point = {"nx": 4, "workers": 2}
        config = MachineConfig(**self.campaign([point]).base_config)
        return build_model(point, RunOptions()), point["workers"], config


class GateCold(PoolWorkload):
    name = "gate_cold"
    why = ("cold submit: a fresh one-machine pool and lint='error' per "
           "job, so lint, flow summary and cost report miss their caches "
           "every time and static analysis outweighs simulation")
    CLASSES = tuple(itertools.product((4, 6, 8), (1, 2, 4)))
    round_size = len(CLASSES)
    trace_rounds_per_s = 1.6

    def prepare(self, i):
        nx, workers = self.CLASSES[self.slot(i)]
        model = plate(f"gate{i}", nx, nx // 2, self.rng(1, i))
        return JobSpec(user="cold", model=model, load_set="case",
                       workers=workers, lint="error")

    def run(self, inputs):
        pool = self.call("appvm.pool", ServicePool, n_machines=1)
        handle = self.call("appvm.submit", pool.submit, inputs)
        self.call("appvm.drain", pool.run)
        return self.fetch([handle])

    def verify(self, records, verdict):
        for (handle,) in records:
            _check_job(self, handle, verdict)

    def probe_case(self):
        nx, workers = self.CLASSES[len(self.CLASSES) // 2]
        model = plate("probe", nx, nx // 2, self.rng(2))
        return model, workers, ServicePool(n_machines=1).config


WORKLOADS = (SolveLarge, ServiceStream, PreemptChurn, CampaignCold, GateCold)
BY_NAME = {w.name: w for w in WORKLOADS}
