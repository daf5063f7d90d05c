"""Tests for repro.appvm.scheduler: the multi-tenant sharded job
service — admission quotas, fair-share dispatch, and checkpoint-based
preemption with bit-identical resume."""

import gc
import weakref

import numpy as np
import pytest

from repro.appvm import (
    JobSpec,
    JobState,
    MachineService,
    ServicePool,
    StructureModel,
    Tenant,
)
from repro.appvm.scheduler import fairness_index, jain_index
from repro.errors import AppVMError
from repro.fem import LoadSet, Material, rect_grid, static_solve
from repro.hardware import MachineConfig
from repro.obs import Tracer


def make_model(name, nx=3, ny=2, load=-1e4):
    model = StructureModel(name, material=Material(e=70e9, nu=0.3,
                                                   thickness=0.01))
    model.set_mesh(rect_grid(nx, ny, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    ls = LoadSet("case")
    ls.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, load)
    model.load_sets["case"] = ls
    return model


def small_config():
    return MachineConfig(n_clusters=2, pes_per_cluster=3,
                         memory_words_per_cluster=8_000_000)


def spec_for(user, model, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("tol", 1e-6)
    return JobSpec(user=user, model=model, load_set="case", **kw)


class TestAdmissionQuotas:
    def test_concurrency_quota_rejects_then_readmits(self):
        pool = ServicePool(n_machines=1, config=small_config(),
                           tenants=[Tenant("acme", max_concurrent=2)])
        h1 = pool.submit(spec_for("a", make_model("m1"), tenant="acme"))
        h2 = pool.submit(spec_for("b", make_model("m2"), tenant="acme"))
        h3 = pool.submit(spec_for("c", make_model("m3"), tenant="acme"))
        assert h1.state is not JobState.REJECTED
        assert h2.state is not JobState.REJECTED
        assert h3.state is JobState.REJECTED
        assert "concurrency quota" in h3.reason
        with pytest.raises(AppVMError, match="rejected"):
            h3.result()
        pool.run()
        assert h1.done and h2.done
        # quota freed by completion: the tenant may submit again
        h4 = pool.submit(spec_for("d", make_model("m4"), tenant="acme"))
        assert h4.state is not JobState.REJECTED
        pool.run()
        assert h4.done

    def test_cycle_window_quota(self):
        pool = ServicePool(
            n_machines=1, config=small_config(),
            tenants=[Tenant("greedy", max_cycles_per_window=1000,
                            window_cycles=10**12)],
        )
        h1 = pool.submit(spec_for("a", make_model("m1"), tenant="greedy"))
        pool.run()
        assert h1.done
        assert pool.tenants.get("greedy").window_used > 1000
        h2 = pool.submit(spec_for("b", make_model("m2"), tenant="greedy"))
        assert h2.state is JobState.REJECTED
        assert "cycle quota" in h2.reason
        # an unthrottled tenant is unaffected
        h3 = pool.submit(spec_for("c", make_model("m3"), tenant="other"))
        assert h3.state is not JobState.REJECTED

    def test_rejection_leaves_no_queue_trace(self):
        pool = ServicePool(n_machines=1, config=small_config(),
                           tenants=[Tenant("t", max_concurrent=1)])
        pool.submit(spec_for("a", make_model("m1"), tenant="t"))
        before = pool.pending_count
        rejected = pool.submit(spec_for("b", make_model("m2"), tenant="t"))
        assert rejected.state.terminal
        assert pool.pending_count == before
        assert pool.stats["rejected"] == 1


class TestCostAdmission:
    def window_pool(self, cap):
        return ServicePool(
            n_machines=1, config=small_config(),
            tenants=[Tenant("capped", max_cycles_per_window=cap,
                            window_cycles=10**12)],
        )

    def test_declared_cost_that_cannot_fit_rejects(self):
        pool = self.window_pool(5000)
        h = pool.submit(spec_for("a", make_model("m1"), tenant="capped",
                                 cost_units=6000))
        assert h.state is JobState.REJECTED
        assert "cannot fit a job costing 6000" in h.reason
        h2 = pool.submit(spec_for("b", make_model("m2"), tenant="capped",
                                  cost_units=4000))
        assert h2.state is not JobState.REJECTED
        pool.run()
        assert h2.done

    def test_predicted_cost_gates_admission_when_undeclared(self):
        probe = ServicePool(n_machines=1, config=small_config())
        spec = spec_for("a", make_model("m1"))
        predicted = probe._predicted_cost_units(spec)
        assert predicted > 1  # the job provably consumes real cycles

        pool = self.window_pool(predicted - 1)
        h = pool.submit(spec_for("a", make_model("m1"), tenant="capped"))
        assert h.state is JobState.REJECTED
        assert "cannot fit" in h.reason

        roomy = self.window_pool(10**9)
        h2 = roomy.submit(spec_for("a", make_model("m1"), tenant="capped"))
        assert h2.state is not JobState.REJECTED
        roomy.run()
        assert h2.done
        # the run costs at least what the model guaranteed
        assert roomy.tenants.get("capped").consumed >= predicted

    def test_predicted_cost_is_cached_per_solve_shape(self):
        pool = ServicePool(n_machines=1, config=small_config())
        spec = spec_for("a", make_model("m1"))
        first = pool._predicted_cost_units(spec)
        assert pool._predicted_cost_units(spec) == first
        assert len(pool._cost_cache) == 1

    def test_declared_below_predicted_bound_is_lint_checked(self):
        pool = ServicePool(n_machines=1, config=small_config())
        model = make_model("m1")
        predicted = pool._predicted_cost_units(spec_for("a", model))
        assert predicted > 1
        with pytest.raises(AppVMError, match="below the predicted"):
            pool.submit(spec_for("a", model, cost_units=predicted - 1,
                                 lint="error"))
        with pytest.warns(UserWarning, match="below the predicted"):
            h = pool.submit(spec_for("a", model, cost_units=predicted - 1,
                                     lint="warn"))
        assert h.state is not JobState.REJECTED
        # a plausible declaration passes the check silently
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            pool.submit(spec_for("b", make_model("m2"),
                                 cost_units=predicted + 10**6, lint="warn"))
        pool.run()

    def test_lint_gate_caches_cost_report(self):
        """The gate's reports are views of the process-wide analysis
        store: a second fresh pool holding the same task set is served
        the first one's analysis, and clearing the store only costs a
        re-analysis with the same answer."""
        from repro.lint import CostReport, cost_report, flow_summary, store
        from repro.lint.flow import FlowSummary
        store.clear()
        pools = [ServicePool(n_machines=1, config=small_config())
                 for _ in range(2)]
        for pool in pools:
            pool.submit(spec_for("a", make_model("m1"), lint="warn"))
        first, second = (pool.machines[0].program for pool in pools)
        assert first.runtime.registry.types() == ("fem.cg_worker.j1",
                                                  "fem.cg_root.j1")
        cost, flow = cost_report(first), flow_summary(first)
        assert isinstance(cost, CostReport)
        assert isinstance(flow, FlowSummary)
        assert cost_report(second) is cost
        assert flow_summary(second) is flow
        store.clear()
        again = cost_report(second)
        assert again is not cost
        assert again.to_record() == cost.to_record()
        for pool in pools:
            pool.run()

    def test_bad_cost_units_rejected_at_spec(self):
        with pytest.raises(AppVMError, match="cost_units"):
            JobSpec(user="a", model=make_model("m"), load_set="case",
                    cost_units=0)


class TestLifecycle:
    def test_states_through_contention(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=2000)
        first = pool.submit(spec_for("a", make_model("m1")))
        second = pool.submit(spec_for("b", make_model("m2")))
        assert first.state is JobState.RUNNING
        assert second.state is JobState.ADMITTED  # machine full: queued
        pool.run()
        assert first.state is JobState.DONE
        assert second.state is JobState.DONE
        assert second.queue_wait > 0
        assert second.dispatch_time > second.submit_time

    def test_results_match_host_oracle(self):
        pool = ServicePool(n_machines=2, config=small_config())
        models = {u: make_model(f"m_{u}", load=-1e4 * (i + 1))
                  for i, u in enumerate(("alice", "bob", "carol"))}
        handles = {u: pool.submit(spec_for(u, m)) for u, m in models.items()}
        pool.run()
        for user, model in models.items():
            ref = static_solve(model.mesh, model.material, model.constraints,
                               model.load_sets["case"])
            got = handles[user].result()
            assert np.allclose(got.u, ref.u, atol=1e-4 * abs(ref.u).max())

    def test_advance_moves_clock_through_idle(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=500)
        pool.advance(10_000)
        assert pool.now == 10_000


class TestFairShare:
    def test_unequal_shares_get_proportional_cycles(self):
        """Under sustained contention, consumed cycles per share unit
        converge across tenants (measured mid-run, while both tenants
        still have work queued)."""
        pool = ServicePool(
            n_machines=2, config=small_config(), quantum=1000,
            tenants=[Tenant("gold", share=3), Tenant("bronze", share=1)],
        )
        for i in range(10):
            pool.submit(spec_for(f"g{i}", make_model(f"gm{i}"), tenant="gold"))
            pool.submit(spec_for(f"b{i}", make_model(f"bm{i}"), tenant="bronze"))
        gold = pool.tenants.get("gold")
        bronze = pool.tenants.get("bronze")
        # measure after several job generations but before contention ends
        while pool.queue and gold.jobs_done + bronze.jobs_done < 10:
            pool.advance(pool.quantum)
        assert pool.queue, "contention ended before the measurement window"
        # share-normalized consumption within tolerance of proportional;
        # exactness is impossible with whole jobs as the allocation unit
        assert fairness_index(pool.tenants) > 0.6
        assert gold.consumed > 2 * bronze.consumed
        assert gold.jobs_done >= 2 * bronze.jobs_done
        assert 0.9 < jain_index(pool.tenants) <= 1.0
        pool.run()
        assert all(h.done for h in pool.handles)
        report = pool.report()
        assert report["stats"]["completed"] == 20
        assert report["tenants"]["gold"]["share"] == 3

    def test_equal_shares_interleave(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=1000,
                           tenants=[Tenant("t1"), Tenant("t2")])
        order = []
        for i in range(3):
            for t in ("t1", "t2"):
                h = pool.submit(spec_for(f"{t}_u{i}",
                                         make_model(f"{t}_m{i}"), tenant=t))
                order.append(h)
        pool.run()
        finish = sorted(pool.handles, key=lambda h: h.finish_time)
        tenants = [h.spec.tenant for h in finish]
        # never three consecutive completions from one tenant
        for i in range(len(tenants) - 2):
            assert len(set(tenants[i:i + 3])) > 1


class TestPreemption:
    def make_pool(self, tracer=None):
        return ServicePool(
            n_machines=1, config=small_config(), quantum=500, tracer=tracer,
            tenants=[Tenant("batch"), Tenant("urgent")],
        )

    def run_with_preemption(self, tracer=None):
        pool = self.make_pool(tracer=tracer)
        low = pool.submit(spec_for("low", make_model("shared", nx=4),
                                   tenant="batch", priority=0))
        pool.advance(1500)  # the low job makes real progress
        assert low.state is JobState.RUNNING
        high = pool.submit(spec_for("high", make_model("rush"),
                                    tenant="urgent", priority=5))
        assert low.state is JobState.PREEMPTED
        assert low.preemptions == 1
        assert high.state is JobState.RUNNING
        pool.run()
        assert low.done and high.done
        return pool, low, high

    def test_preempt_then_resume_bit_identical(self):
        pool, low, high = self.run_with_preemption()
        assert pool.stats["preemptions"] == 1
        assert pool.stats["resumes"] == 1

        # control: the same job, never preempted
        control_pool = ServicePool(n_machines=1, config=small_config(),
                                   quantum=500)
        control = control_pool.submit(
            spec_for("low", make_model("shared", nx=4), tenant="batch"))
        control_pool.run()

        a, b = low.result(), control.result()
        assert np.array_equal(a.u, b.u)
        assert set(a.stresses) == set(b.stresses)
        for etype in a.stresses:
            assert np.array_equal(a.stresses[etype], b.stresses[etype])
        assert a.iterations == b.iterations
        assert a.elapsed_cycles == b.elapsed_cycles

    def test_lower_priority_never_preempts(self):
        pool = self.make_pool()
        first = pool.submit(spec_for("a", make_model("m1"),
                                     tenant="batch", priority=5))
        pool.advance(1000)
        second = pool.submit(spec_for("b", make_model("m2"),
                                      tenant="urgent", priority=5))
        # equal priority: no preemption, the newcomer queues
        assert first.state is JobState.RUNNING
        assert second.state is JobState.ADMITTED
        assert pool.stats["preemptions"] == 0
        pool.run()

    def test_no_preemption_without_checkpointing(self):
        pool = ServicePool(n_machines=1, config=small_config(), quantum=500,
                           checkpointing=False)
        pool.submit(spec_for("a", make_model("m1")))
        pool.advance(1000)
        urgent = pool.submit(spec_for("b", make_model("m2"), priority=9))
        assert urgent.state is JobState.ADMITTED
        assert pool.stats["preemptions"] == 0
        pool.run()
        assert urgent.done

    def test_sched_spans_tell_the_story(self):
        tracer = Tracer()
        pool, low, high = self.run_with_preemption(tracer=tracer)
        # the low job waited twice (initial + after preemption)
        queue_spans = tracer.spans("sched.queue")
        assert len(queue_spans) == 3
        assert all(not s.open for s in queue_spans)
        # fresh placements dispatch; the post-preemption one resumes
        assert len(tracer.spans("sched.dispatch")) == 2
        (preempt,) = tracer.spans("sched.preempt")
        assert preempt.attrs["bytes"] > 0
        (resume,) = tracer.spans("sched.resume")
        assert resume.t0 >= preempt.t0


class TestCheckpointScope:
    def test_handle_checkpoint_is_machine_scoped(self):
        """JobHandle.checkpoint() captures the job's machine; a resumed
        service completes exactly that machine's jobs (satellite of the
        per-job/machine checkpoint scoping)."""
        pool = ServicePool(n_machines=2, config=small_config(), quantum=1000)
        h1 = pool.submit(spec_for("alice", make_model("a", nx=4)))
        h2 = pool.submit(spec_for("bob", make_model("b")))
        assert h1.machine is not h2.machine
        blob = h1.checkpoint()

        pool.run()
        resumed = MachineService.resume(blob)
        assert resumed.pending_count == 1  # only alice's machine was captured
        (r1,) = resumed.run()
        assert r1.spec.user == "alice"
        assert np.array_equal(r1.result().u, h1.result().u)

    def test_detached_job_cannot_checkpoint(self):
        pool = ServicePool(n_machines=1, config=small_config())
        handle = pool.submit(spec_for("a", make_model("m")))
        pool.run()
        with pytest.raises(AppVMError, match="not resident"):
            handle.checkpoint()

    @pytest.mark.parametrize("service", [
        lambda: ServicePool(n_machines=1, config=small_config()),
        lambda: MachineService(small_config()),
    ], ids=["pool", "machine_service"])
    def test_finished_handle_does_not_keep_its_service_alive(self, service):
        """A DONE handle is a result: keeping it must not pin the pool,
        its machines and their finished programs."""
        svc = service()
        handle = svc.submit(spec_for("a", make_model("m")))
        svc.run()
        gone = weakref.ref(svc)
        del svc
        gc.collect()
        assert gone() is None
        assert handle.result().max_displacement() > 0
        with pytest.raises(
                AppVMError,
                match=r"is not resident on a machine \(state=done\)"):
            handle.checkpoint()

    def test_rejected_handle_does_not_keep_its_pool_alive(self):
        pool = ServicePool(n_machines=1, config=small_config(),
                           tenants=[Tenant("t", max_concurrent=1)])
        pool.submit(spec_for("a", make_model("m1"), tenant="t"))
        rejected = pool.submit(spec_for("b", make_model("m2"), tenant="t"))
        assert rejected.state is JobState.REJECTED
        pool.handles.clear()
        gone = weakref.ref(pool)
        del pool
        gc.collect()
        assert gone() is None
        with pytest.raises(
                AppVMError,
                match=r"is not resident on a machine \(state=rejected\)"):
            rejected.checkpoint()


class TestMachineAccounting:
    @pytest.mark.xfail(strict=True, reason=(
        "PoolMachine.busy_cycles double counts: collect_finished adds "
        "program.now when the machine's last job resolves and the next "
        "placement's reset() adds the same program.now again.  The fix "
        "moves appvm.pool.utilization in the host benchmark's expected "
        "numbers and the E15 tables (ROADMAP item 7a)."))
    def test_busy_cycles_are_the_cycles_resident_jobs_ran(self):
        pool = ServicePool(n_machines=1, config=small_config())
        handles = [pool.submit(spec_for(f"u{i}", make_model(f"m{i}")))
                   for i in range(3)]
        pool.run()
        (machine,) = pool.machines
        assert machine.busy_cycles == sum(
            h.result().elapsed_cycles for h in handles)


class TestPoolValidation:
    def test_bad_geometry_rejected(self):
        with pytest.raises(AppVMError):
            ServicePool(n_machines=0)
        with pytest.raises(AppVMError):
            ServicePool(quantum=0)
        with pytest.raises(AppVMError):
            Tenant("t", share=0)

    def test_single_machine_options_are_gone(self):
        """The pool has one mode: the switches that made it double as
        MachineService (PR 13) are removed, not defaulted."""
        with pytest.raises(TypeError):
            ServicePool(persistent=True)
        with pytest.raises(TypeError):
            ServicePool(machine_slots=None)
        with pytest.raises(AppVMError, match="quantum"):
            ServicePool(quantum=None)
        assert not hasattr(ServicePool, "completed_batches")
        assert not hasattr(ServicePool, "preemption_enabled")

    def test_submit_requires_jobspec(self):
        pool = ServicePool(n_machines=1, config=small_config())
        with pytest.raises(AppVMError, match="JobSpec"):
            pool.submit("alice")
