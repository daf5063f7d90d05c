"""Tests for the multi-user machine service: concurrent jobs on one
simulated FEM-2, submitted through the JobSpec front door."""

import numpy as np
import pytest

import repro.appvm as appvm
from repro.errors import AppVMError
from repro.appvm import JobSpec, JobState, MachineService, StructureModel
from repro.fem import LoadSet, Material, rect_grid, static_solve
from repro.hardware import MachineConfig


def make_model(name, nx=5, ny=2, load=-1e4):
    model = StructureModel(name, material=Material(e=70e9, nu=0.3, thickness=0.01))
    model.set_mesh(rect_grid(nx, ny, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    ls = LoadSet("case")
    ls.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, load)
    model.load_sets["case"] = ls
    return model


def make_service():
    return MachineService(
        MachineConfig(n_clusters=4, pes_per_cluster=5,
                      memory_words_per_cluster=16_000_000)
    )


def spec_for(user, model, **kw):
    return JobSpec(user=user, model=model, load_set="case", **kw)


class TestMachineService:
    def test_concurrent_jobs_all_correct(self):
        service = make_service()
        models = {u: make_model(f"{u}_m", load=-1e4 * (i + 1))
                  for i, u in enumerate(("alice", "bob", "carol"))}
        handles = {u: service.submit(spec_for(u, m))
                   for u, m in models.items()}
        assert len(service.machine.jobs) == 3
        service.run()
        for user, model in models.items():
            ref = static_solve(model.mesh, model.material, model.constraints,
                               model.load_sets["case"])
            got = handles[user].result()
            assert np.allclose(got.u, ref.u, atol=1e-6 * abs(ref.u).max())
            assert got.elapsed_cycles > 0
        assert not service.machine.jobs
        assert service.completed_batches == 1

    def test_concurrency_beats_serial(self):
        """Three jobs on one machine overlap: faster than 3x one job."""

        def batch_cycles(n_jobs):
            service = make_service()
            for i in range(n_jobs):
                service.submit(spec_for(f"u{i}", make_model(f"m{i}")))
            service.run()
            return service.program.now

        one = batch_cycles(1)
        three = batch_cycles(3)
        assert three < 2.2 * one

    def test_empty_batch_rejected(self):
        with pytest.raises(AppVMError):
            make_service().run()

    def test_machine_report(self):
        service = make_service()
        service.submit(spec_for("u", make_model("m")))
        service.run()
        report = service.machine_report()
        assert report["elapsed_cycles"] > 0
        assert report["tasks"] >= 3

    def test_successive_batches(self):
        service = make_service()
        h1 = service.submit(spec_for("u", make_model("m1")))
        service.run()
        h2 = service.submit(spec_for("u", make_model("m2", load=-2e4)))
        service.run()
        assert (h2.result().max_displacement()
                > h1.result().max_displacement())
        assert service.completed_batches == 2

    def test_run_returns_batch_handles_in_order(self):
        service = make_service()
        submitted = [service.submit(spec_for(f"u{i}", make_model(f"m{i}")))
                     for i in range(3)]
        finished = service.run()
        assert finished == submitted


class TestNoCostPrediction:
    """The one-machine service has no quota to charge, so it never runs
    the cost model on a job's behalf; only the lint gate's own
    ``lint.cost`` report remains."""

    @pytest.fixture
    def cost_calls(self, monkeypatch):
        import repro.lint
        from repro.appvm.scheduler import machine
        calls = []

        def counting(program, *args, **kwargs):
            calls.append(program)
            return repro.lint.cost_report(program, *args, **kwargs)

        # the only appvm module that imports cost_report
        monkeypatch.setattr(machine, "cost_report", counting)
        return calls

    def test_lint_off_submit_runs_no_cost_report(self, cost_calls):
        make_service().submit(spec_for("u", make_model("m")))
        assert cost_calls == []

    def test_lint_warn_submit_runs_only_the_gates_report(self, cost_calls):
        service = make_service()
        service.submit(spec_for("u", make_model("m"), lint="warn"))
        assert cost_calls == [service.program]

    def test_service_module_does_not_import_the_pool(self):
        from repro.appvm import service as service_mod
        assert "ServicePool" not in vars(service_mod)


class TestJobSpec:
    def test_validation(self):
        model = make_model("m")
        with pytest.raises(AppVMError, match="user"):
            JobSpec(user="", model=model, load_set="case")
        with pytest.raises(AppVMError, match="StructureModel"):
            JobSpec(user="u", model="not-a-model", load_set="case")
        with pytest.raises(AppVMError, match="workers"):
            JobSpec(user="u", model=model, load_set="case", workers=0)
        with pytest.raises(AppVMError, match="lint"):
            JobSpec(user="u", model=model, load_set="case", lint="loud")

    def test_spec_is_frozen(self):
        spec = spec_for("u", make_model("m"))
        with pytest.raises(Exception):
            spec.workers = 9

    def test_missing_load_set_fails_at_submit(self):
        spec = JobSpec(user="u", model=make_model("m"), load_set="nope")
        with pytest.raises(Exception):
            make_service().submit(spec)


class TestJobLifecycle:
    def test_states_through_a_run(self):
        service = make_service()
        spec = spec_for("u", make_model("m"))
        assert JobSpec is type(spec)
        handle = service.submit(spec)
        # one machine, no queue: submit spawns the root task at once
        assert handle.state is JobState.RUNNING
        assert not handle.done
        with pytest.raises(AppVMError, match="not finished"):
            handle.result()
        service.run()
        assert handle.state is JobState.DONE
        assert handle.done
        assert handle.result().iterations > 0


class TestRemovedAPI:
    def test_positional_submit_form_is_gone(self):
        service = make_service()
        with pytest.raises(TypeError):
            service.submit("u", make_model("m"), "case")
        with pytest.raises(AppVMError, match="JobSpec"):
            service.submit("u")
        assert not service.machine.jobs

    def test_run_batch_is_gone(self):
        assert not hasattr(MachineService, "run_batch")

    def test_flat_handle_views_are_gone(self):
        service = make_service()
        handle = service.submit(spec_for("alice", make_model("m"), workers=3))
        for name in ("user", "model", "load_set", "workers", "tol"):
            assert not hasattr(handle, name)
        assert handle.spec.user == "alice"
        assert handle.spec.model.name == "m"
        assert handle.spec.load_set == "case"
        assert handle.spec.workers == 3

    def test_solvejob_alias_is_gone(self):
        assert not hasattr(appvm, "SolveJob")
        from repro.appvm import service as service_mod
        assert not hasattr(service_mod, "SolveJob")
