"""Tests for the checkpoint/restore + deterministic replay spine.

The acceptance bar: a run with a fault injected mid-execution,
recovered by restoring the last checkpoint into fresh hardware and
replaying, must produce bit-identical root-task results *and* final
cycle counts versus the fault-free run.
"""

import hashlib

import numpy as np
import pytest

from repro.ckpt import (
    Checkpoint,
    Checkpointer,
    content_fingerprint,
    fingerprint,
    from_bytes,
    restore_program,
    to_bytes,
)
from repro.errors import AppVMError, CkptError
from repro.hardware import FaultInjector, Machine, MachineConfig
from repro.langvm import Fem2Program, forall


# ---------------------------------------------------------------------------
# codec


class TestCodec:
    def test_round_trip(self):
        tree = {"a": [1, 2.5, "x"], "b": {"nested": (3, 4)}}
        assert from_bytes(to_bytes(tree)) == tree

    def test_bad_magic_rejected(self):
        with pytest.raises(CkptError):
            from_bytes(b"NOTACKPT" + b"\x01" + b"garbage")

    def test_truncation_rejected(self):
        blob = to_bytes({"k": list(range(1000))})
        with pytest.raises(CkptError):
            from_bytes(blob[: len(blob) // 2])

    def test_corruption_rejected(self):
        blob = bytearray(to_bytes({"k": list(range(1000))}))
        blob[20] ^= 0xFF
        with pytest.raises(CkptError):
            from_bytes(bytes(blob))

    def test_unknown_version_rejected(self):
        blob = bytearray(to_bytes({}))
        blob[8] = 99  # version byte follows the 8-byte magic
        with pytest.raises(CkptError):
            from_bytes(bytes(blob))

    def test_fingerprint_is_blob_sha256(self):
        blob = to_bytes({"k": 1})
        assert fingerprint(blob) == hashlib.sha256(blob).hexdigest()
        with pytest.raises(CkptError):
            fingerprint(b"NOTACKPT" + blob)

    def test_content_fingerprint_sees_state_not_aliasing(self):
        shared = np.arange(6.0)
        aliased = {"a": shared, "b": shared}
        copied = {"a": np.arange(6.0), "b": np.arange(6.0)}
        # same state, different host object graphs: blob bytes differ
        # (pickle memoizes the shared array), content digests agree
        assert to_bytes(aliased) != to_bytes(copied)
        assert content_fingerprint(aliased) == content_fingerprint(copied)

    def test_content_fingerprint_sees_every_change(self):
        base = {"m": {"x": 1, "y": [1, 2.5]}, "v": np.arange(3.0)}
        digest = content_fingerprint(base)
        assert content_fingerprint({"m": {"x": 1, "y": [1, 2.5]},
                                    "v": np.arange(3.0)}) == digest
        changed = {"m": {"x": 1, "y": [1, 2.5]}, "v": np.arange(4.0)}
        assert content_fingerprint(changed) != digest
        assert content_fingerprint({"m": base["m"]}) != digest

    def test_content_fingerprint_sequences_are_ordered(self):
        assert (content_fingerprint([1, 2, 3])
                != content_fingerprint([3, 2, 1]))
        # mappings hash key-sorted: insertion order is host history
        assert (content_fingerprint({"a": 1, "b": 2})
                == content_fingerprint({"b": 2, "a": 1}))


# ---------------------------------------------------------------------------
# program-level snapshot/restore


def farm_factory(n=12, cycles=10_000, n_clusters=2, pes=4):
    """A factory building the *same* program image every call — the
    spare-hardware contract restore-from-checkpoint relies on."""

    def build():
        cfg = MachineConfig(n_clusters=n_clusters, pes_per_cluster=pes,
                            memory_words_per_cluster=2_000_000)
        prog = Fem2Program(cfg, journal=True)

        @prog.task()
        def work(ctx, index):
            yield ctx.compute(cycles=cycles)
            return index * index

        @prog.task()
        def driver(ctx):
            return (yield from forall(ctx, "work", n=n))

        return prog

    return build


class TestProgramSnapshot:
    def test_snapshot_requires_journaling(self):
        prog = Fem2Program(MachineConfig.small())
        with pytest.raises(CkptError):
            prog.snapshot()

    def test_quiescent_round_trip(self):
        build = farm_factory(n=4)
        prog = build()
        results = prog.run("driver", cluster=0)
        blob = to_bytes(prog.snapshot())
        fresh = build()
        fresh.restore(from_bytes(blob))
        assert fresh.now == prog.now
        assert fresh.metrics.get("task.initiated") == \
            prog.metrics.get("task.initiated")
        assert results == [i * i for i in range(4)]

    def test_checkpointed_run_is_clock_neutral(self):
        build = farm_factory()
        plain = build()
        r0 = plain.run("driver", cluster=0)
        c0 = plain.now

        ck_prog = build()
        tid = ck_prog.start("driver", cluster=0)
        ck = Checkpointer(ck_prog, interval=4_000)
        ck.run()
        assert ck_prog.runtime.result_of(tid) == r0
        assert ck_prog.now == c0
        assert len(ck.checkpoints) >= 2
        assert ck_prog.metrics.get("ckpt.snapshots") == len(ck.checkpoints)
        assert ck.host_seconds > 0.0

    def test_keep_bounds_retained_checkpoints(self):
        # n=24 on 6 workers -> four ~10k-cycle waves -> four checkpoints
        build = farm_factory(n=24)
        prog = build()
        prog.start("driver", cluster=0)
        ck = Checkpointer(prog, interval=500, keep=2)
        ck.run()
        assert len(ck.checkpoints) == 2
        assert prog.metrics.get("ckpt.snapshots") > 2

    def test_interval_must_be_positive(self):
        prog = farm_factory()()
        with pytest.raises(CkptError):
            Checkpointer(prog, interval=0)

    def test_latest_requires_a_checkpoint(self):
        ck = Checkpointer(farm_factory()(), interval=1_000)
        with pytest.raises(CkptError):
            ck.latest()

    def test_mid_run_restore_resumes_to_identical_result(self):
        build = farm_factory()
        plain = build()
        r0 = plain.run("driver", cluster=0)
        c0 = plain.now

        prog = build()
        tid = prog.start("driver", cluster=0)
        ck = Checkpointer(prog, interval=6_000)
        ck.run(max_events=200)  # stop mid-run, checkpoints taken
        ckpt = ck.latest()
        assert 0 < ckpt.time < c0

        fresh = restore_program(build(), ckpt)
        assert fresh.now == ckpt.time
        fresh.runtime.run()
        assert fresh.runtime.result_of(tid) == r0
        assert fresh.now == c0


# ---------------------------------------------------------------------------
# the acceptance bar: fault → restore → replay → bit-identical


class TestCheckpointedRecovery:
    def run_recovered(self, build, fault_at, interval=5_000):
        prog = build()
        injector = FaultInjector(prog.machine, runtime=prog.runtime,
                                 recovery="checkpoint")
        injector.schedule_pe_failure(fault_at, 0, 1)
        tid = prog.start("driver", cluster=0)
        ck = Checkpointer(prog, interval=interval)
        ck.run()
        assert injector.needs_recovery
        assert prog.machine.engine.halted
        assert prog.metrics.get("fault.halts") == 1

        recovered = ck.recover(build)
        assert recovered is not prog  # fresh hardware, same image
        ck.run()
        return recovered, tid

    def test_pe_fault_recovery_bit_identical(self):
        build = farm_factory()
        baseline = build()
        r0 = baseline.run("driver", cluster=0)
        c0 = baseline.now

        recovered, tid = self.run_recovered(build, fault_at=15_000)
        assert recovered.runtime.result_of(tid) == r0
        assert recovered.now == c0
        assert recovered.metrics.get("ckpt.recoveries") == 1

    def test_work_lost_bounded_by_interval(self):
        build = farm_factory()
        prog = build()
        injector = FaultInjector(prog.machine, runtime=prog.runtime,
                                 recovery="checkpoint")
        injector.schedule_pe_failure(18_000, 0, 1)
        prog.start("driver", cluster=0)
        ck = Checkpointer(prog, interval=4_000)
        ck.run()
        assert ck.latest().time <= 18_000
        # the checkpoint the recovery restarts from is never more than
        # one interval (plus one event's width) behind the fault
        assert 18_000 - ck.latest().time <= 2 * 4_000

    def test_cluster_fault_recovery_bit_identical(self):
        build = farm_factory(n_clusters=3)
        baseline = build()
        r0 = baseline.run("driver", cluster=0)
        c0 = baseline.now

        prog = build()
        injector = FaultInjector(prog.machine, runtime=prog.runtime,
                                 recovery="checkpoint")
        injector.schedule_cluster_failure(12_000, 1)
        tid = prog.start("driver", cluster=0)
        ck = Checkpointer(prog, interval=5_000)
        ck.run()
        assert injector.needs_recovery
        recovered = ck.recover(build)
        ck.run()
        assert recovered.runtime.result_of(tid) == r0
        assert recovered.now == c0

    def test_unknown_recovery_mode_rejected(self):
        prog = farm_factory()()
        from repro.errors import FaultError
        with pytest.raises(FaultError):
            FaultInjector(prog.machine, recovery="wishful")


# ---------------------------------------------------------------------------
# appvm: MachineService.checkpoint / resume


def make_model(name, load=-1e4):
    from repro.appvm import StructureModel
    from repro.fem import LoadSet, Material, rect_grid

    model = StructureModel(name, material=Material(e=70e9, nu=0.3,
                                                   thickness=0.01))
    model.set_mesh(rect_grid(5, 2, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    ls = LoadSet("case")
    ls.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, load)
    model.load_sets["case"] = ls
    return model


class TestServiceCheckpoint:
    def make_service(self, checkpointing=True):
        from repro.appvm import MachineService
        return MachineService(
            MachineConfig(n_clusters=4, pes_per_cluster=5,
                          memory_words_per_cluster=16_000_000),
            checkpointing=checkpointing,
        )

    def test_checkpoint_requires_opt_in(self):
        service = self.make_service(checkpointing=False)
        with pytest.raises(AppVMError):
            service.checkpoint()

    def test_resume_rejects_foreign_blob(self):
        from repro.appvm import MachineService
        with pytest.raises(AppVMError):
            MachineService.resume(to_bytes({"schema": "something-else"}))

    @pytest.mark.parametrize("entry", ["resume", "restore_blob"])
    @pytest.mark.parametrize("state, complaint", [
        ([1, 2], "list"),
        ({"schema": "fem2-ckpt/1"}, "missing config"),
        ({"schema": "fem2-ckpt/1", "jobs": [], "program": {},
          "completed_batches": 0, "config": {"n_warp_cores": 9}},
         "n_warp_cores"),
        # well-typed config, invalid values: a pre-PR-24 process that
        # named the deleted engine, and a cluster with no worker PE
        ({"schema": "fem2-ckpt/1", "jobs": [], "program": {},
          "completed_batches": 0, "config": {"engine": "fast"}},
         "bad config: unknown engine 'fast'"),
        ({"schema": "fem2-ckpt/1", "jobs": [], "program": {},
          "completed_batches": 0, "config": {"pes_per_cluster": 1}},
         "bad config: pes_per_cluster"),
    ])
    def test_wrong_shape_blob_fails_typed(self, entry, state, complaint):
        """A well-formed blob that is not a machine image names what is
        wrong in an AppVMError, never AttributeError/KeyError/TypeError."""
        from repro.appvm import MachineService
        from repro.appvm.scheduler import PoolMachine
        blob = to_bytes(state)
        with pytest.raises(AppVMError, match=complaint):
            if entry == "resume":
                MachineService.resume(blob)
            else:
                PoolMachine(0, MachineConfig(), journal=True).restore_blob(
                    blob, [], 0)

    def test_checkpoint_resume_identical_results(self):
        service = self.make_service()
        from repro.appvm import JobSpec
        h_alice = service.submit(JobSpec(user="alice", model=make_model("a"),
                                         load_set="case", workers=2))
        h_bob = service.submit(JobSpec(user="bob",
                                       model=make_model("b", load=-2e4),
                                       load_set="case", workers=2))
        blob = h_alice.checkpoint()  # JobHandle delegates to the service

        service.run()
        u_alice, u_bob = h_alice.result().u, h_bob.result().u
        cycles = service.program.now

        from repro.appvm import MachineService
        resumed = MachineService.resume(blob)
        assert resumed.pending_count == 2
        r_alice, r_bob = resumed.run()
        assert np.array_equal(r_alice.result().u, u_alice)
        assert np.array_equal(r_bob.result().u, u_bob)
        assert resumed.program.now == cycles
        assert resumed.completed_batches == 1

    def test_mid_run_blob_ignores_host_process_history(self):
        """A checkpoint taken while an *unsent* message rides a task's
        continuation must not depend on how many messages this process
        built earlier (their ids were once drawn from a process-global
        counter and pickled into the blob)."""
        from repro.appvm import JobSpec
        from repro.sysvm import Message, pause_notify

        def blobs():
            service = self.make_service()
            service.submit(JobSpec(user="alice", model=make_model("a"),
                                   load_set="case", workers=2))
            engine, out, unsent = service.program.machine.engine, [], 0
            while engine.run(max_events=37) == 37:
                out.append(service.checkpoint())
                unsent += sum(
                    isinstance(part, Message) and part.msg_id == 0
                    for tcb in service.program.runtime.tasks.values()
                    for part in (tcb.cont or ())
                )
            return out, unsent

        first, unsent = blobs()
        assert unsent > 0  # the case under test does occur in this run
        for _ in range(100):
            pause_notify(1, 2)
        again, _ = blobs()
        assert [fingerprint(b) for b in again] == [fingerprint(b) for b in first]

    def test_detached_handle_cannot_checkpoint(self):
        from repro.appvm import JobHandle, JobSpec
        handle = JobHandle(JobSpec(user="u", model=make_model("m"),
                                   load_set="case", workers=2))
        with pytest.raises(AppVMError):
            handle.checkpoint()
