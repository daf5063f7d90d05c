"""Byte pins on the pool's preemption path.

``ServicePool`` checkpoints a running machine into a ``fem2-ckpt/1``
blob whenever a higher-priority job needs it, and later restores the
blob by journal replay.  ``test_golden_traces`` and
``test_golden_workloads`` pin ``MachineService`` / ``Fem2Program``
blobs; this pins the pool's, on the shape of the host benchmark's
``preempt_churn`` batch: two low-priority 4x2 plates, ``advance(1500)``,
then one priority-5 plate.  A change to the journal, the engine or the
codec that alters one byte of the blob, or one bit of the resumed
job's answer, fails here.

The digests are of pickled, zlib-compressed bytes: stable for one
python / numpy / zlib, like the other ``ckpt_sha256`` pins.
"""

import hashlib

from repro.appvm import JobSpec, ServicePool, StructureModel, Tenant
from repro.appvm.scheduler.machine import PoolMachine
from repro.fem import LoadSet, Material, rect_grid

BLOB_SHA256 = "f8ebb7ef59edd00bab8cc1c9e01c8d43a418f51249c394983bc25a68a6ceead9"
RESUMED_U_SHA256 = "37a255658610acb9cb81b8eaaaefcea7b713d11a0b8f512cfa87e1a449bc030c"
RESUMED_ITERATIONS = 12
RESUMED_ELAPSED_CYCLES = 20831


def plate(name, nx, ny, e, load):
    model = StructureModel(name, material=Material(e=e, nu=0.3, thickness=0.01))
    model.set_mesh(rect_grid(nx, ny, 2.0, 1.0))
    model.constraints.fix_nodes(model.mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(model.mesh.nodes_on(x=2.0), 1, load)
    model.load_sets["case"] = loads
    return model


def preempt_batch(monkeypatch):
    """Run one preempting batch; returns the blobs the pool wrote and
    the handles."""
    blobs = []
    checkpoint = PoolMachine.checkpoint

    def recording(self, *args, **kwargs):
        blob = checkpoint(self, *args, **kwargs)
        blobs.append(blob)
        return blob

    monkeypatch.setattr(PoolMachine, "checkpoint", recording)
    pool = ServicePool(n_machines=2, tenants=(Tenant("batch"), Tenant("urgent")),
                       quantum=500)
    low = [JobSpec(user="low", model=plate(f"low{k}", 4, 2, e, load),
                   load_set="case", tenant="batch")
           for k, (e, load) in enumerate(((70e9, -1.2e4), (190e9, -0.8e4)))]
    rush = JobSpec(user="high", model=plate("rush", 2, 1, 120e9, -1.0e4),
                   load_set="case", tenant="urgent", priority=5)
    handles = [pool.submit(spec) for spec in low]
    pool.advance(1500)
    handles.append(pool.submit(rush))
    pool.run()
    return blobs, handles


def test_pool_preemption_blob_and_resumed_answer_are_pinned(monkeypatch):
    blobs, handles = preempt_batch(monkeypatch)
    assert len(blobs) == 1
    (victim,) = [h for h in handles if h.preemptions]
    assert victim.preemptions == 1
    result = victim.result()
    assert hashlib.sha256(blobs[0]).hexdigest() == BLOB_SHA256
    assert hashlib.sha256(result.u.tobytes()).hexdigest() == RESUMED_U_SHA256
    assert (result.iterations, result.elapsed_cycles) == (
        RESUMED_ITERATIONS, RESUMED_ELAPSED_CYCLES)
