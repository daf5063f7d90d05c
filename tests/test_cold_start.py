"""The simulator path imports numpy and the standard library only.

scipy is a host-side dependency: the FEM oracles (``static_solve``,
``substructure``) import it on their first call.
networkx is not a runtime dependency at all (the network routes over a
plain adjacency).  These tests run each simulator entry point in a
subprocess where both imports are blocked, and check that it produces
exactly what it produces in a process that has them.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

BLOCK = 'sys.modules["scipy"] = sys.modules["networkx"] = None\n'

WORKLOAD = '''
import hashlib, json, sys
{block}
import numpy as np

from repro.appvm import JobSpec, ServicePool, StructureModel, Tenant
from repro.campaign import Campaign, ParamSpace
from repro.fem import (Constraints, LoadSet, Material, parallel_cg_solve,
                       rect_grid)
from repro.hardware import MachineConfig
from repro.langvm import Fem2Program


def sha(data):
    return hashlib.sha256(data).hexdigest()


def model(name, nx=3):
    m = StructureModel(name, material=Material(e=70e9, nu=0.3, thickness=0.01))
    m.set_mesh(rect_grid(nx, 2, 2.0, 1.0))
    m.constraints.fix_nodes(m.mesh.nodes_on(x=0.0))
    loads = LoadSet("case")
    loads.add_nodal_many(m.mesh.nodes_on(x=2.0), 1, -1e4)
    m.load_sets["case"] = loads
    return m


def spec(user, m, **kw):
    return JobSpec(user=user, model=m, load_set="case", workers=1, tol=1e-6, **kw)


config = MachineConfig(n_clusters=2, pes_per_cluster=3,
                       memory_words_per_cluster=8_000_000)
out = {{}}

mesh = rect_grid(8, 4, 2.0, 1.0)
constraints = Constraints(mesh)
constraints.fix_nodes(mesh.nodes_on(x=0.0))
loads = LoadSet("case")
loads.add_nodal_many(mesh.nodes_on(x=2.0), 1, -1.0e4)
program = Fem2Program(MachineConfig(topology="ring", n_clusters=4))
info = parallel_cg_solve(program, mesh, Material(e=100e9, nu=0.3, thickness=0.01),
                         constraints, loads, n_workers=4, tol=1e-8)
out["solve"] = [sha(info.u.tobytes()), program.now, info.iterations,
                program.machine.engine.events_processed,
                sorted(program.machine.network.link_traffic().items())]

pool = ServicePool(n_machines=1, config=config)
gated = pool.submit(spec("gated", model("gated"), lint="error"))
pool.run()
out["gated"] = [sha(gated.result().u.tobytes()), pool.now]

pool = ServicePool(n_machines=1, config=config, quantum=500,
                   tenants=[Tenant("batch"), Tenant("urgent")])
low = pool.submit(spec("low", model("shared", nx=4), tenant="batch"))
pool.advance(1500)
high = pool.submit(spec("high", model("rush"), tenant="urgent", priority=5))
pool.run()
out["preempt"] = [sha(low.result().u.tobytes()), sha(high.result().u.tobytes()),
                  pool.now, pool.stats["preemptions"], pool.stats["resumes"],
                  pool.stats["ckpt_bytes"]]

report = Campaign(ParamSpace({{"nx": [2, 4]}}), name="cold", workers=0).run()
out["campaign"] = sha(report.canonical_bytes())

print(json.dumps(out))
'''

LINT = '''
import runpy, sys
{block}
sys.argv = ["repro.lint", "src/repro/hardware"]
runpy.run_module("repro.lint", run_name="__main__", alter_sys=True)
'''


def run(source):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", source], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.integration
def test_simulator_runs_without_scipy_or_networkx():
    blocked = run(WORKLOAD.format(block=BLOCK))
    assert blocked.returncode == 0, blocked.stderr
    normal = run(WORKLOAD.format(block=""))
    assert normal.returncode == 0, normal.stderr
    got, want = json.loads(blocked.stdout), json.loads(normal.stdout)
    assert got == want
    assert got["preempt"][3:5] == [1, 1]


@pytest.mark.integration
def test_lint_cli_runs_without_scipy_or_networkx():
    proc = run(LINT.format(block=BLOCK))
    assert proc.returncode == 0, proc.stderr
    assert "0 error(s), 0 warning(s)" in proc.stdout


def test_host_oracles_load_scipy_on_first_call():
    """``import repro`` leaves scipy unloaded; the host-side solvers
    import it when first called and still work."""
    proc = run('''
import sys
import numpy as np
from repro.fem import Constraints, LoadSet, Material, rect_grid, static_solve
assert "scipy" not in sys.modules
mesh = rect_grid(6, 3, 2.0, 1.0)
c = Constraints(mesh)
c.fix_nodes(mesh.nodes_on(x=0.0))
loads = LoadSet("case")
loads.add_nodal_many(mesh.nodes_on(x=2.0), 1, -1.0e4)
mat = Material(e=100e9, nu=0.3, thickness=0.01)
lu = static_solve(mesh, mat, c, loads, method="sparse_lu")
assert "scipy.sparse.linalg" in sys.modules
chol = static_solve(mesh, mat, c, loads, method="cholesky")
assert np.allclose(lu.u, chol.u, rtol=1e-9, atol=1e-14)
print("ok")
''')
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
