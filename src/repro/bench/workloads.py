"""Standard workloads for the experiment suite.

One place defines the problems every benchmark sweeps over, so E1..E12
measure the same models and the EXPERIMENTS.md numbers are
reproducible run to run (everything here is deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fem import Constraints, LoadSet, Material, Mesh, rect_grid

#: Material used by every benchmark problem.
BENCH_MATERIAL = Material(e=70e9, nu=0.3, thickness=0.01, area=0.01, inertia=1e-5)


@dataclass
class Problem:
    """A ready-to-solve structural problem."""

    name: str
    mesh: Mesh
    constraints: Constraints
    loads: LoadSet
    material: Material = BENCH_MATERIAL


def plane_stress_cantilever(n: int) -> Problem:
    """The canonical E1/E2/E9 workload: an n x (n//2) cell, 2 x 1
    cantilevered plate under tip shear.  ``n`` is the cell count along x."""
    ny = max(1, n // 2)
    mesh = rect_grid(n, ny, 2.0, 1.0)
    constraints = Constraints(mesh).fix_nodes(mesh.nodes_on(x=0.0))
    loads = LoadSet("tip").add_nodal_many(mesh.nodes_on(x=2.0), 1, -1e4)
    return Problem(f"cantilever{n}x{ny}", mesh, constraints, loads)

