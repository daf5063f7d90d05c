"""The host-side static solve: "Solve structure model/load set for
displacements" — the correctness oracle for everything the simulated
machine computes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..errors import SolverError
from .assembly import assemble_stiffness
from .bc import Constraints
from .loads import LoadSet
from .materials import Material
from .mesh import Mesh
from .solvers import SolveResult, solve_linear
from .stress import recover_stresses


@dataclass
class StaticResult:
    """Displacements plus solver info and (optionally) stresses."""

    u: np.ndarray
    solver: SolveResult
    reactions: np.ndarray
    stresses: Optional[Dict[str, np.ndarray]] = None


def static_solve(
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    loads: LoadSet,
    method: str = "sparse_lu",
    with_stresses: bool = False,
    **solver_kw,
) -> StaticResult:
    """Assemble, reduce, solve, expand — one stop for examples/tests."""
    k = assemble_stiffness(mesh, material)
    f = loads.vector(mesh)
    k_ff, f_f = constraints.reduce(k, f)
    if k_ff.shape[0] == 0:
        raise SolverError("no free degrees of freedom")
    result = solve_linear(k_ff, f_f, method=method, **solver_kw)
    if not result.converged:
        raise SolverError(
            f"{method} did not converge ({result.iterations} iterations, "
            f"residual {result.residual_norm:g})"
        )
    u = constraints.expand(result.x)
    reactions = constraints.reactions(k, u, f)
    stresses = recover_stresses(mesh, material, u) if with_stresses else None
    return StaticResult(u=u, solver=result, reactions=reactions, stresses=stresses)
