"""Substructure analysis by static condensation.

The conclusion of the paper names "parallelism in the substructure
analysis of a larger structure" as the middle level of FEM-2
parallelism.  Each substructure condenses its interior DOFs onto the
interface (a Schur complement); the interface system couples the
substructures and is solved once; interiors back-substitute
independently.  The host-side driver here is the correctness oracle for
the distributed version in :mod:`repro.fem.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import FEMError, SolverError
from .assembly import element_stiffness_batches
from .bc import Constraints
from .loads import LoadSet
from .materials import Material
from .mesh import Mesh
from .partition import Subdomain, interface_dofs, partition_strips


@dataclass
class CondensedSubstructure:
    """One substructure after condensation.

    Keeps the interior factor and coupling so back-substitution does not
    re-factor — the "local data retained over pause/resume" of the
    distributed protocol.
    """

    index: int
    interior: np.ndarray        # global dof ids
    boundary: np.ndarray        # global dof ids (interface, free)
    schur: np.ndarray           # (nb, nb)
    g: np.ndarray               # condensed rhs contribution (nb,)
    k_ii: np.ndarray            # (ni, ni) interior block (kept for back-sub)
    k_ib: np.ndarray            # (ni, nb)
    f_i: np.ndarray             # (ni,)

    def back_substitute(self, u_b: np.ndarray) -> np.ndarray:
        """Interior displacements given interface displacements."""
        if self.interior.size == 0:
            return np.zeros(0)
        return np.linalg.solve(self.k_ii, self.f_i - self.k_ib @ u_b)


def subdomain_stiffness(
    mesh: Mesh, material: Material, sub: Subdomain
) -> Tuple[np.ndarray, np.ndarray]:
    """Dense stiffness of one subdomain over its own DOF set.

    Returns (k_sub (n, n), dofs (n,)) with ``dofs`` the sorted global
    DOF ids the rows/columns refer to.
    """
    d = mesh.dofs_per_node
    dofs = (sub.nodes[:, None] * d + np.arange(d)[None, :]).ravel()
    pos = {g: i for i, g in enumerate(dofs)}
    n = dofs.size
    k_sub = np.zeros((n, n))
    batches = element_stiffness_batches(mesh, material)
    for name, rows in sub.element_rows.items():
        k_batch, dof_map = batches[name]
        for r in rows:
            idx = np.array([pos[g] for g in dof_map[r]])
            k_sub[np.ix_(idx, idx)] += k_batch[r]
    return k_sub, dofs


def condense_substructure(
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    f_global: np.ndarray,
    sub: Subdomain,
    boundary_set: np.ndarray,
) -> CondensedSubstructure:
    """Condense one subdomain's interior onto the interface.

    ``boundary_set`` is the global list of interface DOFs (free ones).
    Fixed DOFs are removed from the substructure system entirely.
    """
    k_sub, dofs = subdomain_stiffness(mesh, material, sub)
    fixed = set(constraints.fixed_dofs.tolist())
    bset = set(boundary_set.tolist())
    local_interior, local_boundary = [], []
    for i, g in enumerate(dofs):
        if g in fixed:
            continue
        (local_boundary if g in bset else local_interior).append(i)
    li = np.array(local_interior, dtype=int)
    lb = np.array(local_boundary, dtype=int)
    k_ii = k_sub[np.ix_(li, li)]
    k_ib = k_sub[np.ix_(li, lb)]
    k_bb = k_sub[np.ix_(lb, lb)]
    f_i = f_global[dofs[li]] if li.size else np.zeros(0)
    if li.size:
        try:
            w = np.linalg.solve(k_ii, np.column_stack([k_ib, f_i]))
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"substructure {sub.index}: interior block singular "
                "(insufficient supports?)"
            ) from exc
        x_ib, x_fi = w[:, :-1], w[:, -1]
        schur = k_bb - k_ib.T @ x_ib
        g = -k_ib.T @ x_fi
    else:
        schur = k_bb
        g = np.zeros(lb.size)
    return CondensedSubstructure(
        index=sub.index,
        interior=dofs[li],
        boundary=dofs[lb],
        schur=schur,
        g=g,
        k_ii=k_ii,
        k_ib=k_ib,
        f_i=f_i,
    )


@dataclass
class SubstructureSolution:
    u: np.ndarray
    interface_size: int
    interior_sizes: List[int]
    condensation_flops: int
    interface_flops: int


def substructure_solve(
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    loads: LoadSet,
    n_substructures: int = 4,
    subs: List[Subdomain] = None,
) -> SubstructureSolution:
    """Full substructure analysis: partition, condense, solve, expand."""
    if subs is None:
        subs = partition_strips(mesh, n_substructures)
    f = loads.vector(mesh)
    fixed = set(constraints.fixed_dofs.tolist())
    iface_all = interface_dofs(mesh, subs)
    iface = np.array([d for d in iface_all if d not in fixed], dtype=int)
    iface_pos = {g: i for i, g in enumerate(iface)}
    nb = iface.size
    if nb == 0 and len(subs) > 1:
        raise FEMError("multi-substructure model has no interface dofs")

    k_interface = np.zeros((nb, nb))
    rhs = f[iface].astype(float).copy()
    condensed: List[CondensedSubstructure] = []
    cond_flops = 0
    for sub in subs:
        c = condense_substructure(mesh, material, constraints, f, sub, iface)
        condensed.append(c)
        idx = np.array([iface_pos[g] for g in c.boundary], dtype=int)
        if idx.size:
            k_interface[np.ix_(idx, idx)] += c.schur
            rhs[idx] += c.g
        ni, nbi = c.interior.size, c.boundary.size
        cond_flops += ni**3 // 3 + 2 * ni * ni * (nbi + 1)

    if nb:
        try:
            u_b = np.linalg.solve(k_interface, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError("interface system singular") from exc
    else:
        u_b = np.zeros(0)

    u = np.zeros(mesh.n_dofs)
    u[iface] = u_b
    for c in condensed:
        if c.interior.size:
            local_ub = u_b[[iface_pos[g] for g in c.boundary]]
            u[c.interior] = c.back_substitute(local_ub)
    for dof in constraints.fixed_dofs:
        u[dof] = dict(zip(constraints.fixed_dofs.tolist(),
                          constraints.prescribed_values()))[dof]
    return SubstructureSolution(
        u=u,
        interface_size=nb,
        interior_sizes=[c.interior.size for c in condensed],
        condensation_flops=cond_flops,
        interface_flops=nb**3 // 3,
    )
