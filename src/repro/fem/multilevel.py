"""Multilevel substructuring: substructures of substructures.

The application VM's first data object is the "structure/substructure
model" — in 1983 practice, large airframes were analysed as trees of
substructures, each condensed onto its boundary before its parent
condenses again.  This module implements the recursive form: partition,
condense each leaf, merge siblings into parent super-elements, repeat,
then back-substitute down the tree.

Host-side (numpy) — the correctness oracle and the flop model for the
multilevel entry in the E2 family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import FEMError, SolverError
from .bc import Constraints
from .loads import LoadSet
from .materials import Material
from .mesh import Mesh
from .partition import partition_bisection, partition_strips
from .substructure import subdomain_stiffness


@dataclass(eq=False)  # identity comparison: nodes hold arrays
class _TreeNode:
    """One node of the condensation tree."""

    dofs: np.ndarray                 # global dofs of this super-element
    k: np.ndarray                    # (n, n) condensed stiffness on dofs
    f: np.ndarray                    # (n,) condensed load on dofs
    interior: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # back-substitution data: u_i = x_f - x_b @ u_boundary
    x_b: Optional[np.ndarray] = None
    x_f: Optional[np.ndarray] = None
    boundary: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    children: List["_TreeNode"] = field(default_factory=list)
    flops: int = 0


def _condense(node: _TreeNode, keep: set) -> None:
    """Condense node DOFs not in *keep* onto the ones that are."""
    mask_keep = np.array([d in keep for d in node.dofs])
    li = np.nonzero(~mask_keep)[0]
    lb = np.nonzero(mask_keep)[0]
    node.interior = node.dofs[li]
    node.boundary = node.dofs[lb]
    if li.size == 0:
        node.x_b = np.zeros((0, lb.size))
        node.x_f = np.zeros(0)
        node.k = node.k[np.ix_(lb, lb)]
        node.f = node.f[lb]
        node.dofs = node.boundary
        return
    k_ii = node.k[np.ix_(li, li)]
    k_ib = node.k[np.ix_(li, lb)]
    k_bb = node.k[np.ix_(lb, lb)]
    f_i = node.f[li]
    f_b = node.f[lb]
    try:
        w = np.linalg.solve(k_ii, np.column_stack([k_ib, f_i]))
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "multilevel condensation hit a singular interior block "
            "(insufficient supports?)"
        ) from exc
    node.x_b, node.x_f = w[:, :-1], w[:, -1]
    node.k = k_bb - k_ib.T @ node.x_b
    node.f = f_b - k_ib.T @ node.x_f
    node.dofs = node.boundary
    ni, nb = li.size, lb.size
    node.flops += ni**3 // 3 + 2 * ni * ni * (nb + 1)


def _merge(children: List[_TreeNode]) -> _TreeNode:
    """Assemble sibling super-elements into one parent element."""
    all_dofs = np.unique(np.concatenate([c.dofs for c in children]))
    pos = {d: i for i, d in enumerate(all_dofs)}
    n = all_dofs.size
    k = np.zeros((n, n))
    f = np.zeros(n)
    for c in children:
        idx = np.array([pos[d] for d in c.dofs], dtype=int)
        k[np.ix_(idx, idx)] += c.k
        f[idx] += c.f
    return _TreeNode(dofs=all_dofs, k=k, f=f, children=children)


def _back_substitute(node: _TreeNode, u: np.ndarray) -> None:
    """Recover interior displacements from boundary values, recursing down."""
    if node.interior.size:
        u_b = u[node.boundary]
        u[node.interior] = node.x_f - node.x_b @ u_b
    for child in node.children:
        _back_substitute(child, u)


@dataclass
class MultilevelSolution:
    u: np.ndarray
    levels: int
    leaf_count: int
    top_size: int
    condensation_flops: int


def multilevel_substructure_solve(
    mesh: Mesh,
    material: Material,
    constraints: Constraints,
    loads: LoadSet,
    leaves: int = 8,
    group: int = 2,
    partitioner: str = "strips",
) -> MultilevelSolution:
    """Solve by a condensation tree with *leaves* leaf substructures,
    merging *group* siblings per level.

    Every intermediate level condenses away the DOFs interior to the
    merged group (shared only among its members); the top level solves
    the final reduced system directly.
    """
    if leaves < 1 or group < 2:
        raise FEMError("need leaves >= 1 and group >= 2")
    subs = (partition_strips(mesh, leaves) if partitioner == "strips"
            else partition_bisection(mesh, leaves))
    fixed = set(constraints.fixed_dofs.tolist())
    f_global = loads.vector(mesh)

    # leaf nodes: raw subdomain systems with fixed DOFs removed.  A DOF on
    # a seam appears in several leaves; its nodal load must enter the tree
    # exactly once, so loads are claimed by the first leaf holding the DOF.
    nodes: List[_TreeNode] = []
    claimed: set = set()
    d = mesh.dofs_per_node
    for sub in subs:
        k_sub, dofs = subdomain_stiffness(mesh, material, sub)
        free_mask = np.array([g not in fixed for g in dofs])
        idx = np.nonzero(free_mask)[0]
        leaf_dofs = dofs[idx]
        f_leaf = np.zeros(leaf_dofs.size)
        for j, g in enumerate(leaf_dofs):
            if g not in claimed:
                claimed.add(int(g))
                f_leaf[j] = f_global[g]
        node = _TreeNode(
            dofs=leaf_dofs,
            k=k_sub[np.ix_(idx, idx)],
            f=f_leaf,
        )
        nodes.append(node)

    # count DOF multiplicity across current nodes to find shared DOFs
    levels = 0
    leaf_count = len(nodes)
    while len(nodes) > 1:
        levels += 1
        grouped: List[_TreeNode] = []
        for i in range(0, len(nodes), group):
            chunk = nodes[i : i + group]
            if len(chunk) == 1:
                grouped.append(chunk[0])
                continue
            parent = _merge(chunk)
            # keep DOFs still shared with nodes outside this chunk
            outside: set = set()
            for other in nodes:
                if other in chunk:
                    continue
                outside.update(other.dofs.tolist())
            keep = {int(dd) for dd in parent.dofs if dd in outside}
            _condense(parent, keep)
            grouped.append(parent)
        nodes = grouped

    top = nodes[0]
    # solve whatever remains at the top
    u = np.zeros(mesh.n_dofs)
    if top.dofs.size:
        try:
            u_top = np.linalg.solve(top.k, top.f)
        except np.linalg.LinAlgError as exc:
            raise SolverError("top-level system singular") from exc
        u[top.dofs] = u_top
    _back_substitute(top, u)
    for dof, value in zip(constraints.fixed_dofs, constraints.prescribed_values()):
        u[dof] = value

    def total_flops(node: _TreeNode) -> int:
        return node.flops + sum(total_flops(c) for c in node.children)

    return MultilevelSolution(
        u=u,
        levels=levels,
        leaf_count=leaf_count,
        top_size=int(top.dofs.size),
        condensation_flops=total_flops(top) + top.dofs.size**3 // 3,
    )
