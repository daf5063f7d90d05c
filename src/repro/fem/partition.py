"""Domain partitioning for parallel FEM.

Each element belongs to exactly one subdomain; nodes on the seam are
shared.  A subdomain's *hull* is the contiguous DOF range spanning all
its nodes — the window the parallel solver reads and accumulates.  With
the column-major node numbering of :func:`repro.fem.mesh.rect_grid`,
strip partitions give tight hulls; recursive bisection gives better
surface-to-volume at the cost of looser hulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import MeshError
from .mesh import Mesh


@dataclass
class Subdomain:
    """One partition: per-type element row indices plus node/DOF sets."""

    index: int
    element_rows: Dict[str, np.ndarray]  # etype -> rows into mesh.groups[etype]
    nodes: np.ndarray                    # unique node ids, sorted
    dof_lo: int                          # hull start (inclusive)
    dof_hi: int                          # hull end (exclusive)

    @property
    def hull_words(self) -> int:
        return self.dof_hi - self.dof_lo


def _centroids(mesh: Mesh) -> Tuple[np.ndarray, List[Tuple[str, int]]]:
    """Element centroids (E, 2) plus (etype, row) key per element."""
    cents, keys = [], []
    for name, conn in mesh.groups.items():
        cents.append(mesh.coords[conn].mean(axis=1))
        keys.extend((name, i) for i in range(conn.shape[0]))
    if not cents:
        raise MeshError("cannot partition a mesh with no elements")
    return np.vstack(cents), keys


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for an int array, minus its first call importing
    ``numpy.ma`` (numpy >= 2.3): ~27k Python calls and ~15 ms that would
    otherwise land inside the first simulated solve of every process."""
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _build(mesh: Mesh, assignment: np.ndarray, keys, p: int) -> List[Subdomain]:
    subs = []
    d = mesh.dofs_per_node
    for s in range(p):
        rows: Dict[str, List[int]] = {}
        for flat_idx in np.nonzero(assignment == s)[0]:
            name, row = keys[flat_idx]
            rows.setdefault(name, []).append(row)
        element_rows = {n: np.array(r, dtype=int) for n, r in rows.items()}
        node_ids = (
            _sorted_unique(
                np.concatenate(
                    [mesh.groups[n][r].ravel() for n, r in element_rows.items()]
                )
            )
            if element_rows
            else np.array([], dtype=int)
        )
        lo = int(node_ids.min()) * d if node_ids.size else 0
        hi = (int(node_ids.max()) + 1) * d if node_ids.size else 0
        subs.append(Subdomain(s, element_rows, node_ids, lo, hi))
    return subs


def partition_strips(mesh: Mesh, p: int) -> List[Subdomain]:
    """Partition into *p* vertical strips of near-equal element count."""
    if p < 1:
        raise MeshError(f"need at least one partition, got {p}")
    cents, keys = _centroids(mesh)
    n_elems = len(keys)
    p = min(p, n_elems)
    order = np.argsort(cents[:, 0], kind="stable")
    assignment = np.empty(n_elems, dtype=int)
    bounds = np.linspace(0, n_elems, p + 1).astype(int)
    for s in range(p):
        assignment[order[bounds[s] : bounds[s + 1]]] = s
    return _build(mesh, assignment, keys, p)


def partition_bisection(mesh: Mesh, p: int) -> List[Subdomain]:
    """Recursive coordinate bisection into *p* parts (any p >= 1).

    Splits the current element set along its wider coordinate axis at
    the weighted median, recursing with part counts split as evenly as
    possible.
    """
    if p < 1:
        raise MeshError(f"need at least one partition, got {p}")
    cents, keys = _centroids(mesh)
    n_elems = len(keys)
    p = min(p, n_elems)
    assignment = np.zeros(n_elems, dtype=int)

    def recurse(idx: np.ndarray, parts: int, base: int) -> None:
        if parts == 1 or idx.size <= 1:
            assignment[idx] = base
            return
        left_parts = parts // 2
        span = cents[idx].max(axis=0) - cents[idx].min(axis=0)
        axis = int(np.argmax(span))
        order = idx[np.argsort(cents[idx, axis], kind="stable")]
        cut = (idx.size * left_parts) // parts
        recurse(order[:cut], left_parts, base)
        recurse(order[cut:], parts - left_parts, base + left_parts)

    recurse(np.arange(n_elems), p, 0)
    return _build(mesh, assignment, keys, p)


def shared_nodes(subs: List[Subdomain]) -> np.ndarray:
    """Nodes appearing in more than one subdomain (the seams)."""
    counts: Dict[int, int] = {}
    for sub in subs:
        for n in sub.nodes:
            counts[n] = counts.get(n, 0) + 1
    return np.array(sorted(n for n, c in counts.items() if c > 1), dtype=int)


def interface_dofs(mesh: Mesh, subs: List[Subdomain]) -> np.ndarray:
    """All DOFs on shared nodes, sorted."""
    nodes = shared_nodes(subs)
    d = mesh.dofs_per_node
    return (nodes[:, None] * d + np.arange(d)[None, :]).ravel()
