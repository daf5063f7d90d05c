"""Meshes and grid generation.

"Operations: Define structure model; Generate grid; Define elements" —
the application VM's model-building operations bottom out here.  A
:class:`Mesh` holds node coordinates and per-element-type connectivity;
generator functions build the standard structural grids used across
examples and benchmarks.

Node numbering in :func:`rect_grid` is column-major (``ix * (ny+1) +
iy``) so that vertical-strip domain partitions own *contiguous* node —
and therefore DOF — ranges, which the parallel solver's windows rely
on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import MeshError
from .elements import element_type


class Mesh:
    """Nodes plus element groups (one group per element type)."""

    def __init__(self, coords: np.ndarray) -> None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise MeshError(f"coords must be (N, 2), got {coords.shape}")
        self.coords = coords
        #: every element type is plane (u, v); an attribute, not a class
        #: constant, because checkpointed meshes carry it
        self.dofs_per_node = 2
        self.groups: Dict[str, np.ndarray] = {}

    # -- construction -----------------------------------------------------

    def add_elements(self, etype_name: str, conn) -> None:
        et = element_type(etype_name)
        conn = np.asarray(conn, dtype=int)
        if conn.ndim != 2 or conn.shape[1] != et.nodes_per_element:
            raise MeshError(
                f"{etype_name}: connectivity must be (E, {et.nodes_per_element}), "
                f"got {conn.shape}"
            )
        if conn.min(initial=0) < 0 or conn.max(initial=-1) >= self.n_nodes:
            raise MeshError(f"{etype_name}: node index out of range")
        for e in range(conn.shape[0]):
            if len(set(conn[e])) != et.nodes_per_element:
                raise MeshError(f"{etype_name}: element {e} repeats a node")
        if etype_name in self.groups:
            self.groups[etype_name] = np.vstack([self.groups[etype_name], conn])
        else:
            self.groups[etype_name] = conn

    # -- shape ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.dofs_per_node

    @property
    def n_elements(self) -> int:
        return sum(g.shape[0] for g in self.groups.values())

    def dof(self, node: int, comp: int) -> int:
        """Global DOF index of component *comp* at *node*."""
        if not 0 <= node < self.n_nodes:
            raise MeshError(f"node {node} out of range")
        if not 0 <= comp < self.dofs_per_node:
            raise MeshError(f"dof component {comp} out of range")
        return node * self.dofs_per_node + comp

    # -- queries ----------------------------------------------------------------

    def element_coords(self, etype_name: str) -> np.ndarray:
        """Node coordinates per element: (E, nn, 2)."""
        conn = self.groups[etype_name]
        return self.coords[conn]

    def element_dofs(self, etype_name: str) -> np.ndarray:
        """Global DOF indices per element: (E, nd)."""
        conn = self.groups[etype_name]
        d = self.dofs_per_node
        return (conn[:, :, None] * d + np.arange(d)[None, None, :]).reshape(
            conn.shape[0], -1
        )

    def nodes_on(self, x: Optional[float] = None,
                 y: Optional[float] = None) -> np.ndarray:
        """Node ids on a vertical (x=...) and/or horizontal (y=...) line."""
        mask = np.ones(self.n_nodes, dtype=bool)
        if x is not None:
            mask &= np.abs(self.coords[:, 0] - x) < 1e-9
        if y is not None:
            mask &= np.abs(self.coords[:, 1] - y) < 1e-9
        return np.nonzero(mask)[0]

    def stats(self) -> Dict[str, int]:
        out = {"nodes": self.n_nodes, "dofs": self.n_dofs, "elements": self.n_elements}
        for name, g in self.groups.items():
            out[f"elements.{name}"] = g.shape[0]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh({self.n_nodes} nodes, {self.n_elements} elements)"


# -- generators -----------------------------------------------------------------

def rect_grid(
    nx: int,
    ny: int,
    lx: float = 1.0,
    ly: float = 1.0,
    kind: str = "quad4",
) -> Mesh:
    """A structured nx-by-ny rectangle of quads or triangles.

    ``nx``/``ny`` count *cells*; the mesh has (nx+1)(ny+1) nodes,
    numbered column-major.
    """
    if nx < 1 or ny < 1:
        raise MeshError(f"grid needs nx, ny >= 1, got {nx}x{ny}")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    coords = np.array([(x, y) for x in xs for y in ys])
    mesh = Mesh(coords)

    def nid(ix: int, iy: int) -> int:
        return ix * (ny + 1) + iy

    cells = []
    for ix in range(nx):
        for iy in range(ny):
            n00 = nid(ix, iy)
            n10 = nid(ix + 1, iy)
            n11 = nid(ix + 1, iy + 1)
            n01 = nid(ix, iy + 1)
            cells.append((n00, n10, n11, n01))  # CCW
    cells = np.array(cells, dtype=int)
    if kind == "quad4":
        mesh.add_elements("quad4", cells)
    elif kind == "tri3":
        tris = np.vstack([cells[:, [0, 1, 2]], cells[:, [0, 2, 3]]])
        mesh.add_elements("tri3", tris)
    else:
        raise MeshError(f"rect_grid supports quad4/tri3, got {kind!r}")
    return mesh


def pratt_truss(n_panels: int, panel: float = 1.0, height: float = 1.0) -> Mesh:
    """A Pratt truss bridge: bottom/top chords, verticals, diagonals.

    ``n_panels`` must be >= 2.  Bottom-chord nodes are 0..n_panels, top
    chord nodes continue after them (over interior panel points).
    """
    if n_panels < 2:
        raise MeshError("pratt_truss needs n_panels >= 2")
    bottom = [(i * panel, 0.0) for i in range(n_panels + 1)]
    top = [(i * panel, height) for i in range(1, n_panels)]
    coords = np.array(bottom + top)
    mesh = Mesh(coords)
    n_b = n_panels + 1

    def top_id(i: int) -> int:  # i in 1..n_panels-1
        return n_b + (i - 1)

    bars: List[Tuple[int, int]] = []
    bars += [(i, i + 1) for i in range(n_panels)]                     # bottom chord
    bars += [(top_id(i), top_id(i + 1)) for i in range(1, n_panels - 1)]  # top chord
    bars += [(i, top_id(i)) for i in range(1, n_panels)]              # verticals
    bars += [(0, top_id(1)), (n_panels, top_id(n_panels - 1))]        # end diagonals
    mid = (n_panels + 1) // 2
    bars += [(top_id(i), i + 1) for i in range(1, mid)]               # diagonals left
    bars += [(top_id(i), i - 1) for i in range(mid, n_panels)]        # diagonals right
    mesh.add_elements("bar2d", np.array(sorted(set(map(tuple, map(sorted, bars))))))
    return mesh
