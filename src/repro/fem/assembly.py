"""Global stiffness assembly (sparse, vectorized).

Element stiffness batches come from the element library; scatter into
the global matrix uses the standard COO triplet construction with no
per-element Python loop, per the HPC guides' vectorization rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from ..errors import FEMError
from .elements import element_type
from .materials import Material
from .mesh import Mesh

if TYPE_CHECKING:
    import scipy.sparse as sp


def element_stiffness_batches(
    mesh: Mesh, material: Material
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Per element type: (k_batch (E, nd, nd), dof_map (E, nd))."""
    out = {}
    for name in mesh.groups:
        et = element_type(name)
        k = et.stiffness(mesh.element_coords(name), material)
        out[name] = (k, mesh.element_dofs(name))
    return out


def assemble_stiffness(
    mesh: Mesh, material: Material, fmt: str = "csr"
) -> sp.spmatrix:
    """Assemble the global stiffness matrix of *mesh*.

    ``fmt`` is any scipy sparse format name; ``"dense"`` returns an
    ndarray (used by the simulated parallel solver, whose windows are
    dense).
    """
    import scipy.sparse as sp

    if not mesh.groups:
        raise FEMError("mesh has no elements")
    rows, cols, vals = [], [], []
    for name, (k, dofs) in element_stiffness_batches(mesh, material).items():
        ne, nd = dofs.shape
        rows.append(np.repeat(dofs, nd, axis=1).ravel())
        cols.append(np.tile(dofs, (1, nd)).ravel())
        vals.append(k.ravel())
    k_coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_dofs, mesh.n_dofs),
    )
    if fmt == "dense":
        return k_coo.toarray()
    return k_coo.asformat(fmt)
