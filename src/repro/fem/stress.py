"""Element stress recovery ("Calculate stresses")."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import FEMError
from .elements import element_type
from .materials import Material
from .mesh import Mesh


def recover_stresses(
    mesh: Mesh, material: Material, u: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per element type: stresses (E, n_components) from displacements."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != mesh.n_dofs:
        raise FEMError(f"displacement vector has {u.shape[0]} dofs, mesh has {mesh.n_dofs}")
    out = {}
    for name in mesh.groups:
        et = element_type(name)
        dofs = mesh.element_dofs(name)
        out[name] = et.stress(mesh.element_coords(name), material, u[dofs])
    return out


def von_mises_plane(sigma: np.ndarray) -> np.ndarray:
    """Von Mises equivalent stress from (E, 3) plane components."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[1] != 3:
        raise FEMError(f"expected (E, 3) plane stresses, got {sigma.shape}")
    sxx, syy, sxy = sigma[:, 0], sigma[:, 1], sigma[:, 2]
    return np.sqrt(sxx**2 - sxx * syy + syy**2 + 3.0 * sxy**2)
