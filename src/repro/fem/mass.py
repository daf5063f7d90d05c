"""Element and global mass matrices (for modal analysis).

Both lumped (diagonal) and consistent formulations, per element type.
Lumped mass is what the 1983-era FEM codes ran; consistent mass is the
accuracy reference.  Global assembly mirrors the stiffness path.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import FEMError
from .elements import element_type
from .materials import Material
from .mesh import Mesh


def _bar_lengths(coords: np.ndarray) -> np.ndarray:
    return np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1)


def _tri_areas(coords: np.ndarray) -> np.ndarray:
    x, y = coords[:, :, 0], coords[:, :, 1]
    return 0.5 * np.abs(
        x[:, 0] * (y[:, 1] - y[:, 2])
        + x[:, 1] * (y[:, 2] - y[:, 0])
        + x[:, 2] * (y[:, 0] - y[:, 1])
    )


def _quad_areas(coords: np.ndarray) -> np.ndarray:
    a1 = _tri_areas(coords[:, [0, 1, 2], :])
    a2 = _tri_areas(coords[:, [0, 2, 3], :])
    return a1 + a2


def element_mass(etype_name: str, coords: np.ndarray, material: Material,
                 lumped: bool = True) -> np.ndarray:
    """Batched element mass matrices (E, nd, nd)."""
    et = element_type(etype_name)
    coords = et.validate_coords(coords)
    ne = coords.shape[0]
    rho = material.density
    nd = et.dofs_per_element

    if etype_name == "bar2d":
        m_tot = rho * material.area * _bar_lengths(coords)
        if lumped:
            m = np.zeros((ne, 4, 4))
            for i in range(4):
                m[:, i, i] = m_tot / 2.0
            return m
        # consistent: axial/transverse both (standard rod in 2-D)
        base = np.array([[2, 0, 1, 0], [0, 2, 0, 1], [1, 0, 2, 0], [0, 1, 0, 2]]) / 6.0
        return m_tot[:, None, None] * base[None, :, :]

    if etype_name == "beam2d":
        length = _bar_lengths(coords)
        m_tot = rho * material.area * length
        if lumped:
            m = np.zeros((ne, 6, 6))
            for i in (0, 1, 3, 4):
                m[:, i, i] = m_tot / 2.0
            # lumped rotary inertia (HRZ-style fraction of m L^2)
            rot = m_tot * length**2 / 78.0
            m[:, 2, 2] = rot
            m[:, 5, 5] = rot
            return m
        # consistent Euler beam mass (local axes ~ global for this model)
        m = np.zeros((ne, 6, 6))
        l = length
        ax = m_tot / 6.0
        m[:, 0, 0] = m[:, 3, 3] = 2 * ax
        m[:, 0, 3] = m[:, 3, 0] = ax
        c = m_tot / 420.0
        m[:, 1, 1] = m[:, 4, 4] = 156 * c
        m[:, 1, 4] = m[:, 4, 1] = 54 * c
        m[:, 2, 2] = m[:, 5, 5] = 4 * l * l * c
        m[:, 2, 5] = m[:, 5, 2] = -3 * l * l * c
        m[:, 1, 2] = m[:, 2, 1] = 22 * l * c
        m[:, 4, 5] = m[:, 5, 4] = -22 * l * c
        m[:, 1, 5] = m[:, 5, 1] = -13 * l * c
        m[:, 2, 4] = m[:, 4, 2] = 13 * l * c
        return m

    if etype_name == "tri3":
        m_tot = rho * material.thickness * _tri_areas(coords)
        if lumped:
            m = np.zeros((ne, 6, 6))
            for i in range(6):
                m[:, i, i] = m_tot / 3.0
            return m
        base = np.zeros((6, 6))
        sub = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
        base[0::2, 0::2] = sub
        base[1::2, 1::2] = sub
        return m_tot[:, None, None] * base[None, :, :]

    if etype_name == "quad4":
        m_tot = rho * material.thickness * _quad_areas(coords)
        if lumped:
            m = np.zeros((ne, 8, 8))
            for i in range(8):
                m[:, i, i] = m_tot / 4.0
            return m
        # consistent via 2x2 Gauss on N^T N (exact for rectangles)
        from .elements.quad import GAUSS_POINTS

        m = np.zeros((ne, 8, 8))
        for xi, eta in GAUSS_POINTS:
            n_vals = 0.25 * np.array([
                (1 - xi) * (1 - eta), (1 + xi) * (1 - eta),
                (1 + xi) * (1 + eta), (1 - xi) * (1 + eta),
            ])
            dn = 0.25 * np.array([
                [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
                [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
            ])
            jac = np.einsum("in,enj->eij", dn, coords)
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            nn = np.zeros((8, 8))
            nmat = np.zeros((2, 8))
            nmat[0, 0::2] = n_vals
            nmat[1, 1::2] = n_vals
            nn = nmat.T @ nmat
            m += (rho * material.thickness * det)[:, None, None] * nn[None, :, :]
        return m

    if etype_name == "quad8":
        # straight-edged serendipity quad: corner coordinates give the area
        m_tot = rho * material.thickness * _quad_areas(coords[:, :4, :])
        if lumped:
            m = np.zeros((ne, 16, 16))
            for i in range(16):
                m[:, i, i] = m_tot / 8.0
            return m
        from .elements.quad8 import GAUSS_POINTS_3x3, shape_functions, shape_derivs

        m = np.zeros((ne, 16, 16))
        for xi, eta, w in GAUSS_POINTS_3x3:
            n_vals = shape_functions(xi, eta)
            dn = shape_derivs(xi, eta)
            jac = np.einsum("in,enj->eij", dn, coords)
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            nmat = np.zeros((2, 16))
            nmat[0, 0::2] = n_vals
            nmat[1, 1::2] = n_vals
            nn = nmat.T @ nmat
            m += (w * rho * material.thickness * det)[:, None, None] * nn[None, :, :]
        return m

    raise FEMError(f"no mass formulation for element type {etype_name!r}")


def assemble_mass(mesh: Mesh, material: Material, lumped: bool = True,
                  fmt: str = "csr"):
    """Assemble the global mass matrix."""
    import scipy.sparse as sp

    if not mesh.groups:
        raise FEMError("mesh has no elements")
    rows, cols, vals = [], [], []
    for name in mesh.groups:
        m_batch = element_mass(name, mesh.element_coords(name), material, lumped)
        dofs = mesh.element_dofs(name)
        ne, nd = dofs.shape
        rows.append(np.repeat(dofs, nd, axis=1).ravel())
        cols.append(np.tile(dofs, (1, nd)).ravel())
        vals.append(m_batch.ravel())
    m_coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_dofs, mesh.n_dofs),
    )
    if fmt == "dense":
        return m_coo.toarray()
    return m_coo.asformat(fmt)


def total_mass(mesh: Mesh, material: Material) -> float:
    """Total structural mass (translational), an assembly sanity check."""
    m = assemble_mass(mesh, material, lumped=True)
    diag = m.diagonal()
    # sum over x-translation dofs only (every node counts once)
    return float(diag[0::mesh.dofs_per_node].sum())
