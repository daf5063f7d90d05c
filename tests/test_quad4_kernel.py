"""The batched Quad4 kernel is byte-identical to the per-point one.

``Quad4`` forms B and |J| for all four Gauss points in one batched call
and keeps the four ``k +=`` accumulations in order.  ``reference_*``
below is the kernel it replaced, kept verbatim as the oracle: one
``_b_at`` per Gauss point, shape derivatives rebuilt on every call.
Stiffness and centroid stresses must match it to the last bit on drawn
convex quads (single elements, batches, skewed and rotated ones) and on
the plates the pools run; a flipped element must still raise.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FEMError
from repro.fem import Material, rect_grid
from repro.fem.elements import GAUSS_POINTS, QUAD4

PROPS = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


def reference_shape_derivs(xi, eta):
    return 0.25 * np.array(
        [
            [-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)],
            [-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)],
        ]
    )


def reference_b_at(coords, xi, eta):
    dn = reference_shape_derivs(xi, eta)
    jac = np.einsum("in,enj->eij", dn, coords)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    if np.any(det <= 0):
        raise FEMError("quad4: non-positive Jacobian (bad node ordering?)")
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv /= det[:, None, None]
    dndx = np.einsum("eij,jn->ein", inv, dn)
    ne = coords.shape[0]
    b = np.zeros((ne, 3, 8))
    b[:, 0, 0::2] = dndx[:, 0, :]
    b[:, 1, 1::2] = dndx[:, 1, :]
    b[:, 2, 0::2] = dndx[:, 1, :]
    b[:, 2, 1::2] = dndx[:, 0, :]
    return b, det


def reference_stiffness(coords, material):
    d = material.d_matrix()
    t = material.thickness
    k = np.zeros((coords.shape[0], 8, 8))
    for xi, eta in GAUSS_POINTS:
        b, det = reference_b_at(coords, xi, eta)
        k += np.einsum("eji,jk,ekl->eil", b, d, b) * (det * t)[:, None, None]
    return k


def reference_stress(coords, material, u):
    u = np.asarray(u, dtype=float).reshape(coords.shape[0], 8)
    b, _ = reference_b_at(coords, 0.0, 0.0)
    strain = np.einsum("eij,ej->ei", b, u)
    return strain @ material.d_matrix().T


@st.composite
def convex_quad(draw):
    """Four counter-clockwise corners on an ellipse (so convex), then
    rotated, skewed, scaled and moved."""
    gaps = [draw(st.floats(0.3, 2.8)) for _ in range(4)]
    angles = np.cumsum(gaps) / sum(gaps) * 2 * np.pi
    angles += draw(st.floats(0, 2 * np.pi))
    quad = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    theta = draw(st.floats(-np.pi, np.pi))
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    skew = np.array([[draw(st.floats(0.2, 5.0)), draw(st.floats(-2.0, 2.0))],
                     [0.0, draw(st.floats(0.2, 5.0))]])
    shift = np.array([draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))])
    return quad @ (rot @ skew).T + shift


materials = st.builds(Material, e=st.floats(1e9, 3e11), nu=st.floats(0.0, 0.45),
                      thickness=st.floats(1e-3, 0.5))


def same_bytes(coords, material, seed=0):
    u = np.random.default_rng(seed).normal(size=(coords.shape[0], 8))
    assert (QUAD4.stiffness(coords, material).tobytes()
            == reference_stiffness(coords, material).tobytes())
    assert (QUAD4.stress(coords, material, u).tobytes()
            == reference_stress(coords, material, u).tobytes())


@PROPS
@given(st.lists(convex_quad(), min_size=1, max_size=6), materials)
def test_drawn_convex_quads_match_the_per_point_kernel(quads, material):
    same_bytes(np.stack(quads), material)


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (4, 2), (12, 6), (24, 12)])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_plates_and_their_worker_slices_match(nx, ny, workers):
    coords = rect_grid(nx, ny, 2.0, 1.0).element_coords("quad4")
    material = Material(e=100e9, nu=0.3, thickness=0.01)
    for part in np.array_split(coords, workers):
        same_bytes(part, material, seed=workers)


def test_flipped_element_still_raises():
    coords = rect_grid(2, 1, 2.0, 1.0).element_coords("quad4").copy()
    coords[1] = coords[1][::-1]  # clockwise node order
    material = Material(e=100e9, nu=0.3, thickness=0.01)
    with pytest.raises(FEMError, match="non-positive Jacobian"):
        QUAD4.stiffness(coords, material)
    with pytest.raises(FEMError, match="non-positive Jacobian"):
        QUAD4.stress(coords, material, np.zeros(16))
