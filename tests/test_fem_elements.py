"""Unit tests for the element library: stiffness properties and
closed-form element behaviour."""

import numpy as np
import pytest

from repro.errors import FEMError
from repro.fem import Material
from repro.fem.elements import BAR2D, QUAD4, TRI3, element_type, known_types

MAT = Material(e=200e9, nu=0.3, area=0.01, inertia=1e-4, thickness=0.02)


def rigid_body_modes_2d(coords):
    """Three rigid-body displacement vectors for a 2-dof/node element."""
    nn = coords.shape[0]
    tx = np.tile([1.0, 0.0], nn)
    ty = np.tile([0.0, 1.0], nn)
    rot = np.empty(2 * nn)
    rot[0::2] = -coords[:, 1]
    rot[1::2] = coords[:, 0]
    return [tx, ty, rot]


class TestRegistry:
    def test_known_types(self):
        assert known_types() == ("bar2d", "quad4", "tri3")

    def test_unknown_type(self):
        with pytest.raises(FEMError):
            element_type("hex20")


class TestBar2D:
    def test_horizontal_bar_stiffness(self):
        coords = np.array([[[0.0, 0.0], [2.0, 0.0]]])
        k = BAR2D.stiffness(coords, MAT)[0]
        ea_l = MAT.e * MAT.area / 2.0
        assert k[0, 0] == pytest.approx(ea_l)
        assert k[0, 2] == pytest.approx(-ea_l)
        assert k[1, 1] == pytest.approx(0.0)

    def test_stiffness_symmetric_psd(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(5, 2, 2)) * 3
        k = BAR2D.stiffness(coords, MAT)
        assert np.allclose(k, np.swapaxes(k, 1, 2))
        for ke, ce in zip(k, coords):
            w = np.linalg.eigvalsh(ke)
            assert w.min() > -1e-3 * abs(w.max())

    def test_rotation_invariance(self):
        """A rotated bar has the same axial stiffness eigenvalue."""
        c0 = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        c45 = np.array([[[0.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]]])
        w0 = np.linalg.eigvalsh(BAR2D.stiffness(c0, MAT)[0])
        w45 = np.linalg.eigvalsh(BAR2D.stiffness(c45, MAT)[0])
        assert np.allclose(sorted(w0), sorted(w45), atol=1e-6 * w0.max())

    def test_axial_stress(self):
        coords = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        u = np.array([[0.0, 0.0, 1e-4, 0.0]])  # elongation 1e-4 over L=1
        s = BAR2D.stress(coords, MAT, u)
        assert s[0, 0] == pytest.approx(MAT.e * 1e-4)

    def test_zero_length_rejected(self):
        coords = np.array([[[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(FEMError):
            BAR2D.stiffness(coords, MAT)

    def test_rigid_translation_gives_no_force(self):
        coords = np.array([[[0.0, 0.0], [1.0, 2.0]]])
        k = BAR2D.stiffness(coords, MAT)[0]
        for mode in rigid_body_modes_2d(coords[0])[:2]:
            assert np.allclose(k @ mode, 0.0, atol=1e-6)


class TestTri3:
    def test_constant_strain_patch(self):
        """Uniform strain field is reproduced exactly (CST is exact)."""
        coords = np.array([[[0.0, 0.0], [2.0, 0.0], [0.0, 1.5]]])
        exx = 1e-4
        u = np.zeros((1, 6))
        u[0, 0::2] = exx * coords[0, :, 0]  # ux = exx * x
        s = TRI3.stress(coords, MAT, u)
        d = MAT.d_matrix()
        assert s[0, 0] == pytest.approx(d[0, 0] * exx)
        assert s[0, 1] == pytest.approx(d[1, 0] * exx)
        assert s[0, 2] == pytest.approx(0.0, abs=1e-3)

    def test_stiffness_symmetric_with_rbm_nullspace(self):
        coords = np.array([[[0.0, 0.0], [1.0, 0.2], [0.3, 1.1]]])
        k = TRI3.stiffness(coords, MAT)[0]
        assert np.allclose(k, k.T)
        for mode in rigid_body_modes_2d(coords[0]):
            assert np.allclose(k @ mode, 0.0, atol=1e-3 * np.abs(k).max())

    def test_inverted_triangle_rejected(self):
        coords = np.array([[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]])  # CW
        with pytest.raises(FEMError):
            TRI3.stiffness(coords, MAT)

    def test_scaling_with_thickness(self):
        coords = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        thick = Material(e=MAT.e, nu=MAT.nu, thickness=0.04)
        thin = Material(e=MAT.e, nu=MAT.nu, thickness=0.02)
        k2 = TRI3.stiffness(coords, thick)[0]
        k1 = TRI3.stiffness(coords, thin)[0]
        assert np.allclose(k2, 2 * k1)


class TestQuad4:
    def test_stiffness_symmetric_with_rbm_nullspace(self):
        coords = np.array([[[0.0, 0.0], [1.2, 0.1], [1.3, 1.2], [-0.1, 1.0]]])
        k = QUAD4.stiffness(coords, MAT)[0]
        assert np.allclose(k, k.T, atol=1e-6 * np.abs(k).max())
        for mode in rigid_body_modes_2d(coords[0]):
            assert np.allclose(k @ mode, 0.0, atol=1e-3 * np.abs(k).max())

    def test_constant_strain_patch(self):
        coords = np.array([[[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]])
        exx = 2e-4
        u = np.zeros((1, 8))
        u[0, 0::2] = exx * coords[0, :, 0]
        s = QUAD4.stress(coords, MAT, u)
        d = MAT.d_matrix()
        assert s[0, 0] == pytest.approx(d[0, 0] * exx, rel=1e-9)

    def test_bad_node_ordering_rejected(self):
        coords = np.array([[[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]])  # CW
        with pytest.raises(FEMError):
            QUAD4.stiffness(coords, MAT)

    def test_quad_matches_two_triangles_on_rigid_patch(self):
        """Quad and its two-triangle split agree on the constant field."""
        quad = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
        tris = np.array(
            [
                [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            ]
        )
        exx = 1e-4
        uq = np.zeros((1, 8))
        uq[0, 0::2] = exx * quad[0, :, 0]
        ut = np.zeros((2, 6))
        ut[:, 0::2] = exx * tris[:, :, 0]
        sq = QUAD4.stress(quad, MAT, uq)
        st = TRI3.stress(tris, MAT, ut)
        assert np.allclose(sq[0], st[0], rtol=1e-9)
        assert np.allclose(st[0], st[1], rtol=1e-9)


class TestValidation:
    def test_bad_coord_shape_rejected(self):
        with pytest.raises(FEMError):
            BAR2D.stiffness(np.zeros((3, 3, 2)), MAT)

    def test_flops_positive(self):
        for name in known_types():
            assert element_type(name).flops_per_stiffness() > 0
