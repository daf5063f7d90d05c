"""Unit tests for meshes, grid generation, loads, and constraints."""

import numpy as np
import pytest

from repro.errors import FEMError, MeshError
from repro.fem import (
    Constraints,
    LoadSet,
    Mesh,
    STEEL,
    pratt_truss,
    rect_grid,
)


class TestMesh:
    def test_basic_construction(self):
        m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        m.add_elements("tri3", [[0, 1, 2]])
        assert m.n_nodes == 3 and m.n_dofs == 6 and m.n_elements == 1

    def test_bad_coords_rejected(self):
        with pytest.raises(MeshError):
            Mesh(np.zeros((3, 3)))

    def test_dof_numbering(self):
        m = Mesh(np.zeros((4, 2)))
        assert m.dof(2, 1) == 5
        with pytest.raises(MeshError):
            m.dof(4, 0)
        with pytest.raises(MeshError):
            m.dof(0, 2)

    def test_connectivity_validation(self):
        m = Mesh(np.zeros((3, 2)))
        with pytest.raises(MeshError):
            m.add_elements("tri3", [[0, 1, 5]])  # out of range
        with pytest.raises(MeshError):
            m.add_elements("tri3", [[0, 1, 1]])  # repeated node
        with pytest.raises(MeshError):
            m.add_elements("tri3", [[0, 1]])  # wrong arity

    def test_element_dofs_map(self):
        m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        m.add_elements("tri3", [[0, 2, 1]])
        assert list(m.element_dofs("tri3")[0]) == [0, 1, 4, 5, 2, 3]

    def test_add_elements_appends(self):
        m = Mesh(np.zeros((4, 2)))
        m.add_elements("bar2d", [[0, 1]])
        m.add_elements("bar2d", [[2, 3]])
        assert m.groups["bar2d"].shape == (2, 2)

    def test_queries(self):
        m = rect_grid(2, 2, 2.0, 2.0)
        left = m.nodes_on(x=0.0)
        assert len(left) == 3
        assert np.allclose(m.coords[left][:, 0], 0.0)
        corner = m.nodes_on(x=0.0, y=0.0)
        assert len(corner) == 1 and np.allclose(m.coords[corner], 0.0)


class TestGenerators:
    def test_rect_grid_quads(self):
        m = rect_grid(3, 2, 3.0, 2.0)
        assert m.n_nodes == 12
        assert m.groups["quad4"].shape == (6, 4)

    def test_rect_grid_column_major_numbering(self):
        """Strip partitions depend on contiguous per-column numbering."""
        m = rect_grid(2, 3)
        # node (ix, iy) = ix*(ny+1)+iy: first column is nodes 0..3
        assert np.allclose(m.coords[:4, 0], 0.0)
        assert np.all(np.diff(m.coords[:4, 1]) > 0)

    def test_rect_grid_tris(self):
        m = rect_grid(2, 2, kind="tri3")
        assert m.groups["tri3"].shape == (8, 3)

    def test_rect_grid_validation(self):
        with pytest.raises(MeshError):
            rect_grid(0, 2)
        with pytest.raises(MeshError):
            rect_grid(2, 2, kind="hex8")

    def test_pratt_truss_connected(self):
        import networkx as nx

        m = pratt_truss(4)
        g = nx.Graph()
        g.add_edges_from(map(tuple, m.groups["bar2d"]))
        assert nx.is_connected(g)
        assert g.number_of_nodes() == m.n_nodes

    def test_pratt_truss_minimum_panels(self):
        with pytest.raises(MeshError):
            pratt_truss(1)


class TestLoadSet:
    def test_nodal_loads_accumulate(self):
        m = rect_grid(1, 1)
        ls = LoadSet("test").add_nodal(1, 0, 10.0).add_nodal(1, 0, 5.0)
        f = ls.vector(m)
        assert f[m.dof(1, 0)] == 15.0
        assert np.count_nonzero(f) == 1

    def test_add_nodal_many(self):
        m = rect_grid(2, 2)
        nodes = m.nodes_on(x=0.0)
        ls = LoadSet().add_nodal_many(nodes, 1, -2.0)
        f = ls.vector(m)
        assert sum(f) == pytest.approx(-2.0 * len(nodes))

    def test_gravity_total_weight(self):
        m = rect_grid(2, 2, 1.0, 1.0)
        ls = LoadSet().set_gravity(0.0, -9.81)
        f = ls.vector(m)
        total = f[1::2].sum()
        expected = -9.81 * STEEL.density * 1.0 * 1.0 * STEEL.thickness
        assert total == pytest.approx(expected, rel=1e-9)


class TestConstraints:
    def test_fix_and_free_sets(self):
        m = rect_grid(1, 1)
        c = Constraints(m).fix(0).fix(1, comps=[1])
        assert set(c.fixed_dofs) == {0, 1, 3}
        assert len(c.free_dofs) == m.n_dofs - 3

    def test_conflicting_prescription_rejected(self):
        m = rect_grid(1, 1)
        c = Constraints(m).prescribe(0, 0, 1.0)
        with pytest.raises(FEMError):
            c.prescribe(0, 0, 2.0)
        c.prescribe(0, 0, 1.0)  # same value is fine

    def test_reduce_expand_roundtrip_dense(self):
        m = rect_grid(1, 1)
        c = Constraints(m).fix_nodes([0, 1])
        k = np.eye(m.n_dofs) * 2.0
        f = np.ones(m.n_dofs)
        k_ff, f_f = c.reduce(k, f)
        assert k_ff.shape == (4, 4)
        u = c.expand(np.linalg.solve(k_ff, f_f))
        assert np.allclose(u[c.fixed_dofs], 0.0)
        assert np.allclose(u[c.free_dofs], 0.5)

    def test_prescribed_displacement_moves_to_rhs(self):
        m = rect_grid(1, 1)
        c = Constraints(m)
        for node in range(m.n_nodes):
            c.prescribe(node, 1, 0.0)
        c.prescribe(0, 0, 0.0)
        c.prescribe(1, 0, 0.01)
        import scipy.sparse as sp

        k = sp.csr_matrix(np.eye(m.n_dofs) + 0.1)
        f = np.zeros(m.n_dofs)
        k_ff, f_f = c.reduce(k, f)
        # rhs picks up -K_fc * u_c, nonzero because of the 0.01
        assert np.any(f_f != 0.0)

    def test_expand_inserts_prescribed_values(self):
        m = rect_grid(1, 1)
        c = Constraints(m).prescribe(0, 0, 0.5)
        u = c.expand(np.zeros(len(c.free_dofs)))
        assert u[0] == 0.5
