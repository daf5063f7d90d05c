"""Validation of assembly and solvers against closed-form mechanics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.fem import (
    Constraints,
    LoadSet,
    Material,
    Mesh,
    assemble_stiffness,
    cholesky_factor,
    conjugate_gradient,
    jacobi,
    pratt_truss,
    rect_grid,
    solve_cholesky,
    solve_sparse_lu,
    sor,
    static_solve,
    von_mises_plane,
)

MAT = Material(e=200e9, nu=0.3, area=0.01, inertia=1e-5, thickness=0.01)


def spd_system(n=30, seed=0):
    """SPD and strictly diagonally dominant, so every iterative method
    (including plain Jacobi) converges."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = a @ a.T
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    b = rng.normal(size=n)
    return a, b


class TestAssembly:
    def test_global_stiffness_symmetric(self):
        m = rect_grid(3, 3)
        k = assemble_stiffness(m, MAT)
        assert (abs(k - k.T)).max() < 1e-6 * abs(k).max()

    def test_dense_format(self):
        m = rect_grid(2, 2)
        kd = assemble_stiffness(m, MAT, fmt="dense")
        ks = assemble_stiffness(m, MAT).toarray()
        assert np.allclose(kd, ks)


class TestClosedForm:
    def test_axial_bar(self):
        """End-loaded bar: u = PL/EA."""
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        m = Mesh(coords)
        m.add_elements("bar2d", [[0, 1], [1, 2]])
        c = Constraints(m).fix(0)
        # pin transverse dofs so the truss is not a mechanism
        c.prescribe(1, 1, 0.0)
        c.prescribe(2, 1, 0.0)
        p = 1e6
        loads = LoadSet().add_nodal(2, 0, p)
        r = static_solve(m, MAT, c, loads)
        assert r.u[m.dof(2, 0)] == pytest.approx(p * 2.0 / (MAT.e * MAT.area))
        # reaction balances the applied load
        assert r.reactions.sum() == pytest.approx(-p, rel=1e-9)

    def test_plane_stress_patch_uniform_tension(self):
        """Uniform tension on a quad grid: sxx = sigma everywhere."""
        sigma = 1e6
        lx, ly = 2.0, 1.0
        m = rect_grid(4, 2, lx, ly)
        c = Constraints(m)
        for nid in m.nodes_on(x=0.0):
            c.prescribe(nid, 0, 0.0)
        c.prescribe(int(m.nodes_on(x=0.0, y=0.0)[0]), 1, 0.0)
        right = m.nodes_on(x=lx)
        edge_force = sigma * MAT.thickness * ly
        loads = LoadSet()
        for nid in right:
            y = m.coords[nid, 1]
            weight = 0.5 if (y in (0.0, ly)) else 1.0
            loads.add_nodal(nid, 0, edge_force * weight / (len(right) - 1))
        r = static_solve(m, MAT, c, loads, with_stresses=True)
        sxx = r.stresses["quad4"][:, 0]
        assert np.allclose(sxx, sigma, rtol=1e-6)
        # tip displacement = sigma * L / E
        tip = int(m.nodes_on(x=lx, y=0.0)[0])
        assert r.u[m.dof(tip, 0)] == pytest.approx(sigma * lx / MAT.e, rel=1e-6)

    def test_truss_bridge_deflects_downward(self):
        m = pratt_truss(6, panel=2.0, height=2.0)
        c = Constraints(m).fix(0)          # pin
        c.prescribe(6, 1, 0.0)             # roller at far bottom node
        loads = LoadSet().add_nodal(3, 1, -1e5)
        r = static_solve(m, MAT, c, loads, with_stresses=True)
        assert r.u[m.dof(3, 1)] < 0
        assert np.abs(r.stresses["bar2d"]).max() > 0

    def test_von_mises(self):
        s = np.array([[1e6, 0.0, 0.0]])
        assert von_mises_plane(s)[0] == pytest.approx(1e6)
        s2 = np.array([[0.0, 0.0, 1e6]])
        assert von_mises_plane(s2)[0] == pytest.approx(np.sqrt(3) * 1e6)


class TestSolvers:
    def test_cholesky_factor_reconstructs(self):
        a, _ = spd_system(20)
        l = cholesky_factor(a)
        assert np.allclose(l @ l.T, a)
        assert np.allclose(l, np.tril(l))

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(SolverError):
            cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_all_solvers_agree(self):
        a, b = spd_system(40)
        x_ref = np.linalg.solve(a, b)
        assert np.allclose(solve_sparse_lu(sp.csr_matrix(a), b).x, x_ref)
        assert np.allclose(solve_cholesky(a, b).x, x_ref)
        assert np.allclose(conjugate_gradient(a, b, tol=1e-12).x, x_ref)
        assert np.allclose(
            conjugate_gradient(a, b, tol=1e-12, preconditioner="jacobi").x, x_ref
        )
        assert np.allclose(jacobi(a, b, tol=1e-12).x, x_ref)
        assert np.allclose(sor(sp.csr_matrix(a), b, tol=1e-12).x, x_ref, atol=1e-6)

    def test_cg_converges_in_at_most_n_iterations(self):
        a, b = spd_system(25)
        r = conjugate_gradient(a, b, tol=1e-10)
        assert r.converged
        assert r.iterations <= 25 + 2
        assert r.residual_history[-1] < r.residual_history[0]

    def test_cg_rejects_non_spd(self):
        a = -np.eye(5)
        with pytest.raises(SolverError):
            conjugate_gradient(a, np.ones(5))

    def test_jacobi_preconditioner_helps_on_scaled_system(self):
        rng = np.random.default_rng(3)
        d = np.diag(10.0 ** rng.uniform(0, 4, size=50))
        a, b = spd_system(50, seed=4)
        a = d @ a @ d
        b = d @ b
        plain = conjugate_gradient(a, b, tol=1e-8, max_iter=2000)
        pre = conjugate_gradient(a, b, tol=1e-8, max_iter=2000, preconditioner="jacobi")
        assert pre.iterations < plain.iterations

    def test_sor_faster_than_jacobi(self):
        m = rect_grid(4, 4)
        k = assemble_stiffness(m, MAT)
        c = Constraints(m).fix_nodes(m.nodes_on(x=0.0))
        f = LoadSet().add_nodal_many(m.nodes_on(x=1.0), 0, 1e4).vector(m)
        k_ff, f_f = c.reduce(k, f)
        # scale to O(1) so tolerances behave
        scale = abs(k_ff).max()
        rj = jacobi(k_ff / scale, f_f / scale, tol=1e-6, max_iter=50_000)
        rs = sor(k_ff / scale, f_f / scale, tol=1e-6, max_iter=50_000)
        assert rs.converged
        if rj.converged:
            assert rs.iterations < rj.iterations

    def test_static_solve_cg_matches_lu(self):
        m = rect_grid(4, 3)
        c = Constraints(m).fix_nodes(m.nodes_on(x=0.0))
        loads = LoadSet().add_nodal_many(m.nodes_on(x=1.0), 1, -1e4)
        r_lu = static_solve(m, MAT, c, loads)
        r_cg = static_solve(m, MAT, c, loads, method="cg", tol=1e-12)
        assert np.allclose(r_lu.u, r_cg.u, atol=1e-10 * abs(r_lu.u).max())

    def test_unknown_method_rejected(self):
        m = rect_grid(1, 1)
        with pytest.raises(SolverError):
            static_solve(m, MAT, Constraints(m).fix(0), LoadSet(), method="magic")

    def test_unconstrained_system_fails(self):
        m = rect_grid(2, 2)
        with pytest.raises(SolverError):
            static_solve(m, MAT, Constraints(m), LoadSet().add_nodal(0, 0, 1.0))
