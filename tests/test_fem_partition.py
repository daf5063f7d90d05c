"""Tests for domain partitioning and host-side substructure analysis."""

import numpy as np
import pytest

from repro.fem import (
    Constraints,
    LoadSet,
    Material,
    interface_dofs,
    partition_bisection,
    partition_strips,
    rect_grid,
    shared_nodes,
    static_solve,
    subdomain_stiffness,
    substructure_solve,
    assemble_stiffness,
)

MAT = Material(e=70e9, nu=0.3, thickness=0.01)


def cantilever_problem(nx=6, ny=3):
    m = rect_grid(nx, ny, 2.0, 1.0)
    c = Constraints(m).fix_nodes(m.nodes_on(x=0.0))
    loads = LoadSet().add_nodal_many(m.nodes_on(x=2.0), 1, -1e4)
    return m, c, loads


class TestPartitions:
    @pytest.mark.parametrize("partitioner", [partition_strips, partition_bisection])
    def test_every_element_exactly_once(self, partitioner):
        m = rect_grid(6, 4)
        subs = partitioner(m, 4)
        seen = []
        for s in subs:
            seen.extend(s.element_rows.get("quad4", []))
        assert sorted(seen) == list(range(m.groups["quad4"].shape[0]))

    def test_strip_balance(self):
        m = rect_grid(8, 4)
        subs = partition_strips(m, 4)
        sizes = [len(s.element_rows["quad4"]) for s in subs]
        assert sizes == [8, 8, 8, 8]

    def test_strips_have_tight_hulls(self):
        m = rect_grid(8, 4)
        subs = partition_strips(m, 4)
        # strips over column-major numbering: each hull spans ~ 3 columns
        per_col = (4 + 1) * 2
        for s in subs:
            assert s.hull_words <= 3 * per_col + per_col

    def test_more_parts_than_elements_clamped(self):
        m = rect_grid(1, 2)
        subs = partition_strips(m, 10)
        assert len(subs) == 2

    def test_shared_nodes_are_seams(self):
        m = rect_grid(4, 2)
        subs = partition_strips(m, 2)
        seam = shared_nodes(subs)
        # the seam is one node column: ny+1 nodes
        assert len(seam) == 3
        assert np.allclose(m.coords[seam][:, 0], m.coords[seam][0, 0])

    def test_interface_dofs(self):
        m = rect_grid(4, 2)
        subs = partition_strips(m, 2)
        assert len(interface_dofs(m, subs)) == 6

    def test_bisection_handles_odd_counts(self):
        m = rect_grid(5, 3)
        subs = partition_bisection(m, 3)
        assert sum(len(s.element_rows["quad4"]) for s in subs) == 15
        assert len(subs) == 3


class TestSubdomainStiffness:
    def test_subdomain_stiffnesses_sum_to_global(self):
        m, _, _ = cantilever_problem(4, 2)
        k_global = assemble_stiffness(m, MAT, fmt="dense")
        subs = partition_strips(m, 2)
        total = np.zeros_like(k_global)
        for s in subs:
            k_s, dofs = subdomain_stiffness(m, MAT, s)
            total[np.ix_(dofs, dofs)] += k_s
        assert np.allclose(total, k_global)


class TestSubstructureSolve:
    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_matches_direct_solve(self, parts):
        m, c, loads = cantilever_problem()
        ref = static_solve(m, MAT, c, loads)
        sol = substructure_solve(m, MAT, c, loads, n_substructures=parts)
        assert np.allclose(sol.u, ref.u, atol=1e-9 * abs(ref.u).max() + 1e-15)

    def test_single_substructure_degenerates_to_direct(self):
        m, c, loads = cantilever_problem(3, 2)
        ref = static_solve(m, MAT, c, loads)
        sol = substructure_solve(m, MAT, c, loads, n_substructures=1)
        assert np.allclose(sol.u, ref.u, atol=1e-9 * abs(ref.u).max())

    def test_solution_metadata(self):
        m, c, loads = cantilever_problem()
        sol = substructure_solve(m, MAT, c, loads, n_substructures=3)
        assert sol.interface_size > 0
        assert len(sol.interior_sizes) == 3
        assert sol.condensation_flops > 0

    def test_with_bisection_partitions(self):
        from repro.fem import partition_bisection

        m, c, loads = cantilever_problem()
        ref = static_solve(m, MAT, c, loads)
        subs = partition_bisection(m, 4)
        sol = substructure_solve(m, MAT, c, loads, subs=subs)
        assert np.allclose(sol.u, ref.u, atol=1e-9 * abs(ref.u).max())
