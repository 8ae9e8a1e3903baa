"""Simplex engine: warm starts from earlier bases (including bases that keep
artificial columns) and the numerical recovery ladder."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from platoonopt import mip, netmodel as nm, routing, rshm, simplex

DATA = Path(__file__).parent / "data"


def _rank_deficient_lp():
    """Two copies of one equality row: phase 1 must leave the second row's
    artificial column basic at zero."""
    a = sp.csc_matrix(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]))
    b = np.array([1.0, 2.0])
    c = np.array([1.0, 2.0, 3.0])
    return a, b, c, np.zeros(3), np.full(3, np.inf)


def _small_rdp(seed=0):
    """Standard-form routing LP of a 4-vehicle instance, priced first by the
    initial cost table and then by the table of the heuristic's second
    iteration.  Returns (A, b, lo, hi, c_first, c_second)."""
    grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
    inst = nm.generate_two_cluster(grid, 4, seed=seed)
    state = rshm.run(inst, rshm.RshmOptions(iter_cap=1)).state
    handle = routing.build_rdp(inst, state.tables[1])
    a, b, c1, lo, hi, *_ = mip._standard_form(handle.model)
    routing.set_rdp_costs(handle, state.tables[2], 2)
    a2, b2, c2, lo2, hi2, *_ = mip._standard_form(handle.model)
    assert (a != a2).nnz == 0 and np.array_equal(b, b2)
    assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
    assert not np.array_equal(c1, c2)
    return a, b, lo, hi, c1, c2


class TestWarmStart:
    def test_artificial_basis_accepted_without_pivots(self):
        a, b, c, lo, hi = _rank_deficient_lp()
        cold = simplex.solve(a, b, c, lo, hi)
        assert cold.status == "optimal"
        n = a.shape[1]
        assert cold.basis.max() >= n           # an artificial stayed basic
        assert len(cold.x) == n and len(cold.vstatus) == n
        warm = simplex.solve(a, b, c, lo, hi, start=(cold.basis, cold.vstatus))
        assert warm.status == "optimal"
        assert warm.iterations == 0
        assert warm.objective == cold.objective
        assert np.array_equal(warm.basis, cold.basis)
        assert len(warm.x) == n and len(warm.vstatus) == n

    def test_artificial_basis_reoptimizes_new_objective(self):
        a, b, c, lo, hi = _rank_deficient_lp()
        cold = simplex.solve(a, b, c, lo, hi)
        c2 = np.array([3.0, 2.0, 1.0])
        warm = simplex.solve(a, b, c2, lo, hi, start=(cold.basis, cold.vstatus))
        ref = simplex.solve(a, b, c2, lo, hi)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(ref.objective, abs=1e-12)
        assert np.allclose(a @ warm.x, b)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repriced_rdp_matches_cold_in_fewer_pivots(self, seed):
        a, b, lo, hi, c1, c2 = _small_rdp(seed)
        first = simplex.solve(a, b, c1, lo, hi)
        assert first.basis.max() >= a.shape[1]  # degenerate: artificials left
        cold = simplex.solve(a, b, c2, lo, hi)
        warm = simplex.solve(a, b, c2, lo, hi, start=(first.basis, first.vstatus))
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.iterations < cold.iterations
        assert np.all(warm.x >= lo - 1e-9) and np.all(warm.x <= hi + 1e-9)
        assert np.allclose(a @ warm.x, b, atol=1e-9)

    def test_wrong_shape_falls_back_to_cold(self):
        a, b, lo, hi, c1, c2 = _small_rdp()
        first = simplex.solve(a, b, c1, lo, hi)
        cold = simplex.solve(a, b, c2, lo, hi)
        m, n = a.shape
        starts = [(first.basis[:-1], first.vstatus),
                  (first.basis, first.vstatus[:-1]),
                  (np.full(m, n + m), first.vstatus),
                  (first.basis, np.zeros(n, dtype=np.int8))]
        for start in starts:
            warm = simplex.solve(a, b, c2, lo, hi, start=start)
            assert warm.objective == cold.objective
            assert warm.iterations == cold.iterations
            assert np.array_equal(warm.x, cold.x)

    def test_primal_infeasible_start_falls_back_to_cold(self):
        # Fix a basic variable away from its value, as branching does.
        a, b, lo, hi, c1, c2 = _small_rdp()
        first = simplex.solve(a, b, c1, lo, hi)
        n = a.shape[1]
        j = next(int(j) for j in first.basis
                 if j < n and first.x[j] > 0.5 and hi[j] == 1.0)
        lo2, hi2 = lo.copy(), hi.copy()
        hi2[j] = 0.0
        cold = simplex.solve(a, b, c2, lo2, hi2)
        warm = simplex.solve(a, b, c2, lo2, hi2, start=(first.basis, first.vstatus))
        assert warm.status == cold.status
        assert warm.objective == cold.objective
        assert warm.iterations == cold.iterations


class TestRecovery:
    def test_drifting_eta_file_recovered_by_frequent_refactorization(self):
        # A scheduling branch-and-bound node LP (387 rows) whose eta file,
        # refactorized every 64 pivots, drifted until the basis read as
        # singular; refactorizing more often shows it is infeasible.
        d = np.load(DATA / "sched_node_singular.npz")
        a = sp.csc_matrix((d["data"], d["indices"], d["indptr"]),
                          shape=tuple(d["shape"]))
        res = simplex.solve(a, d["b"], d["c"], d["lo"], d["hi"])
        assert res.status == "infeasible"
