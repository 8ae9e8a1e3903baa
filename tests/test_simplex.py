"""LP seam: ranged rows and the model's own columns, answers matching the
embedded revised simplex it replaced (kept in ``reference_simplex``, fed
its slack layout by ``conftest.reference_solve``), root starts built from a
seed point, warm starts from earlier bases (including bases that keep an
equality row basic), restarts after branching bounds and added rows, how
the HiGHS extension is found, and an LP that once broke the old engine."""

import functools
import gc
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from platoonopt import cuts, mip, netmodel as nm, routing, rshm, simplex
from platoonopt.simplex import BASIC, LOWER, UPPER

from conftest import (add_cut, branching_sp_handle, branching_sp_model,
                      extend_start, ranged_rows, reference_solve, variables)

DATA = Path(__file__).parent / "data"


def _rank_deficient_lp():
    """Two copies of one equality row: one of them must stay basic."""
    mat = simplex.Matrix(sp.csc_matrix(np.array([[1.0, 1.0, 1.0],
                                                 [2.0, 2.0, 2.0]])),
                         [1.0, 2.0], [1.0, 2.0])
    return mat, np.array([1.0, 2.0, 3.0]), np.zeros(3), np.full(3, np.inf)


def _basic_rows(basis):
    return [i for i, s in enumerate(basis.row_status) if s == BASIC]


def _equality_rows(mat):
    return np.flatnonzero(mat.rlo == mat.rhi)


def _in_rows(mat, x, tol=simplex.FEAS_TOL):
    """Whether ``x`` satisfies every row of ``mat`` within ``tol``."""
    act = mat.a @ x
    return bool(np.all(act >= mat.rlo - tol) and np.all(act <= mat.rhi + tol))


def _small_rdp(seed=0):
    """Routing LP of a 4-vehicle instance, priced first by the initial cost
    table and then by the table of the heuristic's second iteration.
    Returns (Matrix, lo, hi, c_first, c_second)."""
    grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
    inst = nm.generate_two_cluster(grid, 4, seed=seed)
    state = rshm.run(inst, rshm.RshmOptions(iter_cap=1)).state
    handle = routing.build_rdp(inst)
    rows = handle.model.compiled_rows()
    c1, lo, hi, _ = mip._columns(handle.model)
    routing.set_rdp_costs(handle, state.tables[2])
    c2, lo2, hi2, _ = mip._columns(handle.model)
    assert handle.model.compiled_rows() is rows
    assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
    assert not np.array_equal(c1, c2)
    return rows, lo, hi, c1, c2


class TestWarmStart:
    def test_rank_deficient_basis_keeps_a_fixed_slack(self):
        # The slack of a row is its logical: the redundant equality row
        # stays basic, at its fixed value.
        mat, c, lo, hi = _rank_deficient_lp()
        cold = simplex.solve(mat, c, lo, hi)
        assert cold.status == "optimal"
        assert len(_basic_rows(cold.basis)) == 1
        assert len(cold.x) == 3 and len(cold.basis.col_status) == 3
        warm = simplex.solve(mat, c, lo, hi, start=cold.basis)
        assert warm.warm and warm.status == "optimal"
        assert warm.iterations == 0
        assert warm.objective == cold.objective
        assert warm.basis.col_status == cold.basis.col_status
        assert warm.basis.row_status == cold.basis.row_status

    def test_rank_deficient_basis_reoptimizes_new_objective(self):
        mat, c, lo, hi = _rank_deficient_lp()
        cold = simplex.solve(mat, c, lo, hi)
        c2 = np.array([3.0, 2.0, 1.0])
        warm = simplex.solve(mat, c2, lo, hi, start=cold.basis)
        ref = simplex.solve(mat, c2, lo, hi)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(ref.objective, abs=1e-12)
        assert np.allclose(mat.a @ warm.x, mat.rlo)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repriced_rdp_matches_cold_in_fewer_pivots(self, seed):
        mat, lo, hi, c1, c2 = _small_rdp(seed)
        first = simplex.solve(mat, c1, lo, hi)
        # degenerate: an equality row stays basic
        assert set(_basic_rows(first.basis)) & set(_equality_rows(mat))
        cold = simplex.solve(mat, c2, lo, hi)
        warm = simplex.solve(mat, c2, lo, hi, start=first.basis)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.warm and warm.iterations < cold.iterations
        assert np.all(warm.x >= lo - 1e-9) and np.all(warm.x <= hi + 1e-9)
        assert _in_rows(mat, warm.x, 1e-9)

    def test_wrong_shape_falls_back_to_cold(self):
        mat, lo, hi, c1, c2 = _small_rdp()
        first = simplex.solve(mat, c1, lo, hi)
        cold = simplex.solve(mat, c2, lo, hi)
        cols, rows = first.basis.col_status, first.basis.row_status
        m, n = mat.a.shape
        starts = [simplex.make_basis(cols[:-1], rows),
                  simplex.make_basis(cols, rows[:-1]),
                  simplex.make_basis([BASIC] + cols[1:], [BASIC] * m),
                  simplex.make_basis([LOWER] * n, [LOWER] * m)]
        for start in starts:
            warm = simplex.solve(mat, c2, lo, hi, start=start)
            assert not warm.warm
            assert warm.objective == cold.objective
            assert warm.iterations == cold.iterations
            assert np.array_equal(warm.x, cold.x)

    def test_primal_infeasible_start_reoptimizes_to_the_cold_answer(self):
        # Fix a basic variable away from its value, as branching does, and
        # price by a new objective, so the start is neither primal nor dual
        # feasible: it still fits, so the solve runs from it.
        mat, lo, hi, c1, c2 = _small_rdp(3)
        first = simplex.solve(mat, c1, lo, hi)
        j = next(j for j, s in enumerate(first.basis.col_status)
                 if s == BASIC and first.x[j] > 0.5 and hi[j] == 1.0)
        hi2 = hi.copy()
        hi2[j] = 0.0
        cold = simplex.solve(mat, c2, lo, hi2)
        warm = simplex.solve(mat, c2, lo, hi2, start=first.basis)
        assert warm.warm and warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def _rdp_model():
    """First-iteration routing model of the 4-vehicle instance of
    ``_small_rdp``."""
    grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
    inst = nm.generate_two_cluster(grid, 4, seed=0)
    return routing.build_rdp(inst).model


@functools.lru_cache(maxsize=None)
def _root(name):
    """(model, cold root LP result, basic integer columns).  The routing
    root ends degenerate on its flow rows, so its basis keeps equality
    rows basic; the scheduling model has no equality rows."""
    model = {"sp": branching_sp_model, "rdp": _rdp_model}[name]()
    mat = model.compiled_rows()
    c, lo, hi, _ = mip._columns(model)
    root = simplex.solve(mat, c, lo, hi)
    assert root.status == "optimal"
    if name == "rdp":
        assert set(_basic_rows(root.basis)) & set(_equality_rows(mat))
    ints = set(model.integer_indices())
    return model, root, sorted(j for j, s in enumerate(root.basis.col_status)
                               if s == BASIC and j in ints)


def _branch(model, x, j, up):
    """Child bounds of column ``j``: above or below its root value ``x[j]``
    (one unit beyond it when it is integral)."""
    v = variables(model)[j]
    if up:
        return min(v.ub, np.floor(x[j]) + 1.0), v.ub
    return v.lb, max(v.lb, np.ceil(x[j]) - 1.0)


def _warm_and_cold(model, root, overrides, rows=()):
    """Solve the child (``model`` with ``overrides`` and the appended rows)
    from the root's basis and cold; returns (Matrix, lo, hi, warm, cold)."""
    child = model.copy()
    for coeffs, rhs in rows:
        child.add_constraint(coeffs, ">=", rhs)
    mat = child.compiled_rows()
    c, lo, hi, _ = mip._columns(child)
    for j, (l, u) in overrides.items():
        lo[j], hi[j] = max(lo[j], l), min(hi[j], u)
    start = extend_start(root.basis, len(rows))
    warm = simplex.solve(mat, c, lo, hi, start=start)
    cold = simplex.solve(mat, c, lo, hi)
    return mat, lo, hi, warm, cold


@st.composite
def _children(draw):
    """A root (scheduling or routing), up to two branching bounds on its
    basic integer columns, and up to two appended ``>=`` rows that cut the
    root point off by ``excess`` (the largest make the child infeasible)."""
    name = draw(st.sampled_from(["sp", "rdp"]))
    model, _root_lp, basic = _root(name)
    cols = draw(st.lists(st.sampled_from(basic), max_size=2, unique=True))
    ups = draw(st.lists(st.booleans(), min_size=len(cols), max_size=len(cols)))
    terms = st.lists(st.tuples(st.sampled_from(range(model.num_vars)),
                               st.integers(1, 3)),
                     min_size=1, max_size=4, unique_by=lambda t: t[0])
    rows = draw(st.lists(st.tuples(terms, st.sampled_from([0.01, 0.1, 0.5, 50.0])),
                         max_size=2))
    assume(cols or rows)
    return name, list(zip(cols, ups)), rows


class TestDualRestart:
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_children())
    def test_child_from_root_basis_matches_cold(self, child):
        name, branches, rows = child
        model, root, _ = _root(name)
        x = root.x
        overrides = {j: _branch(model, x, j, up) for j, up in branches}
        cut_rows = [(dict(terms), sum(v * x[j] for j, v in terms) + excess)
                    for terms, excess in rows]
        mat, lo, hi, warm, cold = _warm_and_cold(model, root, overrides,
                                                 cut_rows)
        event(f"{name}: child {cold.status}")
        assert warm.warm
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                                   abs=1e-9)
            assert _in_rows(mat, warm.x)
            assert np.all(warm.x >= lo - simplex.FEAS_TOL)
            assert np.all(warm.x <= hi + simplex.FEAS_TOL)

    def test_infeasible_children_are_proved_from_the_root_basis(self):
        # Every up branch of the scheduling root; many have no feasible point.
        model, root, basic = _root("sp")
        statuses = []
        for j in basic:
            overrides = {j: _branch(model, root.x, j, True)}
            *_, warm, cold = _warm_and_cold(model, root, overrides)
            assert warm.warm and warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective,
                                                       rel=1e-9, abs=1e-9)
            statuses.append(cold.status)
        assert "infeasible" in statuses and "optimal" in statuses

    def test_wrong_sign_boxed_columns_flip_before_the_dual(self):
        # min c.x, x1 + x2 + x3 = 1.5, 0 <= x <= 1.  The first optimum has
        # x1 at its upper bound and x2 = 0.5 basic.  Reversing the prices
        # and fixing x2 at 0 leaves x1 (at upper) and x3 (at lower) with
        # wrong-sign reduced costs; both are boxed, so they flip and the
        # dual simplex repairs x2.
        mat = simplex.Matrix(sp.csc_matrix(np.ones((1, 3))), [1.5], [1.5])
        lo, hi = np.zeros(3), np.ones(3)
        first = simplex.solve(mat, np.array([1.0, 2.0, 3.0]), lo, hi)
        assert first.basis.col_status == [UPPER, BASIC, LOWER]
        c2, hi2 = np.array([3.0, 2.0, 1.0]), np.array([1.0, 0.0, 1.0])
        warm = simplex.solve(mat, c2, lo, hi2, start=first.basis)
        cold = simplex.solve(mat, c2, lo, hi2)
        assert warm.warm and warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert np.allclose(warm.x, [0.5, 0.0, 1.0])

    def test_extended_start_covers_equality_rows(self):
        # An appended equality row starts basic: it carries the violation
        # into the start and the dual simplex drives it out.
        m = mip.LinearModel()
        x = m.add_var("x", 0.0, 4.0)
        y = m.add_var("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 2.0}, "<=", 6.0)
        m.set_objective({x: 1.0, y: 1.0}, sense="max")
        first = mip.solve_lp(m)
        m.add_constraint({x: 1.0, y: -1.0}, "==", 1.0)
        m.add_constraint({y: 1.0}, ">=", 1.5)
        start = extend_start(first.basis, 2)
        mat = m.compiled_rows()
        c, lo, hi, _ = mip._columns(m)
        assert len(start.row_status) == 3 and len(start.col_status) == 2
        assert start.row_status[1:] == [BASIC, BASIC]
        assert mat.rlo[1] == mat.rhi[1] == 1.0
        warm = simplex.solve(mat, c, lo, hi, start=start)
        cold = simplex.solve(mat, c, lo, hi)
        assert warm.warm and warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


class TestSlackLayout:
    """A row's slack is its HiGHS logical: no slack columns are needed."""

    @pytest.mark.parametrize("rows", [
        [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],      # no slack columns at all
        [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],      # singletons in the wrong rows
        [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]],      # an empty last column
    ])
    def test_rows_need_no_slack_columns(self, rows):
        # Ranged rows take any matrix, with or without a column per row.
        a = np.array(rows)
        rlo, rhi = ranged_rows(["<=", ">="], [4.0, 1.0])
        c, lo, hi = np.array([-1.0, 1.0, -2.0]), np.zeros(3), np.full(3, 3.0)
        res = simplex.solve(simplex.Matrix(sp.csc_matrix(a), rlo, rhi),
                            c, lo, hi)
        _same_answer(res, reference_solve(a, rlo, rhi, c, lo, hi))

    def test_fixed_column_never_enters(self):
        # min -x s.t. x + s == 2, x fixed at 1: x prices as improving but
        # cannot move, so s is basic.
        mat = simplex.Matrix(sp.csc_matrix(np.array([[1.0, 1.0]])),
                             [2.0], [2.0])
        lo, hi = np.array([1.0, 0.0]), np.array([1.0, np.inf])
        res = simplex.solve(mat, np.array([-1.0, 0.0]), lo, hi)
        assert res.status == "optimal"
        assert res.basis.col_status[1] == BASIC and res.x[0] == 1.0
        assert res.basis.col_status[0] != BASIC and res.objective == -1.0

    def test_appended_equality_cut_starts_on_its_fixed_slack(self):
        m = mip.LinearModel()
        x = m.add_var("x", 0.0, 4.0)
        y = m.add_var("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 2.0}, "<=", 6.0)
        m.set_objective({x: 1.0, y: 1.0}, sense="max")
        first = mip.solve_lp(m)
        add_cut(m, mip.Cut({x: 1.0, y: -1.0}, "==", 3.5))
        mat = m.compiled_rows()
        c, lo, hi, _ = mip._columns(m)
        start = extend_start(first.basis, 1)
        assert start.row_status == first.basis.row_status + [BASIC]
        assert start.col_status == first.basis.col_status
        assert mat.rlo[-1] == mat.rhi[-1] == 3.5
        warm = simplex.solve(mat, c, lo, hi, start=start)
        cold = simplex.solve(mat, c, lo, hi)
        assert warm.warm and warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


@st.composite
def _bounded_lps(draw):
    """A small LP with finite column bounds and mixed ``<=``/``>=``/``==``
    rows of small integer coefficients (about half of them zero)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    coef = st.one_of(st.just(0), st.integers(-3, 3))
    a = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "=="]),
                           min_size=m, max_size=m))
    rhs = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    lo = draw(st.lists(st.integers(-2, 1), min_size=n, max_size=n))
    width = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    c = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return a, senses, rhs, lo, [l + w for l, w in zip(lo, width)], c


class TestColdStart:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_bounded_lps())
    def test_cold_solve_matches_highs(self, lp):
        from scipy.optimize import linprog

        a, senses, rhs, lo, hi, c = lp
        model = mip.LinearModel()
        cols = [model.add_var(f"x{j}", l, u)
                for j, (l, u) in enumerate(zip(lo, hi))]
        for row, sense, r in zip(a, senses, rhs):
            model.add_constraint(dict(zip(cols, row)), sense, r)
        model.set_objective(dict(zip(cols, c)))
        mat = model.compiled_rows()
        ours = simplex.solve(mat, *mip._columns(model)[:3])

        # HiGHS takes A_ub x <= b_ub and A_eq x = b_eq: negate ">=" rows
        flip = np.array([-1.0 if s == ">=" else 1.0 for s in senses])
        eq = np.array([s == "==" for s in senses])
        b = np.array(rhs, dtype=float)
        ref = linprog(c, A_ub=(a * flip[:, None])[~eq], b_ub=(b * flip)[~eq],
                      A_eq=a[eq], b_eq=b[eq], bounds=list(zip(lo, hi)),
                      method="highs")
        event(f"{ours.status} in {ours.iterations} pivots")
        assert ref.status in (0, 2)
        assert ours.status == ("optimal" if ref.status == 0 else "infeasible")
        if ref.status == 0:
            assert ours.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
            assert _in_rows(mat, ours.x)

    def test_slack_basis_solves_without_pivots(self):
        # A x <= b with b >= 0 and c >= 0: the basis of the rows with every
        # column at its lower bound is optimal, so a start there needs no
        # pivot.
        model = mip.LinearModel()
        cols = [model.add_var(f"x{j}", 0.0, 5.0) for j in range(4)]
        rows = [[1, 2, 0, -1], [0, 1, 3, 1], [2, -1, 1, 0]]
        for row, r in zip(rows, [4.0, 0.0, 7.0]):
            model.add_constraint(dict(zip(cols, row)), "<=", r)
        model.set_objective(dict(zip(cols, [1.0, 0.0, 2.0, 3.0])))
        c, lo, hi, _ = mip._columns(model)
        start = simplex.make_basis([LOWER] * 4, [BASIC] * 3)
        res = simplex.solve(model.compiled_rows(), c, lo, hi, start=start)
        assert res.warm and res.status == "optimal" and res.iterations == 0
        assert res.objective == 0.0
        assert np.array_equal(res.x, np.zeros(4))
        assert res.basis.row_status == [BASIC] * 3


def _rdp_with_seed(seed=0):
    """First-iteration routing model of a 4-vehicle instance and the greedy
    point the heuristic seeds it with."""
    grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
    inst = nm.generate_two_cluster(grid, 4, seed=seed)
    handle = routing.build_rdp(inst)
    return handle.model, routing.initial_solution(handle)


def _seed_start(model, point):
    _c, lo, hi, _ = mip._columns(model)
    return mip.seed_start(model.compiled_rows(), lo, hi, point)


def _record_solves(monkeypatch):
    """Results of every ``simplex.solve`` call from here on, in order."""
    results = []
    solve = simplex.solve

    def recording(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(simplex, "solve", recording)
    return results


class TestSeedStart:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rdp_root_solves_from_the_seed(self, seed, monkeypatch):
        model, point = _rdp_with_seed(seed)
        cold_root = mip.solve_lp(model)
        start = _seed_start(model, point)
        # the seed's w columns (vehicles on an edge, minus one) are interior
        assert start is not None and BASIC in start.col_status
        results = _record_solves(monkeypatch)
        sol = mip.solve_mip(model, initial_solution=point)
        root = results[0]
        assert root.warm
        assert sol.root_bound == pytest.approx(cold_root.objective, rel=1e-9)
        monkeypatch.undo()
        assert sol.objective == pytest.approx(mip.solve_mip(model).objective,
                                              rel=1e-9)

    def test_point_breaking_a_row_gives_no_start(self):
        model, point = _rdp_with_seed()
        broken = point.copy()
        broken[np.flatnonzero(point == 1.0)[0]] = 0.0   # leaves a flow row
        assert _seed_start(model, broken) is None
        with pytest.raises(mip.ModelError):
            mip.check_solution(model, broken)

    def test_interior_column_in_several_rows_gives_no_start(self, monkeypatch):
        # y = 2.5 lies strictly inside [0, 4] and sits in both rows; the
        # first row is at its bound at the point.
        m = mip.LinearModel()
        x = m.add_var("x", 0.0, 4.0, kind=mip.INTEGER)
        y = m.add_var("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 2.0}, "<=", 5.0)
        m.add_constraint({x: 1.0, y: -1.0}, ">=", -3.0)
        m.set_objective({x: 3.0, y: 2.0}, sense="max")
        point = [0.0, 2.5]
        assert _seed_start(m, point) is None
        results = _record_solves(monkeypatch)
        seeded = mip.solve_mip(m, initial_solution=point)
        assert not results[0].warm
        monkeypatch.undo()
        plain = mip.solve_mip(m)
        assert seeded.status == plain.status == "optimal"
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-12)
        assert seeded.root_bound == pytest.approx(plain.root_bound, abs=1e-12)

    def test_interior_columns_sharing_a_row_give_no_start(self):
        m = mip.LinearModel()
        x = m.add_var("x", 0.0, 4.0)
        y = m.add_var("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 1.0}, "<=", 3.0)
        m.set_objective({x: 1.0, y: 1.0}, sense="max")
        assert _seed_start(m, [1.0, 2.0]) is None
        # an interior column cannot replace a row that is not at a bound
        assert _seed_start(m, [1.0, 0.0]) is None
        # one interior column takes the place of the row at its bound
        start = _seed_start(m, [3.0, 0.0])
        assert start.col_status == [BASIC, LOWER]
        assert start.row_status == [UPPER]


class TestRecovery:
    def test_drifting_eta_file_recovered_by_frequent_refactorization(self):
        # A scheduling branch-and-bound node LP (387 rows) on which the
        # embedded simplex's eta file, refactorized every 64 pivots, drifted
        # until the basis read as singular.  It is infeasible.  The file
        # holds it in the slack layout, ``A x + s_i e_i = b`` with the last
        # ``m`` columns the slacks; each row's slack range becomes the
        # row's range here.
        d = np.load(DATA / "sched_node_singular.npz")
        m, n = d["shape"]
        a = sp.csc_matrix((d["data"], d["indices"], d["indptr"]),
                          shape=(m, n))
        nv = n - m
        s = a[:, nv:].diagonal()
        assert a[:, nv:].nnz == m and np.all(s != 0)
        assert not np.any(d["c"][nv:])
        b, lo, hi = d["b"], d["lo"], d["hi"]
        ends = b - s * lo[nv:], b - s * hi[nv:]
        mat = simplex.Matrix(a[:, :nv], np.minimum(*ends), np.maximum(*ends))
        res = simplex.solve(mat, d["c"][:nv], lo[:nv], hi[:nv])
        assert res.status == "infeasible"


@functools.lru_cache(maxsize=None)
def _rdp_case(seed):
    mat, lo, hi, c1, c2 = _small_rdp(seed)
    return mat, c1, lo, hi, c2, hi


@st.composite
def _lp_pairs(draw):
    """An LP, and a second objective and upper bounds on the same rows: a
    small bounded LP with one column perhaps fixed at its lower bound in
    the second, or a routing LP of ``_small_rdp`` re-priced by the
    heuristic's second cost table."""
    if draw(st.booleans(), label="routing"):
        return _rdp_case(draw(st.integers(0, 3), label="rdp seed"))
    a, senses, rhs, lo, hi, c = draw(_bounded_lps())
    mat = simplex.Matrix(sp.csc_matrix(a), *ranged_rows(senses, rhs))
    lo, hi, c = (np.array(v, dtype=float) for v in (lo, hi, c))
    c2 = np.array(draw(st.lists(st.integers(-4, 4), min_size=len(c),
                                max_size=len(c))), dtype=float)
    hi2 = hi.copy()
    j = draw(st.sampled_from([None, *range(len(c))]), label="fixed column")
    if j is not None:
        hi2[j] = lo[j]
    return mat, c, lo, hi, c2, hi2


class TestReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_lp_pairs())
    def test_solve_matches_the_embedded_simplex(self, lps):
        # Cold, and then warm from each engine's own first basis under the
        # second objective and bounds: the same status and objective.
        mat, c, lo, hi, c2, hi2 = lps
        ours = simplex.solve(mat, c, lo, hi)
        ref = reference_solve(mat.a, mat.rlo, mat.rhi, c, lo, hi)
        event(f"cold {ref.status}")
        _same_answer(ours, ref)
        if ref.status != "optimal":
            return
        ours2 = simplex.solve(mat, c2, lo, hi2, start=ours.basis)
        ref2 = reference_solve(mat.a, mat.rlo, mat.rhi, c2, lo, hi2,
                               start=(ref.basis, ref.vstatus))
        event(f"warm {ref2.status}")
        assert ours2.warm
        _same_answer(ours2, ref2)


def _same_answer(ours, ref):
    assert ours.status == ref.status
    if ref.status == "optimal":
        assert ours.objective == pytest.approx(ref.objective, rel=1e-9,
                                               abs=1e-9)


class TestEmptyLp:
    @pytest.mark.parametrize("rlo,rhi,status", [
        ([], [], "optimal"),
        ([-np.inf, 0.0], [0.0, np.inf], "optimal"),
        ([-np.inf], [-1.0], "infeasible"),
        ([1.0], [np.inf], "infeasible"),
    ])
    def test_no_columns_settled_by_the_rows_ranges(self, rlo, rhi, status):
        mat = simplex.Matrix(sp.csc_matrix((len(rlo), 0)), rlo, rhi)
        res = simplex.solve(mat, np.zeros(0), np.zeros(0), np.zeros(0))
        assert res.status == status and res.iterations == 0
        if status == "optimal":
            assert res.objective == 0.0 and res.x.size == 0
            assert res.basis.row_status == [BASIC] * len(rlo)

    @pytest.mark.parametrize("rlo,status", [(-1.0, "optimal"),
                                            (1.0, "infeasible")])
    def test_rows_without_nonzeros(self, rlo, status):
        # HiGHS solves such an LP without factorizing a basis.
        mat = simplex.Matrix(sp.csc_matrix((2, 3)), [rlo, -np.inf],
                             [np.inf, 2.0])
        res = simplex.solve(mat, [1.0, -1.0, 0.0], [0.0, 0.0, -np.inf],
                            [1.0, 1.0, np.inf])
        assert res.status == status
        if status == "optimal":
            assert res.objective == -1.0
            assert np.array_equal(res.x, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("coef", [1e-12, 0.0])
    def test_stored_entries_highs_drops(self, coef):
        # HiGHS drops entries of at most 1e-9 in size, so this row has no
        # nonzeros left either.
        a = sp.csc_matrix((np.array([coef]), np.array([0]),
                           np.array([0, 1])), shape=(1, 1))
        assert a.nnz == 1
        mat = simplex.Matrix(a, [-np.inf], [1.0])
        res = simplex.solve(mat, [-1.0], [0.0], [5.0])
        assert res.status == "optimal" and np.array_equal(res.x, [5.0])
        warm = simplex.solve(mat, [1.0], [0.0], [5.0], start=res.basis)
        assert warm.warm and np.array_equal(warm.x, [0.0])


class TestShapes:
    # HiGHS reads as many entries as the matrix has rows and columns.
    def test_row_bounds_must_fit_the_rows(self):
        with pytest.raises(ValueError, match="2 row bounds"):
            simplex.Matrix(sp.csc_matrix((2, 3)), [0.0], [1.0, 1.0])

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_column_data_must_fit_the_columns(self, which):
        mat = simplex.Matrix(sp.csc_matrix(np.ones((1, 3))), [0.0], [1.0])
        data = [np.zeros(3), np.zeros(3), np.ones(3)]
        data[which] = data[which][:2]
        with pytest.raises(ValueError, match="3 costs"):
            simplex.solve(mat, *data)


class TestColumnData:
    """A matrix sends HiGHS only the costs and bounds that changed since
    its last solve: HiGHS must hold each solve's own."""

    @staticmethod
    def _held_by_highs(mat):
        lp = mat._h.getLp()
        return lp.col_cost_, lp.col_lower_, lp.col_upper_

    def test_highs_holds_each_solves_columns(self, monkeypatch):
        handle = branching_sp_handle()
        solve, seen = simplex.solve, []

        def checked(mat, c, lo, hi, start=None):
            res = solve(mat, c, lo, hi, start)
            for got, sent in zip(self._held_by_highs(mat), (c, lo, hi)):
                assert np.array_equal(got, sent)
            seen.append(mat)
            return res

        monkeypatch.setattr(simplex, "solve", checked)
        sol = mip.solve_mip(handle.model,
                            root_cut_hook=cuts.make_disjunctive_hook(handle))
        assert sol.cuts_added > 0 and sol.nodes > 5
        assert len(seen) > sol.nodes       # node, cut-round and CGLP solves

    def test_read_only_arrays_are_kept_and_others_copied(self):
        model = branching_sp_model()
        mat = model.compiled_rows()
        c, lo, hi, _sign = mip._columns(model)
        simplex.solve(mat, c, lo, hi)
        assert mat._c is not c
        # a bound changed in place after the solve still reaches HiGHS
        j = int(np.flatnonzero(hi > lo)[0])
        hi[j] = lo[j]
        simplex.solve(mat, c, lo, hi)
        assert self._held_by_highs(mat)[2][j] == lo[j]
        frozen = c.copy()
        frozen.flags.writeable = False
        simplex.solve(mat, frozen, lo, hi)
        assert mat._c is frozen
        view = np.frombuffer(frozen.tobytes())      # read-only, not owning
        simplex.solve(mat, view, lo, hi)
        assert mat._c is not view


@functools.lru_cache(maxsize=None)
def _lp_pool():
    """LPs of the three kinds the program solves, each as ``(a, rlo, rhi,
    c, lo, hi, start)``: the scheduling root and a child branched on its
    first fractional integer column, from the root's basis; the routing LP
    priced twice, the second from the first one's basis; and the CGLP of
    the scheduling root's active sets."""
    handle = branching_sp_handle()
    rows = handle.model.compiled_rows()
    c, lo, hi, _ = mip._columns(handle.model)
    sp_rows = (rows.a, rows.rlo, rows.rhi)
    root = simplex.solve(simplex.Matrix(*sp_rows), c, lo, hi)
    j = mip._fractional(root.x, handle.model.integer_indices())[0][0]
    child_hi = hi.copy()
    child_hi[j] = np.floor(root.x[j])
    rdp, rdp_lo, rdp_hi, c1, c2 = _small_rdp()
    rdp_rows = (rdp.a, rdp.rlo, rdp.rhi)
    first = simplex.solve(simplex.Matrix(*rdp_rows), c1, rdp_lo, rdp_hi)
    point = mip.LpSolution("optimal", None, root.x)
    active = cuts.collect_active_sets(point, handle)
    cglp, cc, clo, chi, _sys = cuts.build_cglp(active, point, handle)
    return {"sp": (*sp_rows, c, lo, hi, None),
            "sp-child": (*sp_rows, c, lo, child_hi, root.basis),
            "rdp": (*rdp_rows, c1, rdp_lo, rdp_hi, None),
            "rdp-repriced": (*rdp_rows, c2, rdp_lo, rdp_hi, first.basis),
            "cglp": (cglp.a, cglp.rlo, cglp.rhi, cc, clo, chi, None)}


class _Calls:
    """A HiGHS instance that records the names of the methods called."""

    def __init__(self, h):
        self.h, self.names = h, []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(self.h, name)


class TestInstances:
    """A dropped matrix leaves its HiGHS instance to the next one, and a
    matrix with rows appended takes over the instance of the rows above,
    as does one with rows and columns deleted."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["sp", "sp-child", "rdp", "rdp-repriced",
                                     "cglp"]), min_size=2, max_size=6))
    def test_a_reused_instance_answers_as_a_fresh_one(self, kinds):
        pool = _lp_pool()
        simplex._SPARE.clear()
        used = None
        for kind in kinds:
            a, rlo, rhi, c, lo, hi, start = pool[kind]
            reused = simplex.Matrix(a, rlo, rhi)
            got = simplex.solve(reused, c, lo, hi, start)
            assert used is None or reused._h is used
            spare = list(simplex._SPARE)
            simplex._SPARE.clear()
            fresh = simplex.Matrix(a, rlo, rhi)
            want = simplex.solve(fresh, c, lo, hi, start)
            fresh._h = None             # not handed back
            simplex._SPARE.extend(spare)
            assert (got.status, got.warm, got.iterations) == \
                (want.status, want.warm, want.iterations)
            assert np.array_equal(got.x, want.x)
            assert got.basis.col_status == want.basis.col_status
            assert got.basis.row_status == want.basis.row_status
            used = reused._h
            del reused

    def test_a_matrix_whose_instance_moved_solves_again(self):
        model = branching_sp_model()
        rows = model.compiled_rows()
        c, lo, hi, _ = mip._columns(model)
        first = simplex.solve(rows, c, lo, hi)
        h = rows._h
        add_cut(model, mip.Cut({0: 1.0, 1: 1.0}, "<=", 1.0))
        appended = model.compiled_rows()
        assert appended._h is h and rows._h is None and rows.held is None
        assert appended.held.col_status == first.basis.col_status
        assert appended.held.row_status == first.basis.row_status + [BASIC]
        again = simplex.solve(rows, c, lo, hi)
        assert rows._h is not h
        assert (again.status, again.iterations) == \
            (first.status, first.iterations)
        assert np.array_equal(again.x, first.x)
        assert again.basis.row_status == first.basis.row_status

    def test_a_matrix_without_rows_and_columns_takes_over_the_instance(
            self):
        # the routing LP without the columns and per-edge rows of the
        # shared edges its second iteration has explored
        grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 4, seed=0)
        table = rshm.run(inst, rshm.RshmOptions(iter_cap=1)).state.tables[2]
        handle = routing.build_rdp(inst)
        gone = [e for e in handle.y_col if e in table.explored]
        assert gone
        cols = sorted(j for e in gone for j in (
            handle.y_col[e], handle.yp_col[e], handle.w_col[e]))
        rows = [i for i, name in enumerate(handle.model.row_names)
                if name.endswith(tuple(f"_{e}" for e in gone))]
        old = handle.model.compiled_rows()
        c, lo, hi, _ = mip._columns(handle.model)
        simplex.solve(old, c, lo, hi)
        calls = _Calls(old._h)
        old._h = calls
        keep_rows = np.setdiff1d(np.arange(old.a.shape[0]), rows)
        keep = np.setdiff1d(np.arange(old.a.shape[1]), cols)
        a = sp.csr_matrix(old.a[keep_rows][:, keep])
        new = simplex.Matrix(a, old.rlo[keep_rows], old.rhi[keep_rows], old,
                             (np.array(rows), np.array(cols)))
        assert new._h is calls and old._h is None and old.held is None
        routing.set_rdp_costs(handle, table)
        c = mip._columns(handle.model)[0][keep]
        got = simplex.solve(new, c, lo[keep], hi[keep], new.held)
        assert got.warm and not {"passModel", "setBasis"} & set(calls.names)
        new._h = calls.h
        want = simplex.solve(simplex.Matrix(a, new.rlo, new.rhi), c,
                             lo[keep], hi[keep])
        assert got.status == want.status == "optimal"
        assert got.objective == pytest.approx(want.objective, rel=1e-9)
        assert got.iterations < want.iterations

    def test_a_failed_constructor_hands_nothing_back(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(ValueError, match="2 row bounds"):
            simplex.Matrix(sp.csc_matrix((2, 3)), [0.0], [1.0, 1.0])
        base = simplex.Matrix(sp.csr_matrix(np.ones((1, 3))), [0.0], [1.0])
        simplex.solve(base, np.ones(3), np.zeros(3), np.ones(3))
        h = base._h
        with pytest.raises(ValueError, match="cannot head"):
            simplex.Matrix(sp.csr_matrix(np.ones((2, 2))), [0.0, 0.0],
                           [1.0, 1.0], base)
        with pytest.raises(ValueError, match="without 1 rows"):
            simplex.Matrix(sp.csr_matrix(np.ones((1, 3))), [0.0], [1.0],
                           base, (np.array([0]), np.array([], dtype=int)))
        assert base._h is h
        gc.collect()
        assert unraisable == []


class TestBackend:
    def test_missing_extension_names_the_path(self, tmp_path):
        with pytest.raises(simplex.BackendMissing, match=str(tmp_path)):
            simplex.load_highs(str(tmp_path))

    def test_the_extension_loads_once(self):
        assert simplex.load_highs() is simplex.load_highs()
