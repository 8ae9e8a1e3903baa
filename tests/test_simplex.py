"""LP seam: the slack layout it requires, answers matching the embedded
revised simplex it replaced (kept in ``reference_simplex``), root starts
built from a seed point, warm starts from earlier bases (including bases
that keep a fixed slack basic), restarts after branching bounds and added
rows, how the HiGHS extension is found, and an LP that once broke the old
engine."""

import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from platoonopt import mip, netmodel as nm, routing, rshm, simplex

import reference_simplex
from conftest import branching_sp_model

DATA = Path(__file__).parent / "data"


def _rank_deficient_lp():
    """Two copies of one equality row, each with its slack fixed at zero:
    phase 1 must leave one row's artificial column basic at zero."""
    a = sp.csc_matrix(np.array([[1.0, 1.0, 1.0, 1.0, 0.0],
                                [2.0, 2.0, 2.0, 0.0, 1.0]]))
    b = np.array([1.0, 2.0])
    c = np.array([1.0, 2.0, 3.0, 0.0, 0.0])
    return a, b, c, np.zeros(5), np.array([np.inf, np.inf, np.inf, 0.0, 0.0])


def _fixed_slacks(a, lo, hi):
    """Columns of the rows' slacks that are fixed at zero (``==`` rows)."""
    m, n = a.shape
    return n - m + np.flatnonzero(lo[n - m:] == hi[n - m:])


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
    def test_rank_deficient_basis_keeps_a_fixed_slack(self):
        a, b, c, lo, hi = _rank_deficient_lp()
        cold = simplex.solve(a, b, c, lo, hi)
        assert cold.status == "optimal"
        n = a.shape[1]
        assert cold.basis.max() < n            # no artificial index
        kept = np.intersect1d(cold.basis, _fixed_slacks(a, lo, hi))
        assert len(kept) == 1                  # the redundant row's slack
        assert cold.vstatus[kept[0]] == simplex.IS_BASIC
        assert cold.x[kept[0]] == 0.0
        assert len(cold.x) == n and len(cold.vstatus) == n
        warm = simplex.solve(a, b, c, lo, hi, start=(cold.basis, cold.vstatus))
        assert warm.warm and warm.status == "optimal"
        assert warm.iterations == 0
        assert warm.objective == cold.objective
        assert np.array_equal(warm.basis, cold.basis)
        assert len(warm.x) == n and len(warm.vstatus) == n

    def test_rank_deficient_basis_reoptimizes_new_objective(self):
        a, b, c, lo, hi = _rank_deficient_lp()
        cold = simplex.solve(a, b, c, lo, hi)
        c2 = np.array([3.0, 2.0, 1.0, 0.0, 0.0])
        warm = simplex.solve(a, b, c2, lo, hi, start=(cold.basis, cold.vstatus))
        ref = simplex.solve(a, b, c2, lo, hi)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(ref.objective, abs=1e-12)
        assert np.allclose(a @ warm.x, b)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_repriced_rdp_matches_cold_in_fewer_pivots(self, seed):
        a, b, lo, hi, c1, c2 = _small_rdp(seed)
        first = simplex.solve(a, b, c1, lo, hi)
        # degenerate: a fixed slack, not an artificial, stays basic
        assert first.basis.max() < a.shape[1]
        assert np.isin(first.basis, _fixed_slacks(a, lo, hi)).any()
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

    def test_primal_infeasible_start_reoptimizes_to_the_cold_answer(self):
        # Fix a basic variable away from its value, as branching does, and
        # price by a new objective, so the start is neither primal nor dual
        # feasible: it still fits, so the solve runs from it.
        a, b, lo, hi, c1, c2 = _small_rdp(3)
        first = simplex.solve(a, b, c1, lo, hi)
        n = a.shape[1]
        j = next(int(j) for j in first.basis
                 if j < n and first.x[j] > 0.5 and hi[j] == 1.0)
        lo2, hi2 = lo.copy(), hi.copy()
        hi2[j] = 0.0
        cold = simplex.solve(a, b, c2, lo2, hi2)
        warm = simplex.solve(a, b, c2, lo2, hi2, start=(first.basis, first.vstatus))
        assert warm.warm and warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def _rdp_model():
    """First-iteration routing model of the 4-vehicle instance of
    ``_small_rdp``."""
    grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
    inst = nm.generate_two_cluster(grid, 4, seed=0)
    state = rshm.run(inst, rshm.RshmOptions(iter_cap=1)).state
    return routing.build_rdp(inst, state.tables[1]).model


@functools.lru_cache(maxsize=None)
def _root(name):
    """(model, cold root LP result, basic integer columns).  The routing
    root ends phase 1 degenerate on its flow rows, so its basis keeps
    fixed slacks of equality rows; the scheduling model has no equality
    rows."""
    model = {"sp": branching_sp_model, "rdp": _rdp_model}[name]()
    a, b, c, lo, hi, *_ = mip._standard_form(model)
    root = simplex.solve(a, b, c, lo, hi)
    assert root.status == "optimal"
    if name == "rdp":
        assert np.isin(root.basis, _fixed_slacks(a, lo, hi)).any()
    ints = set(model.integer_indices())
    return model, root, sorted(int(j) for j in root.basis if j in ints)


def _branch(model, x, j, up):
    """Child bounds of column ``j``: above or below its root value ``x[j]``
    (one unit beyond it when it is integral)."""
    v = model.variables[j]
    if up:
        return min(v.ub, np.floor(x[j]) + 1.0), v.ub
    return v.lb, max(v.lb, np.ceil(x[j]) - 1.0)


def _warm_and_cold(model, root, overrides, rows=()):
    """Solve the child (``model`` with ``overrides`` and the appended rows)
    from the root's basis and cold; returns (A, b, lo, hi, warm, cold)."""
    child = model.copy()
    for coeffs, rhs in rows:
        child.add_constraint(coeffs, ">=", rhs)
    a, b, c, lo, hi, *_ = mip._standard_form(child)
    for j, (l, u) in overrides.items():
        lo[j], hi[j] = max(lo[j], l), min(hi[j], u)
    start = mip.extend_start((root.basis, root.vstatus), len(rows))
    warm = simplex.solve(a, b, c, lo, hi, start=start)
    cold = simplex.solve(a, b, c, lo, hi)
    return a, b, lo, hi, warm, cold


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
        a, b, lo, hi, warm, cold = _warm_and_cold(model, root, overrides,
                                                  cut_rows)
        event(f"{name}: child {cold.status}")
        assert warm.warm
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                                   abs=1e-9)
            assert np.abs(a @ warm.x - b).max() <= simplex.FEAS_TOL
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
        a = sp.csc_matrix(np.ones((1, 3)))
        b, lo, hi = np.array([1.5]), np.zeros(3), np.ones(3)
        first = simplex.solve(a, b, np.array([1.0, 2.0, 3.0]), lo, hi)
        assert list(first.basis) == [1] and first.vstatus[0] == simplex.AT_UPPER
        c2, hi2 = np.array([3.0, 2.0, 1.0]), np.array([1.0, 0.0, 1.0])
        warm = simplex.solve(a, b, c2, lo, hi2, start=(first.basis, first.vstatus))
        cold = simplex.solve(a, b, c2, lo, hi2)
        assert warm.warm and warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert np.allclose(warm.x, [0.5, 0.0, 1.0])

    def test_extended_start_covers_equality_rows(self):
        # An appended equality row's slack is fixed at zero: it carries the
        # violation into the start and the dual simplex drives it out.
        m = mip.LinearModel()
        x = m.add_var("x", 0.0, 4.0)
        y = m.add_var("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 2.0}, "<=", 6.0)
        m.set_objective({x: 1.0, y: 1.0}, sense="max")
        first = mip.solve_lp(m)
        m.add_constraint({x: 1.0, y: -1.0}, "==", 1.0)
        m.add_constraint({y: 1.0}, ">=", 1.5)
        start = mip.extend_start((first.basis, first.vstatus), 2)
        a, b, c, lo, hi, *_ = mip._standard_form(m)
        assert len(start[0]) == a.shape[0] and len(start[1]) == a.shape[1]
        assert a.shape[1] - 2 in start[0]       # fixed slack of the equality
        assert lo[-2] == hi[-2] == 0.0
        warm = simplex.solve(a, b, c, lo, hi, start=start)
        cold = simplex.solve(a, b, c, lo, hi)
        assert warm.warm and warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


class TestSlackLayout:
    @pytest.mark.parametrize("rows", [
        [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],      # no slack columns at all
        [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],      # singletons in the wrong rows
        [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]],      # an empty last column
    ])
    def test_solve_requires_the_rows_slacks_last(self, rows):
        a = sp.csc_matrix(np.array(rows))
        lo, hi = np.zeros(3), np.full(3, np.inf)
        with pytest.raises(ValueError, match="slacks"):
            simplex.solve(a, np.ones(2), np.ones(3), lo, hi)

    def test_fixed_column_never_enters(self):
        # min -x s.t. x + s = 2, x fixed at 1: x prices as improving but
        # cannot move, so s is basic.
        a = sp.csc_matrix(np.array([[1.0, 1.0]]))
        lo, hi = np.array([1.0, 0.0]), np.array([1.0, np.inf])
        res = simplex.solve(a, np.array([2.0]), np.array([-1.0, 0.0]), lo, hi)
        assert res.status == "optimal"
        assert res.vstatus[0] == simplex.AT_LOWER and res.x[0] == 1.0
        assert list(res.basis) == [1] and res.objective == -1.0

    def test_appended_equality_cut_starts_on_its_fixed_slack(self):
        m = mip.LinearModel()
        x = m.add_var("x", 0.0, 4.0)
        y = m.add_var("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 2.0}, "<=", 6.0)
        m.set_objective({x: 1.0, y: 1.0}, sense="max")
        first = mip.solve_lp(m)
        m.add_cut(mip.Cut({x: 1.0, y: -1.0}, "==", 3.5))
        a, b, c, lo, hi, *_ = mip._standard_form(m)
        n = a.shape[1]
        basis, vstatus = mip.extend_start((first.basis, first.vstatus), 1)
        assert basis[-1] == n - 1 and vstatus[n - 1] == simplex.IS_BASIC
        assert lo[n - 1] == hi[n - 1] == 0.0
        assert np.array_equal(basis[:-1], first.basis)
        warm = simplex.solve(a, b, c, lo, hi, start=(basis, vstatus))
        cold = simplex.solve(a, b, c, lo, hi)
        assert warm.warm and warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert warm.basis.max() < n


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
        a_s, b_s, c_s, lo_s, hi_s, *_ = mip._standard_form(model)
        ours = simplex.solve(a_s, b_s, c_s, lo_s, hi_s)

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
            assert np.abs(a_s @ ours.x - b_s).max() <= simplex.FEAS_TOL

    def test_slack_basis_solves_without_pivots(self):
        # A x <= b with b >= 0 and c >= 0: the slack basis with every
        # structural at its lower bound is optimal, so a start there needs
        # no pivot.
        model = mip.LinearModel()
        cols = [model.add_var(f"x{j}", 0.0, 5.0) for j in range(4)]
        rows = [[1, 2, 0, -1], [0, 1, 3, 1], [2, -1, 1, 0]]
        for row, r in zip(rows, [4.0, 0.0, 7.0]):
            model.add_constraint(dict(zip(cols, row)), "<=", r)
        model.set_objective(dict(zip(cols, [1.0, 0.0, 2.0, 3.0])))
        a, b, c, lo, hi, *_ = mip._standard_form(model)
        basis = np.arange(4, 7)
        vstatus = np.array([simplex.AT_LOWER] * 4 + [simplex.IS_BASIC] * 3,
                           dtype=np.int8)
        res = simplex.solve(a, b, c, lo, hi, start=(basis, vstatus))
        assert res.warm and res.status == "optimal" and res.iterations == 0
        assert res.objective == 0.0
        assert np.array_equal(res.x[:4], np.zeros(4))
        assert np.array_equal(np.sort(res.basis), basis)


def _rdp_with_seed(seed=0):
    """First-iteration routing model of a 4-vehicle instance and the greedy
    point the heuristic seeds it with."""
    grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
    inst = nm.generate_two_cluster(grid, 4, seed=seed)
    handle = routing.build_rdp(inst, routing.EdgeCostTable.initial(inst))
    return handle.model, routing.initial_solution(handle)


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
        start = mip.seed_start(mip._standard_form(model), point)
        nv = model.num_vars
        # the seed's w columns (vehicles on an edge, minus one) are interior
        assert start is not None and np.any(start[0] < nv)
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
        sf = mip._standard_form(model)
        broken = point.copy()
        broken[np.flatnonzero(point == 1.0)[0]] = 0.0   # leaves a flow row
        assert mip.seed_start(sf, broken) is None
        with pytest.raises(mip.ModelError):
            mip.check_solution(model, broken)

    def test_interior_column_in_several_rows_gives_no_start(self, monkeypatch):
        # y = 2.5 lies strictly inside [0, 4] and sits in both rows; the
        # first row's slack is zero at the point.
        m = mip.LinearModel()
        x = m.add_var("x", 0.0, 4.0, kind=mip.INTEGER)
        y = m.add_var("y", 0.0, 4.0)
        m.add_constraint({x: 1.0, y: 2.0}, "<=", 5.0)
        m.add_constraint({x: 1.0, y: -1.0}, ">=", -3.0)
        m.set_objective({x: 3.0, y: 2.0}, sense="max")
        point = [0.0, 2.5]
        assert mip.seed_start(mip._standard_form(m), point) is None
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
        sf = mip._standard_form(m)
        assert mip.seed_start(sf, [1.0, 2.0]) is None
        # an interior column cannot replace a slack that is not zero
        assert mip.seed_start(sf, [1.0, 0.0]) is None
        # one interior column takes the place of the row's zero slack
        basis, vstatus = mip.seed_start(sf, [3.0, 0.0])
        assert list(basis) == [0] and vstatus[2] == simplex.AT_LOWER


class TestRecovery:
    def test_drifting_eta_file_recovered_by_frequent_refactorization(self):
        # A scheduling branch-and-bound node LP (387 rows) on which the
        # embedded simplex's eta file, refactorized every 64 pivots, drifted
        # until the basis read as singular.  It is infeasible.
        d = np.load(DATA / "sched_node_singular.npz")
        a = sp.csc_matrix((d["data"], d["indices"], d["indptr"]),
                          shape=tuple(d["shape"]))
        res = simplex.solve(a, d["b"], d["c"], d["lo"], d["hi"])
        assert res.status == "infeasible"


@functools.lru_cache(maxsize=None)
def _rdp_case(seed):
    a, b, lo, hi, c1, c2 = _small_rdp(seed)
    return a, b, c1, lo, hi, c2, hi


@st.composite
def _lp_pairs(draw):
    """An LP in standard form, and a second objective and upper bounds on
    the same rows: a small bounded LP with one column perhaps fixed at its
    lower bound in the second, or a routing LP of ``_small_rdp`` re-priced
    by the heuristic's second cost table."""
    if draw(st.booleans(), label="routing"):
        return _rdp_case(draw(st.integers(0, 3), label="rdp seed"))
    a, senses, rhs, lo, hi, c = draw(_bounded_lps())
    model = mip.LinearModel()
    cols = [model.add_var(f"x{j}", l, u) for j, (l, u) in enumerate(zip(lo, hi))]
    for row, sense, r in zip(a, senses, rhs):
        model.add_constraint(dict(zip(cols, row)), sense, r)
    model.set_objective(dict(zip(cols, c)))
    a_s, b_s, c_s, lo_s, hi_s, *_ = mip._standard_form(model)
    c2 = c_s.copy()
    c2[:len(cols)] = draw(st.lists(st.integers(-4, 4), min_size=len(cols),
                                   max_size=len(cols)))
    hi2 = hi_s.copy()
    j = draw(st.sampled_from([None, *cols]), label="fixed column")
    if j is not None:
        hi2[j] = lo_s[j]
    return a_s, b_s, c_s, lo_s, hi_s, c2, hi2


class TestReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_lp_pairs())
    def test_solve_matches_the_embedded_simplex(self, lps):
        # Cold, and then warm from each engine's own first basis under the
        # second objective and bounds: the same status and objective.
        a, b, c, lo, hi, c2, hi2 = lps
        ours = simplex.solve(a, b, c, lo, hi)
        ref = reference_simplex.solve(a, b, c, lo, hi)
        event(f"cold {ref.status}")
        _same_answer(ours, ref)
        if ref.status != "optimal":
            return
        ours2 = simplex.solve(a, b, c2, lo, hi2, start=(ours.basis, ours.vstatus))
        ref2 = reference_simplex.solve(a, b, c2, lo, hi2,
                                       start=(ref.basis, ref.vstatus))
        event(f"warm {ref2.status}")
        assert ours2.warm
        _same_answer(ours2, ref2)


def _same_answer(ours, ref):
    assert ours.status == ref.status
    if ref.status == "optimal":
        assert ours.objective == pytest.approx(ref.objective, rel=1e-9,
                                               abs=1e-9)


class TestBackend:
    def test_missing_extension_names_the_path(self, tmp_path):
        with pytest.raises(simplex.BackendMissing, match=str(tmp_path)):
            simplex.load_highs(str(tmp_path))

    def test_the_extension_loads_once(self):
        assert simplex.load_highs() is simplex.load_highs()
