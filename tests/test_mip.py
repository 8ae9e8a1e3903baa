"""LP/MIP engine tests against naive oracles and enumeration."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from platoonopt import cuts, export, mip, scheduling, simplex
from platoonopt.simplex import BASIC

from conftest import (branching_sp_handle, branching_sp_model, ranged_rows,
                      reference_solve)


def tableau_simplex(c, A, b):
    """Naive Big-M dense tableau simplex for min c.x, Ax <= b, x >= 0.
    Independent of the production engine; returns optimal value or None."""
    m, n = A.shape
    big = 1e7
    # slack per row; artificial for negative rhs rows
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    for i in range(m):
        if T[i, -1] < 0:
            T[i, :] = -T[i, :]
            T[i, n + i] = -1.0
            col = np.zeros(m + 1)
            col[i] = 1.0
            T = np.hstack([T[:, :-1], col.reshape(-1, 1), T[:, -1:]])
            basis[i] = T.shape[1] - 2
    T[-1, :n] = c
    for i in range(m):
        if basis[i] >= n + m:
            T[-1, :] -= big * np.sign(T[i, basis[i]]) * 0  # placeholder
    # price out artificials with Big-M costs
    for i in range(m):
        if basis[i] >= n + m:
            T[-1, :] = T[-1, :] - big * T[i, :]
            T[-1, basis[i]] += big
    for _ in range(5000):
        j = np.argmin(T[-1, :-1])
        if T[-1, j] > -1e-9:
            break
        ratios = np.full(m, np.inf)
        pos = T[:m, j] > 1e-9
        ratios[pos] = T[:m, -1][pos] / T[:m, j][pos]
        if not np.isfinite(ratios).any():
            return None  # unbounded
        i = int(np.argmin(ratios))
        T[i, :] /= T[i, j]
        for r in range(m + 1):
            if r != i and abs(T[r, j]) > 1e-12:
                T[r, :] -= T[r, j] * T[i, :]
        basis[i] = j
    for i in range(m):
        if basis[i] >= n + m and T[i, -1] > 1e-6:
            return "infeasible"
    x = np.zeros(T.shape[1] - 1)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    return float(c @ x[:len(c)])


def test_lp_single_bound():
    m = mip.LinearModel()
    x = m.add_var("x", 0, np.inf)
    m.add_constraint({x: 1}, "<=", 3)
    m.set_objective({x: 1}, sense="max")
    s = mip.solve_lp(m)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(3.0)


def test_lp_vertex_contract():
    m = mip.LinearModel()
    x = m.add_var("x")
    y = m.add_var("y")
    m.add_constraint({x: 1, y: 1}, "==", 1)
    m.set_objective({}, sense="min")
    s = mip.solve_lp(m)
    assert s.status == "optimal"
    assert s.x[x] in (pytest.approx(0.0), pytest.approx(1.0))


def test_lp_against_naive_simplex():
    rng = np.random.default_rng(20240117)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        mr = int(rng.integers(2, 6))
        A = rng.uniform(-1, 2, size=(mr, n)).round(3)
        b = rng.uniform(0.5, 5, size=mr).round(3)
        c = rng.uniform(-2, 2, size=n).round(3)
        model = mip.LinearModel()
        for j in range(n):
            model.add_var(f"x{j}", 0, np.inf)
        for i in range(mr):
            model.add_constraint({j: A[i, j] for j in range(n)}, "<=", b[i])
        model.set_objective({j: c[j] for j in range(n)}, sense="min")
        got = mip.solve_lp(model)
        ref = tableau_simplex(c, A, b)
        if ref == "infeasible":
            assert got.status == "infeasible"
        elif ref is None:
            assert got.status == "unbounded"
        else:
            assert got.status == "optimal"
            assert got.objective == pytest.approx(ref, abs=1e-6)


def test_lp_infeasible_and_unbounded():
    m = mip.LinearModel()
    x = m.add_var("x", 0, 1)
    m.add_constraint({x: 1}, ">=", 2)
    m.set_objective({x: 1})
    assert mip.solve_lp(m).status == "infeasible"

    m2 = mip.LinearModel()
    x = m2.add_var("x", 0, np.inf)
    m2.set_objective({x: 1}, sense="max")
    assert mip.solve_lp(m2).status == "unbounded"


@pytest.mark.parametrize("rows,status", [
    ([], "optimal"),
    ([({}, "<=", 1.0), ({}, "==", 0.0), ({}, ">=", -2.0)], "optimal"),
    ([({}, "<=", 1.0), ({}, ">=", 1.0)], "infeasible"),
], ids=["no-rows", "rows-holding-0", "row-missing-0"])
def test_model_without_columns(rows, status):
    # The LP is settled by whether every row's range holds 0.
    m = mip.LinearModel()
    for coeffs, sense, rhs in rows:
        m.add_constraint(coeffs, sense, rhs)
    m.set_objective({}, constant=2.5, sense="max")
    lp, sol = mip.solve_lp(m), mip.solve_mip(m)
    assert lp.status == sol.status == status
    if status == "optimal":
        assert lp.objective == sol.objective == 2.5
        assert sol.x.size == 0 and sol.gap == 0.0


def test_row_of_one_tiny_coefficient():
    # HiGHS drops the entry, so its LP has no nonzeros to factorize.
    m = mip.LinearModel()
    x = m.add_var("x", ub=5.0)
    m.add_constraint({x: 1e-12}, "<=", 1.0)
    m.set_objective({x: 1.0}, sense="max")
    lp = mip.solve_lp(m)
    assert lp.status == "optimal" and lp.objective == 5.0


NAN, INF = float("nan"), float("inf")


def _xy_model():
    m = mip.LinearModel()
    return m, m.add_var("x"), m.add_var("y")


@pytest.mark.parametrize("lb,ub", [(NAN, 1.0), (0.0, NAN)],
                         ids=["nan-lb", "nan-ub"])
def test_add_var_rejects_nan_bound(lb, ub):
    m = mip.LinearModel()
    with pytest.raises(mip.ModelError, match="NaN"):
        m.add_var("x", lb, ub)
    with pytest.raises(mip.ModelError, match="NaN"):
        m.add_var("b", lb, ub, kind=mip.BINARY)
    assert m.num_vars == 0
    m.add_var("free", -INF, INF)     # infinite bounds stay legal


@pytest.mark.parametrize("coef,rhs", [(1.0, NAN), (1.0, INF), (NAN, 1.0),
                                      (-INF, 1.0)],
                         ids=["nan-rhs", "inf-rhs", "nan-coef", "inf-coef"])
def test_add_constraint_rejects_non_finite_data(coef, rhs):
    # unchecked, the LP layer ignores a row with a NaN rhs (x + y >= NaN
    # solves optimal at x = y = 0)
    m, x, y = _xy_model()
    with pytest.raises(mip.ModelError, match="non-finite"):
        m.add_constraint({x: 1.0, y: coef}, ">=", rhs)
    assert m.num_constraints == 0


@pytest.mark.parametrize("coef,constant", [(NAN, 0.0), (INF, 0.0),
                                           (1.0, NAN), (1.0, -INF)],
                         ids=["nan-coef", "inf-coef", "nan-const",
                              "inf-const"])
def test_set_objective_rejects_non_finite_data(coef, constant):
    m, x, y = _xy_model()
    with pytest.raises(mip.ModelError, match="non-finite"):
        m.set_objective({x: 1.0, y: coef}, constant)


@pytest.mark.parametrize("rhs", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_cut_rejects_non_finite_rhs(rhs):
    m, x, y = _xy_model()
    cut = mip.Cut({x: 1.0, y: 1.0}, ">=", rhs, tag="hull")
    with pytest.raises(mip.ModelError, match="right-hand side"):
        cut.validate()
    with pytest.raises(mip.ModelError, match="right-hand side"):
        m.add_cut(cut)
    assert m.num_constraints == 0


def test_mip_knapsack_enumerated():
    m = mip.LinearModel()
    a = m.add_var("x1", kind=mip.BINARY)
    b = m.add_var("x2", kind=mip.BINARY)
    m.add_constraint({a: 3, b: 2}, "<=", 4)
    m.set_objective({a: 5, b: 4}, sense="max")
    s = mip.solve_mip(m)
    # enumeration: (0,0)->0 (1,0)->5 (0,1)->4 (1,1) infeasible (3+2>4)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(5.0)
    assert s.x[a] == pytest.approx(1.0) and s.x[b] == pytest.approx(0.0)


def test_pure_lp_model_solves_at_root():
    m = mip.LinearModel()
    x = m.add_var("x", 0, 4)
    y = m.add_var("y", 0, 4)
    m.add_constraint({x: 1, y: 2}, "<=", 6)
    m.set_objective({x: 1, y: 1}, sense="max")
    s = mip.solve_mip(m)
    assert s.status == "optimal" and s.nodes in (0, 1)


def _random_binary_model(rng):
    n = int(rng.integers(3, 13))
    mr = int(rng.integers(1, 7))
    A = rng.integers(-4, 5, size=(mr, n)).astype(float)
    b = (A @ rng.uniform(0, 1, size=n)).round(1) + rng.uniform(0, 2, mr).round(1)
    c = rng.integers(-9, 10, size=n).astype(float)
    model = mip.LinearModel()
    for j in range(n):
        model.add_var(f"x{j}", kind=mip.BINARY)
    for i in range(mr):
        model.add_constraint({j: A[i, j] for j in range(n)}, "<=", float(b[i]))
    model.set_objective({j: float(c[j]) for j in range(n)}, sense="max")
    return model, A, b, c, n


def _enumerate_best(A, b, c, n):
    best = None
    for pt in itertools.product((0, 1), repeat=n):
        x = np.array(pt, float)
        if np.all(A @ x <= b + 1e-9):
            v = float(c @ x)
            best = v if best is None or v > best else best
    return best


def test_mip_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model, A, b, c, n = _random_binary_model(rng)
        got = mip.solve_mip(model)
        ref = _enumerate_best(A, b, c, n)
        if ref is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.objective == pytest.approx(ref, rel=1e-4, abs=1e-6)


def test_weak_duality_bound():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model, A, b, c, n = _random_binary_model(rng)
        s = mip.solve_mip(model)
        if s.status == "optimal":
            assert s.bound >= s.objective - 1e-6  # max problem


def test_valid_cut_preserves_integer_set():
    # a cut dominated by an existing row never removes integer points
    rng = np.random.default_rng(11)
    model, A, b, c, n = _random_binary_model(rng)
    before = {pt for pt in itertools.product((0, 1), repeat=n)
              if np.all(A @ np.array(pt, float) <= b + 1e-9)}
    # trivial valid cut: sum of all vars <= n
    cut = mip.Cut({j: 1.0 for j in range(n)}, "<=", float(n), tag="hull")
    model.add_cut(cut)
    after = set()
    for pt in before:
        x = np.array(pt, float)
        ok = np.all(A @ x <= b + 1e-9) and x.sum() <= n + 1e-9
        if ok:
            after.add(pt)
    assert before == after


def test_solver_determinism():
    rng = np.random.default_rng(123)
    model, *_ = _random_binary_model(rng)
    r1 = mip.solve_mip(model)
    r2 = mip.solve_mip(model)
    assert r1.objective == r2.objective
    assert r1.nodes == r2.nodes
    assert np.array_equal(r1.x, r2.x)


def test_initial_solution_seeds_incumbent():
    m = mip.LinearModel()
    a = m.add_var("x1", kind=mip.BINARY)
    b = m.add_var("x2", kind=mip.BINARY)
    m.add_constraint({a: 3, b: 2}, "<=", 4)
    m.set_objective({a: 5, b: 4}, sense="max")
    s = mip.solve_mip(m, initial_solution=[1.0, 0.0])
    assert s.status == "optimal" and s.objective == pytest.approx(5.0)
    with pytest.raises(mip.ModelError):
        mip.solve_mip(m, initial_solution=[1.0, 1.0])  # violates the row


def test_infeasible_root_with_feasible_seed_raises(monkeypatch):
    # a checked seed proves the LP feasible, so an "infeasible" root is an
    # engine failure, not a solve that may report the seed as optimal
    m = mip.LinearModel()
    a = m.add_var("x1", kind=mip.BINARY)
    b = m.add_var("x2", kind=mip.BINARY)
    m.add_constraint({a: 3, b: 2}, "<=", 4)
    m.set_objective({a: 5, b: 4}, sense="max")
    monkeypatch.setattr(simplex, "solve", lambda *args, **kw:
                        simplex.SimplexResult("infeasible", None, None, None,
                                              0))
    with pytest.raises(mip.NumericalFailure, match="infeasible"):
        mip.solve_mip(m, initial_solution=[1.0, 0.0])
    assert mip.solve_mip(m).status == "infeasible"


def test_root_cut_hook_rounds():
    # hook is called on fractional roots and its cuts are applied
    m = mip.LinearModel()
    x = m.add_var("x", kind=mip.BINARY)
    y = m.add_var("y", kind=mip.BINARY)
    m.add_constraint({x: 2, y: 2}, "<=", 3)   # LP optimum fractional
    m.set_objective({x: 1, y: 1}, sense="max")
    calls = []

    def hook(lp):
        calls.append(lp.x.copy())
        if len(calls) == 1:
            return [mip.Cut({x: 1.0, y: 1.0}, "<=", 1.0, tag="hull")]
        return []

    s = mip.solve_mip(m, root_cut_hook=hook)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(1.0)
    assert len(calls) >= 1
    assert s.cuts_added == 1


def _branching_knapsack():
    # LP optimum x1 = 2/3, x2 = 1: the root is fractional
    m = mip.LinearModel()
    a = m.add_var("x1", kind=mip.BINARY)
    b = m.add_var("x2", kind=mip.BINARY)
    m.add_constraint({a: 3, b: 2}, "<=", 4)
    m.set_objective({a: 5, b: 4}, sense="max")
    return m


def test_node_limit_reported_as_node_limit():
    m = _branching_knapsack()
    s = mip.solve_mip(m, node_limit=1)
    assert s.status == "node_limit"
    assert s.objective is None and s.x is None
    assert s.nodes == 1
    assert s.bound == pytest.approx(s.root_bound)
    assert s.root_bound == pytest.approx(5 * 2 / 3 + 4)


def test_node_limit_with_incumbent_keeps_gap_logic():
    m = _branching_knapsack()
    s = mip.solve_mip(m, node_limit=1, initial_solution=[0.0, 1.0])
    assert s.status == "feasible"          # gap above rel_gap
    assert s.objective == pytest.approx(4.0)
    assert s.gap == pytest.approx((5 * 2 / 3 + 4 - 4) / 4)
    full = mip.solve_mip(m, node_limit=100)
    assert full.status == "optimal" and full.objective == pytest.approx(5.0)


def test_gap_against_a_zero_incumbent_is_infinite():
    # the no-platoon seed saves 0; one node leaves the root bound above it
    handle = branching_sp_handle()
    s = mip.solve_mip(handle.model, node_limit=1,
                      initial_solution=scheduling.solo_schedule(handle))
    assert s.status == "feasible"
    assert s.objective == 0.0 and s.bound > 0.0
    assert s.gap == math.inf


@pytest.mark.parametrize("incumbent,bound,gap", [
    (0.0, 0.0, 0.0), (0.0, -1e-12, math.inf), (4.0, 4.0, 0.0),
    (4.0, 5.0, 0.25), (-4.0, -5.0, 0.25)])
def test_relative_gap(incumbent, bound, gap):
    assert mip._relative_gap(incumbent, bound) == gap


def _unbounded_milp():
    # max x  s.t.  x - y <= 2.5, x integer >= 0, y >= 0: the relaxation
    # and the MILP are unbounded.
    m = mip.LinearModel()
    x = m.add_var("x", kind=mip.INTEGER)
    y = m.add_var("y")
    m.add_constraint({x: 1, y: -1}, "<=", 2.5)
    m.set_objective({x: 1}, sense="max")
    return m


@pytest.mark.parametrize("seed", [None, [0.0, 0.0]])
def test_unbounded_root_reported_as_unbounded(seed):
    s = mip.solve_mip(_unbounded_milp(), initial_solution=seed)
    assert s.status == "unbounded"
    assert s.objective is None and s.x is None and s.gap is None


def _spy_on_simplex(monkeypatch):
    """Record (start, result, cold result) for every LP solve."""
    calls = []
    solve = simplex.solve

    def spy(mat, c, lo, hi, start=None):
        res = solve(mat, c, lo, hi, start=start)
        calls.append((start, res, solve(mat, c, lo, hi)))
        return res

    monkeypatch.setattr(simplex, "solve", spy)
    return calls


def _same_lp_answer(res, cold):
    assert res.status == cold.status
    if cold.status == "optimal":
        assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)


def test_node_lps_restart_from_their_parent_basis(monkeypatch):
    model = branching_sp_model()
    plain = mip.solve_mip(model)
    calls = _spy_on_simplex(monkeypatch)
    sol = mip.solve_mip(model)
    assert sol.status == "optimal" and sol.nodes >= 10
    assert sol.objective == pytest.approx(plain.objective)
    (root_start, _root, _cold), *nodes = calls
    assert root_start is None
    assert len(nodes) == sol.nodes - 1
    # Each node starts from the very HighsBasis of an earlier result, its
    # parent's, and a parent has two children.
    children = [0] * len(calls)
    for k, (start, res, cold) in enumerate(nodes, 1):
        parents = [i for i in range(k) if calls[i][1].basis is start]
        assert len(parents) == 1
        children[parents[0]] += 1
        assert res.warm
        _same_lp_answer(res, cold)
    assert max(children) == 2
    assert sum(res.iterations for _, res, _ in nodes) < \
        sum(cold.iterations for _, _, cold in nodes)


def test_cut_rounds_restart_from_the_previous_root(monkeypatch):
    m = mip.LinearModel()
    x = m.add_var("x", kind=mip.BINARY)
    y = m.add_var("y", kind=mip.BINARY)
    m.add_constraint({x: 2, y: 2}, "<=", 3)
    m.set_objective({x: 1, y: 1}, sense="max")
    cuts = [mip.Cut({x: 1.0, y: 1.0}, "<=", 1.2, tag="hull"),
            mip.Cut({x: 1.0, y: 1.0}, "<=", 1.0, tag="hull")]
    calls = _spy_on_simplex(monkeypatch)
    s = mip.solve_mip(m, root_cut_hook=lambda lp: [cuts.pop(0)] if cuts else [])
    assert s.status == "optimal" and s.objective == pytest.approx(1.0)
    assert s.cuts_added == 2 and s.nodes == 1
    assert calls[0][0] is None
    # Each round starts from the previous root's basis with its cut's row
    # basic.
    for (_, before, _), (start, res, cold) in zip(calls, calls[1:]):
        assert start.col_status == before.basis.col_status
        assert start.row_status == before.basis.row_status + [BASIC]
        assert res.warm
        _same_lp_answer(res, cold)
    assert len(calls) == 3


def test_root_basis_warm_starts_a_repriced_model():
    m = _branching_knapsack()
    first = mip.solve_mip(m)
    assert len(first.root_basis.row_status) == m.num_constraints
    assert len(first.root_basis.col_status) == m.num_vars
    m.set_objective({0: 4, 1: 5}, sense="max")
    warm = mip.solve_mip(m, root_start=first.root_basis)
    cold = mip.solve_mip(m)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective)
    assert np.array_equal(warm.x, cold.x)


@pytest.mark.parametrize("kwargs", [
    {"rel_gap": NAN}, {"rel_gap": INF}, {"rel_gap": -1e-4},
    {"time_limit_s": NAN}], ids=["gap-nan", "gap-inf", "gap-neg", "time-nan"])
def test_solve_mip_rejects_bad_limits(kwargs):
    with pytest.raises(ValueError):
        mip.solve_mip(branching_sp_model(), **kwargs)


# --- compiled rows --------------------------------------------------------

_ROW = st.tuples(
    st.dictionaries(st.integers(0, 3), st.integers(-3, 3), min_size=1),
    st.sampled_from([mip.LE, mip.GE, mip.EQ]), st.integers(-4, 4))


def _model_with(columns, objective, sense, rows):
    m = mip.LinearModel()
    for j, (lb, ub) in enumerate(columns):
        m.add_var(f"x{j}", lb, ub)
    m.set_objective(dict(enumerate(objective)), sense=sense)
    for coeffs, row_sense, rhs in rows:
        m.add_constraint(coeffs, row_sense, rhs)
    return m


def _assert_same_rows(got, ref):
    assert got.a.shape == ref.a.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got.a, name), getattr(ref.a, name))
    assert np.array_equal(got.rlo, ref.rlo)
    assert np.array_equal(got.rhi, ref.rhi)


_ODD_COLUMN = st.sampled_from([(-np.inf, 2.0), (-np.inf, np.inf)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(odd=_ODD_COLUMN,
       objective=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       sense=st.sampled_from(["min", "max"]),
       first=st.lists(_ROW, max_size=5), appended=st.lists(_ROW, max_size=4))
def test_appended_rows_compile_as_from_scratch(odd, objective, sense, first,
                                               appended):
    # Four columns, the last with only an upper bound or free.
    columns = [(0.0, np.inf), (-1.0, 3.0), (0.0, 1.0), odd]
    model = _model_with(columns, objective, sense, first)
    before = model.compiled_rows()
    mip.solve_lp(model)
    for coeffs, row_sense, rhs in appended:
        model.add_constraint(coeffs, row_sense, rhs)
    ref = _model_with(columns, objective, sense,
                      first + appended).compiled_rows()
    _assert_same_rows(model.compiled_rows(), ref)
    # a solve's cut rounds stack the same rows below the matrix it holds
    _assert_same_rows(mip.with_cuts(before, [mip.Cut(*row)
                                             for row in appended],
                                    model.num_vars), ref)
    # the matrix below which the rows were compiled is left as it was
    _assert_same_rows(before, _model_with(columns, objective, sense,
                                          first).compiled_rows())


def _reference(model):
    """Status and objective of the model's LP relaxation by the reference
    simplex, on rows and columns read straight off the model."""
    nv = model.num_vars
    a = np.array([[con.coeffs.get(j, 0.0) for j in range(nv)]
                  for con in model.constraints]).reshape(-1, nv)
    rlo, rhi = ranged_rows([con.sense for con in model.constraints],
                           [con.rhs for con in model.constraints])
    sign = -1.0 if model.obj_sense == "max" else 1.0
    c = np.array([sign * model.obj_coeffs.get(j, 0.0) for j in range(nv)])
    res = reference_solve(a, rlo, rhi, c,
                          [v.lb for v in model.variables],
                          [v.ub for v in model.variables])
    if res.status != "optimal":
        return res.status, None
    return "optimal", sign * res.objective + model.obj_constant


def _assert_matches_reference(lp, model):
    status, objective = _reference(model)
    assert lp.status == status
    if status == "optimal":
        assert lp.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
        mip.check_solution(model, lp.x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(odd=st.lists(_ODD_COLUMN, min_size=1, max_size=2),
       objective=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       constant=st.integers(-2, 2), sense=st.sampled_from(["min", "max"]),
       first=st.lists(_ROW, max_size=5), appended=st.lists(_ROW, max_size=4))
def test_solve_lp_matches_the_reference_before_and_after_appended_rows(
        odd, objective, constant, sense, first, appended):
    # Four columns, the last one or two with only an upper bound or free:
    # HiGHS takes them as they are, the reference after a reformulation.
    columns = [(0.0, np.inf), (-1.0, 3.0), (0.0, 1.0), (0.0, 2.0)]
    columns[4 - len(odd):] = odd
    model = _model_with(columns, objective, sense, first)
    model.set_objective(dict(enumerate(objective)), constant, sense)
    before = mip.solve_lp(model)
    event(f"before: {before.status}")
    _assert_matches_reference(before, model)
    for coeffs, row_sense, rhs in appended:
        model.add_constraint(coeffs, row_sense, rhs)
    _assert_matches_reference(mip.solve_lp(model), model)
    if before.status == "optimal":
        start = mip.extend_start(before.basis, len(appended))
        _assert_matches_reference(mip.solve_lp(model, start=start), model)


def _check_by_loop(model, x, tol=1e-6):
    """``check_solution`` as a loop over columns and rows: the reference."""
    x = np.asarray(x, dtype=float)
    for j, v in enumerate(model.variables):
        if x[j] < v.lb - tol or x[j] > v.ub + tol:
            raise mip.ModelError(f"value of {v.name} violates its bounds")
        if v.kind != mip.CONTINUOUS and abs(x[j] - round(x[j])) > tol:
            raise mip.ModelError(f"value of {v.name} not integral")
    for con in model.constraints:
        lhs = sum(c * x[j] for j, c in con.coeffs.items())
        if con.sense == mip.LE and lhs > con.rhs + tol:
            raise mip.ModelError(f"row {con.name!r} violated")
        if con.sense == mip.GE and lhs < con.rhs - tol:
            raise mip.ModelError(f"row {con.name!r} violated")
        if con.sense == mip.EQ and abs(lhs - con.rhs) > tol:
            raise mip.ModelError(f"row {con.name!r} violated")
    return sum(c * x[j] for j, c in model.obj_coeffs.items()) + model.obj_constant


def _outcome(check, model, x):
    try:
        return "value", check(model, x)
    except mip.ModelError as exc:
        return "error", str(exc)


def test_check_solution_matches_the_row_loop():
    model = branching_sp_model()
    feasible = mip.solve_mip(model).x
    root = mip.solve_lp(model).x          # fractional
    rng = np.random.default_rng(7)
    points = [feasible, root]
    for base in (feasible, root):
        for _ in range(150):
            x = base.copy()
            cols = rng.choice(model.num_vars, size=rng.integers(1, 4),
                              replace=False)
            x[cols] += rng.choice([-2.0, -0.5, -2e-6, 5e-7, 0.3, 1.0, 4.0],
                                  size=cols.size)
            points.append(x)
    seen = set()
    for x in points:
        want = _outcome(_check_by_loop, model, x)
        assert _outcome(mip.check_solution, model, x) == want
        seen.add(want[1].split()[-1] if want[0] == "error" else "value")
    assert {"value", "bounds", "integral", "violated"} <= seen


def _validate_by_loop(model):
    """``LinearModel.validate`` as a loop over columns: the reference."""
    for v in model.variables:
        if math.isnan(v.lb) or math.isnan(v.ub):
            raise mip.ModelError(f"variable {v.name}: NaN bound")
        if v.lb == INF or v.ub == -INF:
            raise mip.ModelError(
                f"variable {v.name}: infinite bound lb {v.lb}, ub {v.ub}")
        if v.lb > v.ub + 1e-15:
            raise mip.ModelError(f"variable {v.name}: lb {v.lb} > ub {v.ub}")
        if v.kind == mip.BINARY and (v.lb < -1e-15 or v.ub > 1 + 1e-15):
            raise mip.ModelError(f"binary {v.name} has bounds outside [0,1]")


_ANY_BOUND = st.sampled_from([NAN, -INF, INF, -1.0, -1e-16, 0.0, 0.5, 1.0,
                              1.0 + 1e-15, 1.0 + 1e-14, 2.0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_ANY_BOUND, _ANY_BOUND, st.sampled_from(mip.KINDS)),
                min_size=1, max_size=6))
def test_validate_matches_the_column_loop(columns):
    model = mip.LinearModel()
    for j, (lb, ub, kind) in enumerate(columns):
        model.add_var(f"c{j}")
        # any state of the arrays, also those add_var and set_column refuse
        model._lb[j], model._ub[j] = lb, ub
        model._kind[j] = mip.KINDS.index(kind)
    got = _outcome(lambda m, _x: m.validate(), model, None)
    event(got[0])
    assert got == _outcome(lambda m, _x: _validate_by_loop(m), model, None)


_COLUMN = st.tuples(st.sampled_from([(0.0, INF), (-1.0, 3.0), (0.0, 1.0),
                                     (-INF, 2.0), (-INF, INF), (1.0, 1.0)]),
                    st.sampled_from(mip.KINDS))
_COST = st.sampled_from([0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 1e-3, 7.0, -0.7])
_VALUE = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e-7,
                                    -1e-7, 1.0 - 1e-7, 1.0 + 2e-6, 3.0 + 1e-5]),
                   st.floats(-4.0, 4.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_check_solution_matches_the_loop_on_generated_models(data):
    columns = data.draw(st.lists(_COLUMN, min_size=1, max_size=6))
    n = len(columns)
    model = mip.LinearModel()
    for j, ((lb, ub), kind) in enumerate(columns):
        model.add_var(f"c{j}", lb, ub, kind)
    for i in range(data.draw(st.integers(0, 4))):
        coeffs = data.draw(st.dictionaries(st.integers(0, n - 1),
                                           st.integers(-2, 2), max_size=n))
        model.add_constraint(coeffs, data.draw(st.sampled_from(["<=", ">=",
                                                                "=="])),
                             data.draw(st.integers(-3, 6)), name=f"r{i}")
    costs = data.draw(st.lists(_COST, min_size=n, max_size=n))
    model.set_objective(dict(enumerate(costs)),
                        data.draw(st.sampled_from([0.0, 1.5, -2.0])),
                        data.draw(st.sampled_from(["min", "max"])))
    lp = mip.solve_lp(model)
    if lp.status == "optimal" and data.draw(st.booleans()):
        x = lp.x
    else:
        x = np.array(data.draw(st.lists(_VALUE, min_size=n, max_size=n)))
    got = _outcome(mip.check_solution, model, x)
    event(got[0] if got[0] == "value" else got[1].split()[-1])
    # the same objective, term by term in column order, or the same error
    assert got == _outcome(_check_by_loop, model, x)


@pytest.mark.parametrize("lb,ub", [(NAN, 1.0), (0.0, NAN), (INF, INF),
                                   (-INF, -INF), (2.0, 1.0)],
                         ids=["nan-lb", "nan-ub", "inf-lb", "-inf-ub",
                              "crossed"])
def test_set_column_rejects_what_add_var_rejects(lb, ub):
    m, x, _y = _xy_model()
    m.set_column(x, lb=-1.0, ub=2.0)
    with pytest.raises(mip.ModelError):
        m.add_var("z", lb, ub)
    for kind in mip.KINDS:
        with pytest.raises(mip.ModelError):
            m.set_column(x, lb=lb, ub=ub, kind=kind)
    assert m.num_vars == 2
    assert m.variables[x] == mip.Variable("x", -1.0, 2.0, mip.CONTINUOUS)
    m.validate()


def test_set_column_checks_like_add_var():
    m, x, y = _xy_model()
    m.set_column(y, lb=-3.0, ub=4.0, kind=mip.BINARY)     # clipped to [0, 1]
    assert m.variables[y] == mip.Variable("y", 0.0, 1.0, mip.BINARY)
    m.set_column(y, kind=mip.INTEGER)
    m.set_column(y, ub=5.0)
    assert m.variables[y] == mip.Variable("y", 0.0, 5.0, mip.INTEGER)
    assert m.integer_indices().tolist() == [y]
    with pytest.raises(mip.ModelError, match="unknown kind"):
        m.set_column(x, kind="semicontinuous")
    with pytest.raises(mip.ModelError, match="unknown column"):
        m.set_column(2, lb=0.0)


def test_columns_change_only_through_set_column():
    # x binary, max x: a NaN upper bound written into the column used to
    # pass validate, and the solve ended optimal at 0.0
    m = mip.LinearModel()
    x = m.add_var("x", kind=mip.BINARY)
    m.set_objective({x: 1.0}, sense="max")
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.variables[x].ub = NAN
    with pytest.raises(ValueError):
        m.ub[x] = NAN
    with pytest.raises(mip.ModelError, match="NaN"):
        m.set_column(x, ub=NAN)
    assert mip.solve_mip(m).objective == 1.0
    m._ub[x] = NAN                  # behind the model's back
    with pytest.raises(mip.ModelError, match="NaN"):
        mip.solve_mip(m)


def test_objective_from_a_vector_or_a_dict():
    m, x, y = _xy_model()
    m.set_objective({y: 2.0, x: -0.0}, 1.0, "max")
    assert m.obj_coeffs == {y: 2.0}
    assert m.c.tobytes() == np.array([0.0, 2.0]).tobytes()
    m.set_objective(np.array([-0.0, 2.0]), 1.0, "max")
    assert m.c.tobytes() == np.array([0.0, 2.0]).tobytes()
    z = m.add_var("z")
    assert m.obj_coeffs == {y: 2.0} and m.c[z] == 0.0
    with pytest.raises(mip.ModelError, match="3 columns"):
        m.set_objective([1.0, 2.0])
    with pytest.raises(mip.ModelError, match="non-finite"):
        m.set_objective([1.0, NAN, 0.0])
    with pytest.raises(mip.ModelError, match="unknown column"):
        m.set_objective({3: 1.0})
    assert m.obj_coeffs == {y: 2.0}


def test_cut_rounds_leave_the_model_unchanged():
    handle = branching_sp_handle()
    model = handle.model
    rows = [(dict(c.coeffs), c.sense, c.rhs, c.name)
            for c in model.constraints]
    compiled = model.compiled_rows()
    solves = [mip.solve_mip(model,
                            root_cut_hook=cuts.make_disjunctive_hook(handle))
              for _ in range(2)]
    assert solves[0].cuts_added > 0
    assert solves[0].root_bound == solves[1].root_bound
    assert solves[0].objective == solves[1].objective
    assert model.num_constraints == len(rows) == compiled.a.shape[0]
    assert [(c.coeffs, c.sense, c.rhs, c.name)
            for c in model.constraints] == rows
    assert model.compiled_rows() is compiled


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _toy_model():
    m = mip.LinearModel("toy")
    x = m.add_var("x1", kind=mip.BINARY)
    y = m.add_var("x2", kind=mip.BINARY)
    z = m.add_var("w", 0.0, np.inf)
    m.add_constraint({x: 3, y: 2}, "<=", 4, name="cap")
    m.add_constraint({x: 1, z: -1}, "==", 0, name="link")
    m.set_objective({x: 5, y: 4, z: 0.5}, sense="max")
    return m


def test_mps_sections(tmp_path):
    path = tmp_path / "toy.mps"
    export.write_model(_toy_model(), "MPS", str(path))
    text = path.read_text()
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert "'INTORG'" in text and "'INTEND'" in text
    assert " BV " in text


def test_single_var_mps(tmp_path):
    m = mip.LinearModel()
    x = m.add_var("x")
    m.add_constraint({x: 1}, "<=", 2)
    m.set_objective({x: 1})
    path = tmp_path / "one.mps"
    export.write_model(m, "MPS", str(path))
    text = path.read_text()
    assert text.startswith("NAME")
    for section in ("ROWS", "COLUMNS", "RHS", "ENDATA"):
        assert section in text


def test_lp_format(tmp_path):
    path = tmp_path / "toy.lp"
    export.write_model(_toy_model(), "LP", str(path))
    text = path.read_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Binaries" in text and text.rstrip().endswith("End")


def test_writer_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.mps", tmp_path / "b.mps"
    export.write_model(_toy_model(), "MPS", str(p1))
    export.write_model(_toy_model(), "MPS", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _read_mps(text):
    """Small reader for the fixed-format MPS that ``write_model`` emits.
    Names hold no blanks, so fields are split on whitespace.  Columns
    between INTORG and INTEND markers are integer, BV makes one binary, and
    the N row is minimized (the writer negates a maximization)."""
    model = mip.LinearModel("read")
    senses = {"L": mip.LE, "G": mip.GE, "E": mip.EQ}
    rows, coeffs, rhs, cols = {}, {}, {}, {}
    obj_row = None
    section, integral = None, False
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        f = line.split()
        if section == "ROWS":
            if f[0] == "N":
                obj_row = f[1]
            else:
                rows[f[1]] = senses[f[0]]
            coeffs[f[1]] = {}
        elif section == "COLUMNS":
            if f[1] == "'MARKER'":
                integral = f[2] == "'INTORG'"
                continue
            if f[0] not in cols:
                cols[f[0]] = model.add_var(
                    f[0], kind=mip.INTEGER if integral else mip.CONTINUOUS)
            for row, val in zip(f[1::2], f[2::2]):
                coeffs[row][cols[f[0]]] = float(val)
        elif section == "RHS":
            for row, val in zip(f[1::2], f[2::2]):
                rhs[row] = float(val)
        elif section == "BOUNDS":
            j = cols[f[2]]
            if f[0] == "BV":
                model.set_column(j, lb=0.0, ub=1.0, kind=mip.BINARY)
            elif f[0] == "MI":
                model.set_column(j, lb=-np.inf)
            elif f[0] in ("LO", "LI"):
                model.set_column(j, lb=float(f[3]))
            elif f[0] in ("UP", "UI"):
                model.set_column(j, ub=float(f[3]))
    for name, sense in rows.items():
        model.add_constraint(coeffs[name], sense, rhs.get(name, 0.0), name=name)
    model.set_objective(coeffs[obj_row], sense="min")
    return model


def test_mps_roundtrip(tmp_path):
    # Binary, bounded integer, boxed continuous and upper-bounded-only
    # columns; <=, == and >= rows; a maximization.
    m = mip.LinearModel("rt")
    x1 = m.add_var("x1", kind=mip.BINARY)
    x2 = m.add_var("x2", kind=mip.BINARY)
    n = m.add_var("n", 0.0, 3.0, kind=mip.INTEGER)
    w = m.add_var("w", -2.0, 5.0)
    v = m.add_var("v", -np.inf, 4.0)
    m.add_constraint({x1: 3, x2: 2, n: 1}, "<=", 4.5, name="cap")
    m.add_constraint({x1: 1, w: -1}, "==", 0, name="link")
    m.add_constraint({n: 1, v: 1}, ">=", 1, name="cover")
    m.set_objective({x1: 5, x2: 4, n: 3, w: 0.5, v: -1}, sense="max")
    path = tmp_path / "rt.mps"
    export.write_model(m, "MPS", str(path))
    back = _read_mps(path.read_text())

    assert [(u.name, u.kind, u.lb, u.ub) for u in back.variables] == \
        [(u.name, u.kind, u.lb, u.ub) for u in m.variables]
    assert [(c.coeffs, c.sense, c.rhs) for c in back.constraints] == \
        [(c.coeffs, c.sense, c.rhs) for c in m.constraints]
    assert back.obj_coeffs == {j: -c for j, c in m.obj_coeffs.items()}
    orig, read = mip.solve_mip(m), mip.solve_mip(back)
    assert orig.status == read.status == "optimal"
    assert orig.objective == pytest.approx(11.0)
    assert read.objective == pytest.approx(-orig.objective)
    mip.check_solution(m, read.x)


def _fractional_loop(x, int_idx):
    """The per-column loop that ``mip._fractional`` replaced."""
    out = []
    for j in int_idx:
        f = x[j] - np.floor(x[j] + 0.5)
        if abs(f) > mip.INT_TOL:
            out.append((j, x[j]))
    return out


_near_integers = st.builds(
    lambda k, d: k + d, st.integers(-3, 3),
    st.sampled_from([0.0, 0.5, -0.5, 1e-6, -1e-6, 1.0000001e-6, 9.999999e-7,
                     -1.0000001e-6, 1e-12, 0.4999999, 0.5000001]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.one_of(_near_integers, st.floats(-4.0, 4.0)),
                min_size=1, max_size=12), st.data())
def test_fractional_scan_matches_the_loop(values, data):
    x = np.array(values)
    idx = data.draw(st.lists(st.integers(0, len(values) - 1), unique=True))
    idx.sort()
    assert mip._fractional(x, np.array(idx, dtype=np.int64)) == \
        _fractional_loop(x, idx)
