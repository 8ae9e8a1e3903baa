"""Cut families: star-partition rows, size facets, disjunctive separation."""

import itertools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from platoonopt import cuts, mip, netmodel as nm, oracle, routing, simplex
from platoonopt import scheduling as sched

import reference_cglp
from conftest import add_cut, branching_sp_handle


def _row_holds(row, values):
    coeffs, sense, rhs = row
    lhs = sum(c * values.get(k, 0.0) for k, c in coeffs.items())
    return lhs <= rhs + 1e-9 if sense == "<=" else lhs >= rhs - 1e-9


def _vec_values(links, vehicles):
    vals = {}
    vs = sorted(vehicles)
    for a, v in enumerate(vs):
        for u in vs[a + 1:]:
            vals[(u, v)] = 1.0 if (u, v) in links else 0.0
    return vals


class TestStarPartitionRows:
    def test_two_vehicles_single_row(self):
        rows = cuts.star_partition_constraints([1, 2])
        assert len(rows) == 1
        assert rows[0] == ({(2, 1): 1.0}, "<=", 1.0)

    def test_row_count_formula(self):
        for n in (2, 3, 4, 5, 6):
            vs = list(range(1, n + 1))
            rows = cuts.star_partition_constraints(vs)
            pairs = [(u, v) for v in vs[1:] for u in vs if u > v]
            assert len(rows) == 1 + len(pairs)

    def test_chain_violates_some_row(self):
        # v3 follows v2 while v2 follows v1: a path of length two
        rows = cuts.star_partition_constraints([1, 2, 3])
        vals = _vec_values({(2, 1), (3, 2)}, [1, 2, 3])
        assert not all(_row_holds(r, vals) for r in rows)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_integer_points_equal_star_partitions(self, n):
        vs = list(range(1, n + 1))
        rows = cuts.star_partition_constraints(vs)
        pairs = [(u, v) for a, v in enumerate(vs) for u in vs[a + 1:]]
        sat = set()
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            vals = dict(zip(pairs, map(float, bits)))
            if all(_row_holds(r, vals) for r in rows):
                sat.add(frozenset(p for p, b in zip(pairs, bits) if b))
        expect = {frozenset((u, v) for u, v in links)
                  for links in oracle.enum_star_partitions(n)}
        assert sat == expect

    def test_random_objectives_hit_binary_vertices(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 5, 6):
            vs = list(range(1, n + 1))
            rows = cuts.star_partition_constraints(vs)
            pairs = sorted({k for r in rows for k in r[0]})
            for _ in range(50):
                m = mip.LinearModel()
                cols = {p: m.add_var(f"f{p}", 0, 1) for p in pairs}
                for coeffs, sense, rhs in rows:
                    m.add_constraint({cols[k]: c for k, c in coeffs.items()},
                                     sense, rhs)
                m.set_objective({cols[p]: float(c) for p, c in
                                 zip(pairs, rng.uniform(-1, 1, len(pairs)))},
                                sense="min")
                sol = mip.solve_lp(m)
                assert sol.status == "optimal"
                for p in pairs:
                    assert abs(sol.x[cols[p]] - round(sol.x[cols[p]])) < 1e-6


class TestSizeFacets:
    def test_no_subset_when_not_enough_vehicles(self):
        assert cuts.platoon_size_facets([1, 2, 3], 3) == []

    def test_oversized_star_infeasible(self):
        rows = cuts.platoon_size_facets([1, 2, 3, 4], 3)
        assert len(rows) == 1
        vals = _vec_values({(2, 1), (3, 1), (4, 1)}, [1, 2, 3, 4])
        lhs = sum(c * vals.get(k, 0.0) for k, c in rows[0][0].items())
        assert lhs == pytest.approx(3.0)
        assert not _row_holds(rows[0], vals)  # 3 > lambda-1 = 2

    def test_capped_partitions_satisfy_rows(self):
        rows = cuts.platoon_size_facets([1, 2, 3, 4], 3)
        for links in oracle.enum_star_partitions(4, max_platoon=3):
            vals = _vec_values(set(links), [1, 2, 3, 4])
            assert all(_row_holds(r, vals) for r in rows)

    def test_cap_and_greedy_ranking(self):
        vs = list(range(1, 7))
        all_rows = cuts.platoon_size_facets(vs, 2, cap=1000)
        assert len(all_rows) == 20  # C(6,3)
        # the cap keeps the first subsets in lexicographic order
        assert cuts.platoon_size_facets(vs, 2, cap=3) == all_rows[:3]


class TestActiveSets:
    def test_appendix_sets(self, appendix_example):
        ex = appendix_example
        act = cuts.collect_active_sets(ex["point"], ex["handle"])
        assert act is not None
        assert act.v1 == [2, 4] and act.v2 == [1, 3]
        n = ex["nodes"]
        assert act.star[:2] == (2, 1)
        assert act.star[2][:2] == (n["C"], n["D"])
        assert act.f_star == pytest.approx(0.75)
        assert act.u1 == [3] and act.u2 == [4]
        fs = {(u, v, k[:2]) for u, v, k in act.fset}
        assert fs == {(3, 1, (n["B"], n["C"])), (4, 2, (n["D"], n["G"]))}

    def test_integral_point_returns_none(self, appendix_example):
        ex = appendix_example
        h = ex["handle"]
        sol = mip.solve_mip(h.model)
        point = mip.LpSolution("optimal", sol.objective, sol.x)
        assert cuts.collect_active_sets(point, h) is None

    def test_slack_bigm_returns_none(self, appendix_example):
        # pulling the fractional pair's times together leaves slack in both
        # big-M rows, so no qualifying tuple exists
        ex = appendix_example
        h = ex["handle"]
        n = ex["nodes"]
        x = ex["point"].x.copy()
        x[h.dep_col[1]] = 3.0
        x[h.dep_col[2]] = 2.5   # entry gap at C becomes 0.5 < M(1-f) = 1
        x[h.f_col[(3, 1, (n["B"], n["C"], ((n["B"], n["C"]),)))]] = 0.0
        x[h.f_col[(4, 2, (n["D"], n["G"], ((n["D"], n["G"]),)))]] = 0.0
        point = mip.LpSolution("optimal", None, x)
        assert cuts.collect_active_sets(point, h) is None


class TestCglp:
    def test_feasible_bounded_on_appendix(self, appendix_example):
        ex = appendix_example
        act = cuts.collect_active_sets(ex["point"], ex["handle"])
        rows, c, lo, hi, _sys = cuts.build_cglp(act, ex["point"], ex["handle"])
        sol = simplex.solve(rows, c, lo, hi)
        assert sol.status == "optimal"
        assert sol.objective < -1e-7  # separating multipliers exist

    def test_duplicate_rows_leave_violation_unchanged(self, appendix_example):
        ex = appendix_example
        first = cuts.separate_disjunctive(ex["point"], ex["handle"])
        again = cuts.separate_disjunctive(ex["point"], ex["handle"])
        assert first.violation == pytest.approx(again.violation)

    @staticmethod
    def _root_points(handle, rounds=8):
        """The root LP points of ``handle``'s model, before and after each
        round of one disjunctive cut (the model gets the cuts)."""
        lp = mip.solve_lp(handle.model)
        points = [lp]
        for _ in range(rounds):
            found = cuts.separate_disjunctive(lp, handle)
            if found is None:
                break
            add_cut(handle.model, found.cut)
            lp = mip.solve_lp(handle.model)
            points.append(lp)
        return points

    def _cases(self, appendix_example):
        ex = appendix_example
        yield ex["point"], ex["handle"]
        handle = branching_sp_handle()
        for point in self._root_points(handle):
            yield point, handle

    def test_block_is_the_model_build(self, appendix_example):
        # HiGHS gets the same rows, columns and values either way
        seen = 0
        for point, handle in self._cases(appendix_example):
            act = cuts.collect_active_sets(point, handle)
            if act is None:
                continue
            rows, c, lo, hi, _sys = cuts.build_cglp(act, point, handle)
            model, _sys, _layout = reference_cglp.cglp_model(act, point,
                                                             handle)
            ref_rows = model.compiled_rows()
            ref_c, ref_lo, ref_hi, sign = mip._columns(model)
            assert sign == 1.0 and model.obj_constant == 0.0
            ours, ref = rows.csc, ref_rows.csc
            assert ours.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                assert getattr(ours, name).tobytes() == \
                    getattr(ref, name).tobytes(), name
            for got, want in ((c, ref_c), (lo, ref_lo), (hi, ref_hi),
                              (rows.rlo, ref_rows.rlo),
                              (rows.rhi, ref_rows.rhi)):
                assert got.dtype == want.dtype and \
                    got.tobytes() == want.tobytes()
            seen += 1
        assert seen >= 3

    def test_cuts_are_the_model_build_cuts(self, appendix_example):
        seen = 0
        for point, handle in self._cases(appendix_example):
            got = cuts.separate_disjunctive(point, handle)
            want = reference_cglp.separate(point, handle)
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert got.cut == want.cut
            assert list(got.cut.coeffs.items()) == \
                list(want.cut.coeffs.items())
            assert got.violation == want.violation
            assert got.active == want.active
            for name in ("alpha", "beta0", "beta1"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert (got.gamma0, got.gamma1) == (want.gamma0, want.gamma1)
            seen += 1
        assert seen >= 3


class TestSeparation:
    def test_appendix_cut_violated_and_valid(self, appendix_example):
        ex = appendix_example
        dc = cuts.separate_disjunctive(ex["point"], ex["handle"])
        assert dc is not None
        assert dc.violation > 1e-7
        # validity: every integral feasible point satisfies the cut
        h = ex["handle"]
        for fvals in itertools.product((0, 1), repeat=len(h.f_col)):
            model = h.model.copy()
            for (key, col), fv in zip(sorted(h.f_col.items()), fvals):
                model.set_column(col, lb=float(fv), ub=float(fv))
            sol = mip.solve_mip(model)
            if sol.status != "optimal":
                continue
            lhs = sum(c * sol.x[j] for j, c in dc.cut.coeffs.items())
            assert lhs >= dc.cut.rhs - 1e-7

    def test_cut_never_raises_root_bound(self, appendix_example):
        ex = appendix_example
        model = ex["handle"].model.copy()
        lp0 = mip.solve_lp(model)
        dc = cuts.separate_disjunctive(lp0, ex["handle"])
        if dc is not None:
            add_cut(model, dc.cut)
            lp1 = mip.solve_lp(model)
            assert lp1.objective <= lp0.objective + 1e-9

    def test_bound_rounds_monotone(self, appendix_example):
        ex = appendix_example
        model = ex["handle"].model.copy()
        bounds = []
        lp = mip.solve_lp(model)
        for _ in range(6):
            bounds.append(lp.objective)
            dc = cuts.separate_disjunctive(lp, ex["handle"])
            if dc is None:
                break
            add_cut(model, dc.cut)
            lp = mip.solve_lp(model)
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    def test_report_orders_bounds(self, appendix_example):
        ex = appendix_example
        rep = cuts.bound_improvement_report(ex["contracted"], ex["params"],
                                            ex["bounds"])
        assert rep["lp_bound_disj"] <= rep["lp_bound_plain"] + 1e-9
        assert rep["lp_bound_disj_star"] <= rep["lp_bound_disj"] + 1e-9
        assert rep["lp_bound_disj"] < rep["lp_bound_plain"] - 1e-9
        assert rep["n_disjunctive"] >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_star_bound_matches_a_model_built_with_star_rows(
            self, seed):
        # the report appends the star rows below the cuts; a model built
        # with the star rows and then given the same cuts
        # holds the same rows in another order, so its cold LP agrees (the
        # report's model has no departure-window rows, so neither do these)
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 8, seed=seed)
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        bounds = sched.time_bounds(con, inst.missions)
        rep = cuts.bound_improvement_report(con, inst, bounds)
        plain = sched.build_sp(con, inst, bounds,
                               sched.CutOptions(window=False))
        starred = sched.build_sp(con, inst, bounds,
                                 sched.CutOptions(star_partition=True,
                                                  window=False))
        assert rep["n_star_rows"] == (starred.model.num_constraints
                                      - plain.model.num_constraints) > 0
        for d in rep["disj_cuts"]:
            add_cut(starred.model, d.cut)
        cold = mip.solve_lp(starred.model)
        assert cold.status == "optimal"
        assert rep["lp_bound_disj_star"] == pytest.approx(cold.objective,
                                                          rel=1e-9, abs=1e-9)


_GRIDS = {k: nm.make_grid_network(k, k, spacing_km=40, jitter=0.25, seed=5)
          for k in (6, 7, 8)}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator=st.sampled_from(["distributed", "two_cluster"]),
       k=st.sampled_from(sorted(_GRIDS)), n=st.integers(4, 14),
       seed=st.integers(1, 100))
def test_report_is_the_reference_loop(generator, k, n, seed):
    # the report runs solve_mip's root cut rounds on a relaxation of its
    # own; a loop over a model the cuts and star rows are added to gives
    # the same bounds and cuts, bit for bit
    inst = getattr(nm, f"generate_{generator}")(_GRIDS[k], n, seed)
    ra = routing.shortest_path_assignment(inst)
    con = sched.contract(ra, ra.edge_times, ra.edge_costs)
    bounds = sched.time_bounds(con, inst.missions)
    got = cuts.bound_improvement_report(con, inst, bounds)
    want = reference_cglp.bound_improvement_report(con, inst, bounds)
    event(f"{got['n_disjunctive']} cuts")
    for key in ("lp_bound_plain", "lp_bound_disj", "lp_bound_disj_star",
                "n_disjunctive", "n_star_rows"):
        assert got[key] == want[key], key
    assert [(list(d.cut.coeffs.items()), d.cut.sense, d.cut.rhs)
            for d in got["disj_cuts"]] == \
        [(list(d.cut.coeffs.items()), d.cut.sense, d.cut.rhs)
         for d in want["disj_cuts"]]


@pytest.mark.parametrize("generator, k, n, seed", [
    ("two_cluster", 8, 16, 1), ("two_cluster", 8, 16, 3),
    ("two_cluster", 8, 16, 5), ("two_cluster", 8, 16, 7),
    ("two_cluster", 6, 14, 1), ("distributed", 8, 14, 42)])
def test_report_rounds_on_the_live_instance_match_fresh_matrices(
        generator, k, n, seed, monkeypatch):
    # each cut round and the star rows go to the HiGHS instance of the rows
    # above them and restart from the basis it holds; a matrix of the same
    # rows loaded from scratch gives the same status and bound.  These
    # instances take 0 to 4 cut rounds and 4 to 105 star rows.
    inst = getattr(nm, f"generate_{generator}")(_GRIDS[k], n, seed)
    ra = routing.shortest_path_assignment(inst)
    con = sched.contract(ra, ra.edge_times, ra.edge_costs)
    bounds = sched.time_bounds(con, inst.missions)
    solves = []
    solve = mip.Relaxation.solve

    def recording(rel, lo, hi, start=None):
        held = start is not None and start is rel.rows.held
        lp = solve(rel, lo, hi, start)
        solves.append((rel, rel.rows, held, lp))
        return lp

    monkeypatch.setattr(mip.Relaxation, "solve", recording)
    rep = cuts.bound_improvement_report(con, inst, bounds)
    monkeypatch.undo()
    assert len(solves) == rep["n_disjunctive"] + 2
    for i, (rel, rows, held, lp) in enumerate(solves):
        if i:
            assert solves[i - 1][1]._h is None or solves[i - 1][1] is rows
            assert held == (solves[i - 1][3].status == "optimal")
        ref = simplex.solve(simplex.Matrix(rows.a, rows.rlo, rows.rhi),
                            rel.c, rel.lo, rel.hi)
        assert lp.status == ref.status
        if ref.status == "optimal":
            assert lp.objective == pytest.approx(
                rel.sign * ref.objective + rel.offset, rel=1e-9)
    if solves[-1][3].status == "optimal":
        assert solves[-1][3].objective == rep["lp_bound_disj_star"]
