"""Routing model: objective variants, hull system, extraction."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import reference_mip
import reference_models
from platoonopt import mip, netmodel as nm, oracle, routing
from platoonopt.netmodel import VehicleMission
from platoonopt.routing import EdgeCostTable, RouteAssignment

from conftest import hull_rows, make_net, shared_edge_instance


def _eval_row(row, assign):
    coeffs, sense, rhs, _name = row
    lhs = sum(c * assign[k] for k, c in coeffs.items())
    if sense == "<=":
        return lhs <= rhs + 1e-9
    if sense == ">=":
        return lhs >= rhs - 1e-9
    return abs(lhs - rhs) <= 1e-9


def _point(vehicles, x, y, yp, w):
    assign = {("x", v): xi for v, xi in zip(vehicles, x)}
    assign.update({"y": y, "yp": yp, "w": w})
    return assign


class TestHullInequalities:
    def test_cuts_claimed_point(self):
        rows = hull_rows((1, 2), [1, 2, 3])
        pt = _point([1, 2, 3], (1, 0, 0), 1, 1, 0)  # violates sum x >= y+y'
        assert not all(_eval_row(r, pt) for r in rows)

    def test_retains_tight_fractional_point(self):
        rows = hull_rows((1, 2), [1, 2, 3])
        pt = _point([1, 2, 3], (0.5, 0.5, 0.5), 1, 0.5, 0)
        assert all(_eval_row(r, pt) for r in rows)

    def test_every_integer_point_satisfies_system(self):
        for nv in (3, 4, 5):
            vehicles = list(range(1, nv + 1))
            rows = hull_rows((1, 2), vehicles)
            for pt in oracle.enum_rdp_edge_points(nv):
                assign = _point(vehicles, pt[:nv], pt[nv], pt[nv + 1], pt[nv + 2])
                assert all(_eval_row(r, assign) for r in rows)

    def test_random_objectives_yield_integral_vertices(self):
        rng = np.random.default_rng(99)
        for nv in (3, 4, 5):
            vehicles = list(range(1, nv + 1))
            rows = hull_rows((1, 2), vehicles)
            for _ in range(60):
                model, cols = _hull_lp(vehicles, rows, rng)
                sol = mip.solve_lp(model)
                assert sol.status == "optimal"
                for j in cols:
                    assert abs(sol.x[j] - round(sol.x[j])) < 1e-6


def _hull_lp(vehicles, rows, rng):
    model = mip.LinearModel()
    cols = {}
    for v in vehicles:
        cols[("x", v)] = model.add_var(f"x{v}", 0, 1)
    cols["y"] = model.add_var("y", 0, 1)
    cols["yp"] = model.add_var("yp", 0, 1)
    cols["w"] = model.add_var("w", 0, np.inf)
    for coeffs, sense, rhs, _name in rows:
        model.add_constraint({cols[k]: c for k, c in coeffs.items()},
                             sense, rhs)
    model.set_objective({j: float(c) for j, c in
                         zip(cols.values(), rng.uniform(-1, 1, len(cols)))},
                        sense="min")
    return model, list(cols.values())


def line_instance():
    """One vehicle, one possible edge."""
    net = make_net({1: (0, 0), 2: (7, 0)}, [(1, 2, 7.0)])
    inst = nm.ProblemInstance(net, [VehicleMission(1, 1, 2, 0.0, 1.0)])
    inst.validate()
    return inst


class TestBuildRdp:
    def test_single_vehicle_costs_plain_fuel(self):
        inst = line_instance()
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model)
        assert sol.objective == pytest.approx(7.0)
        # an edge only one vehicle can take has no platoon column
        e = (1, 2)
        assert e not in h.y_col and e not in h.yp_col and e not in h.w_col
        assert h.model.names == ["x_1_1_2"]

    def test_two_vehicles_shared_edge_platoon_value(self):
        inst = shared_edge_instance(edge_cost=10.0)
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model)
        # side legs 4*4; the shared edge contributes 2*10 - 0.2 - 1.0
        assert sol.objective == pytest.approx(16.0 + 18.8)

    def test_edge_rows_are_the_hull_inequalities(self):
        # the two-vehicle shared edge gets sum x >= y + y' as well
        inst = shared_edge_instance(edge_cost=10.0)
        h = routing.build_rdp(inst)
        e = (3, 4)
        col = {("x", v): h.x_col[(v, e)] for v in (1, 2)}
        col.update(y=h.y_col[e], yp=h.yp_col[e], w=h.w_col[e])
        rows = hull_rows(e, [1, 2])
        assert [r[3] for r in rows][-1] == "hull_(3, 4)"
        emitted = {con.name: con for con in h.model.constraints}
        for coeffs, sense, rhs, name in rows:
            con = emitted[name]
            assert con.coeffs == {col[k]: c for k, c in coeffs.items()}
            assert (con.sense, con.rhs) == (sense, rhs)

    def test_adjusted_costs_enter_objective(self):
        # two vehicles from 1 to 3 along the line 1 - 2 - 3: both edges
        # are shared, and only the first is explored
        net = make_net({1: (0, 0), 2: (10, 0), 3: (14, 0)},
                       [(1, 2, 10.0), (2, 3, 4.0)])
        inst = nm.ProblemInstance(net, [VehicleMission(v, 1, 3, 0.0, 1.0)
                                        for v in (1, 2)], 0.02, 0.1, 10)
        inst.validate()
        shared = (1, 2)
        explored = frozenset([shared])
        # realized platoon of size 2 on the shared edge
        plat_avg = ((1 - 0.02) * 10 + (1 - 0.1) * 10) / 2
        adjusted = {(v, shared): plat_avg for v in (1, 2)}
        h = routing.build_rdp(inst)
        prices = h.pairs.fuel.copy()
        for key, c in adjusted.items():
            prices[h.pairs.index[key]] = c
        routing.set_rdp_costs(h, EdgeCostTable(h.pairs, prices, explored))
        obj = h.model.obj_coeffs
        assert obj[h.x_col[(1, shared)]] == pytest.approx(18.8 / 2)
        # explored edges lose their y'/w objective terms
        assert h.yp_col[shared] not in obj
        assert h.w_col[shared] not in obj
        # unexplored shared edges keep them
        other = (2, 3)
        assert h.edge_vehicles[other] == [1, 2]
        assert obj[h.yp_col[other]] == pytest.approx(-0.02 * 4.0)
        assert obj[h.w_col[other]] == pytest.approx(-0.1 * 4.0)

    def test_infeasible_mission_detected(self):
        net = make_net({1: (0, 0), 2: (7, 0), 3: (3, 3)},
                       [(1, 2, 7.0), (1, 3, 5.0), (3, 2, 5.0)])
        inst = nm.ProblemInstance(
            net, [VehicleMission(1, 1, 2, 0.0, 7.0 / 80.0 + 1e-6)])
        # window admits only the direct edge; shrink candidates to exclude it
        h = routing.build_rdp(inst)
        assert (1, 2) in h.candidates[1]
        bad = nm.ProblemInstance(
            net, [VehicleMission(1, 1, 3, 0.0, 5.0 / 80.0)])
        routing.build_rdp(bad)  # exactly tight

    def test_w_matches_count_minus_one_at_optimum(self):
        inst = shared_edge_instance(edge_cost=10.0)
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model)
        counts = {}
        for (v, e), col in h.x_col.items():
            if sol.x[col] > 0.5:
                counts[e] = counts.get(e, 0) + 1
        assert counts[(3, 4)] == 2
        for e, col in h.w_col.items():
            want = max(0, counts.get(e, 0) - 1)
            assert sol.x[col] == pytest.approx(want, abs=1e-6)


class TestExtraction:
    def test_orders_edges_into_path(self):
        inst = line_instance()
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model)
        ra = routing.extract_route_assignment(h, sol)
        assert ra.routes[1] == (1, 2)

    def test_hash_stable(self):
        inst = shared_edge_instance()
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model)
        a = routing.extract_route_assignment(h, sol)
        b = routing.extract_route_assignment(h, sol)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        other = RouteAssignment({**a.routes, 1: a.routes[1][:-1]},
                                a.edge_times, a.edge_costs)
        assert other != a and len({a, other}) == 2

    def test_vehicles_by_edge_matches_raw_x(self):
        inst = shared_edge_instance()
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model)
        ra = routing.extract_route_assignment(h, sol)
        by_edge = ra.vehicles_by_edge()
        for (v, e), col in h.x_col.items():
            if sol.x[col] > 0.5:
                assert v in by_edge[e]
            else:
                assert v not in by_edge.get(e, [])

    def test_non_path_rejected(self):
        inst = line_instance()
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model)
        sol.x[h.x_col[(1, (1, 2))]] = 0.0  # drop the only edge
        with pytest.raises(routing.NonPathSolution):
            routing.extract_route_assignment(h, sol)


def test_rdp_value_is_lower_bound_on_cvpp(small_grid):
    for seed in (0, 1, 2):
        inst = nm.generate_two_cluster(small_grid, 3, seed=seed)
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model,
                            initial_solution=routing.initial_solution(h))
        z_star = oracle.brute_force_cvpp(inst).z_star
        assert sol.objective <= z_star + 1e-6


@pytest.mark.parametrize("generator", [nm.generate_two_cluster,
                                       nm.generate_distributed])
def test_rdp_value_equals_presumed_routing_optimum(small_grid, generator):
    # the routing model's optimum is the presumed fuel of the best route
    # combination, found here by enumerating every combination
    for seed in range(6):
        inst = generator(small_grid, 3, seed=seed)
        h = routing.build_rdp(inst)
        sol = mip.solve_mip(h.model, rel_gap=1e-4,
                            initial_solution=routing.initial_solution(h))
        z_oracle, _routes = oracle.presumed_routing_optimum(inst)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(z_oracle, rel=1e-4)


def test_greedy_assignment_feasible(small_grid):
    inst = nm.generate_distributed(small_grid, 6, seed=2)
    h = routing.build_rdp(inst)
    x0 = routing.initial_solution(h)
    mip.check_solution(h.model, x0)  # raises on violation


def test_cost_table_invariants(small_grid):
    inst = nm.generate_distributed(small_grid, 3, seed=5)
    pairs = routing.build_rdp(inst).pairs
    _v, e = pairs.keys[0]
    for scale in (1.5, 0.5):
        prices = pairs.fuel.copy()
        prices[0] *= scale
        bad = EdgeCostTable(pairs, prices, frozenset([e]))
        with pytest.raises(ValueError):
            bad.validate(inst.sigma_f)
        # off the explored edges a pair costs its fuel, whatever its price
        EdgeCostTable(pairs, prices).validate(inst.sigma_f)


def test_initial_table_prices_every_pair_at_its_fuel(small_grid):
    inst = nm.generate_distributed(small_grid, 3, seed=5)
    h = routing.build_rdp(inst)
    table = EdgeCostTable.initial(h.pairs)
    fuel = inst.network.fuel_table()
    assert table.explored == frozenset() and table.adjusted == {}
    assert table.prices.tobytes() == np.array(
        [fuel[e] for _v, e in h.pairs.keys]).tobytes()
    assert all(table.cost(v, e) == fuel[e] for v, e in h.pairs.keys)
    # the model as built is priced at it
    assert mip._columns(h.model)[0][:len(h.pairs.keys)].tobytes() == \
        table.prices.tobytes()


def test_a_table_over_other_pairs_is_refused(small_grid):
    inst = nm.generate_distributed(small_grid, 3, seed=5)
    h = routing.build_rdp(inst)
    every = routing.CandidatePairs(
        inst, {m.id: set(inst.network.edges) for m in inst.missions})
    with pytest.raises(ValueError, match="x columns"):
        routing.set_rdp_costs(h, EdgeCostTable.initial(every))
    # the equal pairs of another build of the model are its columns
    routing.set_rdp_costs(
        h, EdgeCostTable.initial(routing.build_rdp(inst).pairs))


@pytest.mark.parametrize("scale,what", [(1.5, "out of range"),
                                        (0.5, "below follower floor")])
def test_cost_table_of_pairs_names_the_first_bad_cost_edge_by_edge(
        small_grid, scale, what):
    inst = nm.generate_distributed(small_grid, 3, seed=5)
    pairs = routing.build_rdp(inst).pairs
    ids = [v for v, _e in pairs.keys]
    # the last vehicle's pairs and the pair before them, which comes first
    # vehicle by vehicle but not edge by edge
    bad = list(range(ids.index(ids[-1]) - 1, len(ids)))
    first = min((pairs.keys[j] for j in bad), key=lambda k: (k[1], k[0]))
    assert first != pairs.keys[bad[0]]
    prices = pairs.fuel.copy()
    prices[bad] *= scale
    table = EdgeCostTable(pairs, prices, frozenset(pairs.edges))
    with pytest.raises(ValueError) as err:
        table.validate(inst.sigma_f)
    assert str(err.value) == f"adjusted cost {what} for {first[0]},{first[1]}"


def _single_and_shared(h):
    """The candidate edges of a routing model in one vehicle's set, and
    those in two or more."""
    single = [e for e, vs in h.edge_vehicles.items() if len(vs) == 1]
    return single, [e for e, vs in h.edge_vehicles.items() if len(vs) >= 2]


def test_an_edge_one_vehicle_can_take_has_no_platoon_columns_or_rows(
        small_grid):
    inst = nm.generate_distributed(small_grid, 6, seed=2)
    h = routing.build_rdp(inst)
    single, shared = _single_and_shared(h)
    assert single and shared
    names, rows = set(h.model.names), h.model.row_names
    for e in single:
        assert e not in h.y_col and e not in h.yp_col and e not in h.w_col
        assert not {f"{c}_{e[0]}_{e[1]}" for c in ("y", "yp", "w")} & names
        assert not [r for r in rows if r.endswith(f"_{e}")]
    # a shared edge keeps its three columns and its rows, one used row per
    # vehicle
    assert list(h.y_col) == shared
    for e in shared:
        cols = (h.y_col[e], h.yp_col[e], h.w_col[e])
        assert [h.model.names[j] for j in cols] == \
            [f"{c}_{e[0]}_{e[1]}" for c in ("y", "yp", "w")]
        assert len([r for r in rows if r.endswith(f"_{e}")]) == \
            4 + len(h.edge_vehicles[e])
    assert h.model.num_vars == len(h.pairs.keys) + 3 * len(shared)
    mip.check_solution(h.model, routing.initial_solution(h))


_GRID = st.tuples(st.sampled_from(["distributed", "two_cluster"]),
                  st.integers(3, 6), st.integers(2, 8), st.integers(0, 30),
                  st.integers(0, 2 ** 16))


def _lifted(h, full, x):
    """The reduced model's point ``x`` in the full model's columns: y = x
    and y' = w = 0 on an edge one vehicle can take."""
    out = np.zeros(full.model.num_vars)
    for cols, full_cols in ((h.x_col, full.x_col), (h.y_col, full.y_col),
                            (h.yp_col, full.yp_col), (h.w_col, full.w_col)):
        for key, j in cols.items():
            out[full_cols[key]] = x[j]
    for e in _single_and_shared(h)[0]:
        out[full.y_col[e]] = x[h.x_col[(h.edge_vehicles[e][0], e)]]
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=_GRID)
def test_the_reduced_model_has_the_full_models_optima(spec):
    # the paper's model gives every candidate edge its platoon columns and
    # rows; the program's leaves them out on edges one vehicle can take
    generator, k, n, seed, price_seed = spec
    net = nm.make_grid_network(k, k, spacing_km=40, jitter=0.25, seed=seed)
    try:
        inst = getattr(nm, f"generate_{generator}")(net, n, seed)
    except (nm.NoHubPair, nm.NoNodeInRadius):
        assume(False)
    h = routing.build_rdp(inst)
    pairs = h.pairs
    single, _shared = _single_and_shared(h)
    event(f"edges one vehicle can take: {bool(single)}")
    # a later iteration's table: some edges explored, at adjusted prices
    rng = np.random.default_rng(price_seed)
    explored = frozenset(e for e in pairs.edges if rng.random() < 0.5)
    prices = pairs.fuel * rng.uniform(1 - inst.sigma_f, 1.0, len(pairs.keys))
    for costs in (EdgeCostTable.initial(pairs),
                  EdgeCostTable(pairs, prices, explored)):
        routing.set_rdp_costs(h, costs)
        full = reference_models.build_rdp(inst, costs, full=True)
        assert full.model.num_vars == h.model.num_vars + 3 * len(single)
        assert full.model.num_constraints == \
            h.model.num_constraints + 5 * len(single)
        for relax in (True, False):
            got = reference_mip.solve(reference_mip.load(h.model), relax)
            want = reference_mip.solve(reference_mip.load(full.model), relax)
            assert got[0] == want[0] == "optimal"
            assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)
        sol = mip.solve_mip(h.model,
                            initial_solution=routing.initial_solution(h))
        assert sol.status == "optimal"
        assert mip.check_solution(full.model, _lifted(h, full, sol.x)) == \
            pytest.approx(sol.objective, rel=1e-12, abs=1e-9)


class TestRetirement:
    """Explored shared edges lose their platoon columns and per-edge rows
    (``routing.retire_explored``), which changes no optimum."""

    def test_a_table_that_unexplores_a_retired_edge_is_rejected(
            self, small_grid):
        inst = nm.generate_two_cluster(small_grid, 6, seed=0)
        h = routing.build_rdp(inst)
        e = list(h.y_col)[1]
        costs = EdgeCostTable(h.pairs, h.pairs.fuel, frozenset([e]))
        assert routing.retire_explored(h, costs) is not None
        assert e not in h.y_col
        routing.set_rdp_costs(h, costs)
        c = h.model.c.copy()
        for table in (EdgeCostTable.initial(h.pairs),
                      EdgeCostTable(h.pairs, h.pairs.fuel,
                                    frozenset(h.y_col))):
            with pytest.raises(ValueError, match=re.escape(str(e))):
                routing.set_rdp_costs(h, table)
            assert np.array_equal(h.model.c, c)     # not priced

    def test_a_table_without_newly_explored_edges_retires_nothing(
            self, small_grid):
        inst = nm.generate_distributed(small_grid, 6, seed=2)
        h = routing.build_rdp(inst)
        single, shared = _single_and_shared(h)
        assert single and shared
        model, y_col = h.model, dict(h.y_col)
        for explored in (frozenset(), frozenset(single)):
            table = EdgeCostTable(h.pairs, h.pairs.fuel, explored)
            assert routing.retire_explored(h, table) is None
            assert h.model is model and h.y_col == y_col
        # nor does one whose explored edges were retired before
        table = EdgeCostTable(h.pairs, h.pairs.fuel, frozenset(shared[:1]))
        assert routing.retire_explored(h, table) is not None
        model = h.model
        assert routing.retire_explored(h, table) is None
        assert h.model is model

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(["distributed", "two_cluster"]),
           st.integers(4, 6), st.integers(4, 12), st.integers(0, 30),
           st.integers(0, 2 ** 16))
    def test_the_retired_model_has_the_full_models_optima(
            self, generator, k, n, seed, price_seed):
        net = nm.make_grid_network(k, k, spacing_km=40, jitter=0.25,
                                   seed=seed)
        try:
            inst = getattr(nm, f"generate_{generator}")(net, n, seed)
        except (nm.NoHubPair, nm.NoNodeInRadius):
            assume(False)
        h, full = routing.build_rdp(inst), routing.build_rdp(inst)
        mip.solve_lp(h.model)           # HiGHS holds the model, as in a run
        # a later iteration's table: some shared edges explored, at
        # adjusted prices
        rng = np.random.default_rng(price_seed)
        pairs = h.pairs
        explored = [e for e in h.y_col if rng.random() < 0.5]
        prices = pairs.fuel * rng.uniform(1 - inst.sigma_f, 1.0,
                                          len(pairs.keys))
        costs = EdgeCostTable(pairs, prices, frozenset(explored))
        kept = routing.retire_explored(h, costs)
        event(f"edges retired: {bool(explored)}")
        assert (kept is None) == (not explored)
        if kept is None:
            kept = np.ones(full.model.num_vars, dtype=bool)
        for handle in (h, full):
            routing.set_rdp_costs(handle, costs)
        # the full model without the retired edges' columns and rows
        assert h.model.names == [name for name, keep in
                                 zip(full.model.names, kept) if keep]
        assert h.model.num_constraints == full.model.num_constraints - sum(
            len(full.edge_vehicles[e]) + 4 for e in explored)
        assert list(h.y_col) == [e for e in full.y_col if e not in explored]
        assert [h.model.names[j] for j in h.w_col.values()] == \
            [full.model.names[full.w_col[e]] for e in h.w_col]
        # the LP optimum, from the basis HiGHS kept, against HiGHS on the
        # full model
        lp = mip.solve_lp(h.model, h.model.compiled_rows().held)
        want = reference_mip.solve(reference_mip.load(full.model), True)
        assert lp.status == want[0] == "optimal"
        assert lp.objective == pytest.approx(want[1], rel=1e-9, abs=1e-9)
        sol = mip.solve_mip(h.model,
                            initial_solution=routing.initial_solution(h))
        ref = mip.solve_mip(full.model,
                            initial_solution=routing.initial_solution(full))
        assert sol.status == ref.status == "optimal"
        assert abs(sol.objective - ref.objective) <= \
            mip.DEFAULT_REL_GAP * abs(ref.objective)
        # its point with (y, y', w) = (max x, 0, 0) on each retired edge
        # is the full model's, of the same objective
        x = np.zeros(full.model.num_vars)
        x[kept] = sol.x
        for e in explored:
            x[full.y_col[e]] = max(sol.x[h.x_col[(v, e)]]
                                   for v in full.edge_vehicles[e])
        assert mip.check_solution(full.model, x) == \
            mip.check_solution(h.model, sol.x)
