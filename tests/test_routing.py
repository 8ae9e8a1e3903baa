"""Routing model: objective variants, hull system, extraction."""

import itertools

import numpy as np
import pytest

from platoonopt import mip, netmodel as nm, oracle, routing
from platoonopt.netmodel import VehicleMission
from platoonopt.routing import EdgeCostTable, RouteAssignment

from conftest import make_net, shared_edge_instance


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
        rows = routing.hull_inequalities((1, 2), [1, 2, 3])
        pt = _point([1, 2, 3], (1, 0, 0), 1, 1, 0)  # violates sum x >= y+y'
        assert not all(_eval_row(r, pt) for r in rows)

    def test_retains_tight_fractional_point(self):
        rows = routing.hull_inequalities((1, 2), [1, 2, 3])
        pt = _point([1, 2, 3], (0.5, 0.5, 0.5), 1, 0.5, 0)
        assert all(_eval_row(r, pt) for r in rows)

    def test_every_integer_point_satisfies_system(self):
        for nv in (3, 4, 5):
            vehicles = list(range(1, nv + 1))
            rows = routing.hull_inequalities((1, 2), vehicles)
            for pt in oracle.enum_rdp_edge_points(nv):
                assign = _point(vehicles, pt[:nv], pt[nv], pt[nv + 1], pt[nv + 2])
                assert all(_eval_row(r, assign) for r in rows)

    def test_random_objectives_yield_integral_vertices(self):
        rng = np.random.default_rng(99)
        for nv in (3, 4, 5):
            vehicles = list(range(1, nv + 1))
            rows = routing.hull_inequalities((1, 2), vehicles)
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
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        sol = mip.solve_mip(h.model)
        assert sol.objective == pytest.approx(7.0)
        e = (1, 2)
        assert sol.x[h.w_col[e]] == pytest.approx(0.0)
        assert sol.x[h.yp_col[e]] == pytest.approx(0.0)

    def test_two_vehicles_shared_edge_platoon_value(self):
        inst = shared_edge_instance(edge_cost=10.0)
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        sol = mip.solve_mip(h.model)
        # side legs 4*4; the shared edge contributes 2*10 - 0.2 - 1.0
        assert sol.objective == pytest.approx(16.0 + 18.8)

    def test_edge_rows_are_the_hull_inequalities(self):
        # the two-vehicle shared edge gets sum x >= y + y' as well
        inst = shared_edge_instance(edge_cost=10.0)
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        e = (3, 4)
        col = {("x", v): h.x_col[(v, e)] for v in (1, 2)}
        col.update(y=h.y_col[e], yp=h.yp_col[e], w=h.w_col[e])
        rows = routing.hull_inequalities(e, [1, 2])
        assert [r[3] for r in rows][-1] == "hull_(3, 4)"
        emitted = {con.name: con for con in h.model.constraints}
        for coeffs, sense, rhs, name in rows:
            con = emitted[name]
            assert con.coeffs == {col[k]: c for k, c in coeffs.items()}
            assert (con.sense, con.rhs) == (sense, rhs)

    def test_adjusted_costs_enter_objective(self):
        inst = shared_edge_instance(edge_cost=10.0)
        base = EdgeCostTable.initial(inst)
        shared = (3, 4)
        explored = frozenset([shared])
        # realized platoon of size 2 on the shared edge
        plat_avg = ((1 - 0.02) * 10 + (1 - 0.1) * 10) / 2
        adjusted = {(v, shared): plat_avg for v in (1, 2)}
        costs = EdgeCostTable(base.base, adjusted, explored)
        h = routing.build_rdp(inst, costs, iteration=2)
        obj = h.model.obj_coeffs
        assert obj[h.x_col[(1, shared)]] == pytest.approx(18.8 / 2)
        # explored edges lose their y'/w objective terms
        assert h.yp_col[shared] not in obj
        assert h.w_col[shared] not in obj
        # unexplored edges keep them
        other = (1, 3)
        assert obj[h.yp_col[other]] == pytest.approx(-0.02 * 4.0)

    def test_infeasible_mission_detected(self):
        net = make_net({1: (0, 0), 2: (7, 0), 3: (3, 3)},
                       [(1, 2, 7.0), (1, 3, 5.0), (3, 2, 5.0)])
        inst = nm.ProblemInstance(
            net, [VehicleMission(1, 1, 2, 0.0, 7.0 / 80.0 + 1e-6)])
        # window admits only the direct edge; shrink candidates to exclude it
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        assert (1, 2) in h.candidates[1]
        bad = nm.ProblemInstance(
            net, [VehicleMission(1, 1, 3, 0.0, 5.0 / 80.0)])
        routing.build_rdp(bad, EdgeCostTable.initial(bad))  # exactly tight

    def test_w_matches_count_minus_one_at_optimum(self):
        inst = shared_edge_instance(edge_cost=10.0)
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        sol = mip.solve_mip(h.model)
        counts = {}
        for (v, e), col in h.x_col.items():
            if sol.x[col] > 0.5:
                counts[e] = counts.get(e, 0) + 1
        for e in h.edge_vehicles:
            want = max(0, counts.get(e, 0) - 1)
            assert sol.x[h.w_col[e]] == pytest.approx(want, abs=1e-6)


class TestExtraction:
    def test_orders_edges_into_path(self):
        inst = line_instance()
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        sol = mip.solve_mip(h.model)
        ra = routing.extract_route_assignment(h, sol)
        assert ra.routes[1] == (1, 2)

    def test_hash_stable(self):
        inst = shared_edge_instance()
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        sol = mip.solve_mip(h.model)
        a = routing.extract_route_assignment(h, sol)
        b = routing.extract_route_assignment(h, sol)
        assert a.key() == b.key()

    def test_vehicles_by_edge_matches_raw_x(self):
        inst = shared_edge_instance()
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
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
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        sol = mip.solve_mip(h.model)
        sol.x[h.x_col[(1, (1, 2))]] = 0.0  # drop the only edge
        with pytest.raises(routing.NonPathSolution):
            routing.extract_route_assignment(h, sol)


def test_rdp_value_is_lower_bound_on_cvpp(small_grid):
    for seed in (0, 1, 2):
        inst = nm.generate_two_cluster(small_grid, 3, seed=seed)
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
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
        h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
        sol = mip.solve_mip(h.model, rel_gap=1e-4,
                            initial_solution=routing.initial_solution(h))
        z_oracle, _routes = oracle.presumed_routing_optimum(inst)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(z_oracle, rel=1e-4)


def test_greedy_assignment_feasible(small_grid):
    inst = nm.generate_distributed(small_grid, 6, seed=2)
    h = routing.build_rdp(inst, EdgeCostTable.initial(inst))
    x0 = routing.initial_solution(h)
    mip.check_solution(h.model, x0)  # raises on violation


def test_cost_table_invariants(small_grid):
    inst = nm.generate_distributed(small_grid, 3, seed=5)
    table = EdgeCostTable.initial(inst)
    e = next(iter(table.base))
    bad = EdgeCostTable(table.base, {(1, e): table.base[e] * 1.5},
                        frozenset([e]))
    with pytest.raises(ValueError):
        bad.validate(inst.sigma_f)
    low = EdgeCostTable(table.base, {(1, e): table.base[e] * 0.5},
                        frozenset([e]))
    with pytest.raises(ValueError):
        low.validate(inst.sigma_f)


@pytest.mark.parametrize("scale,what", [(1.5, "out of range"),
                                        (0.5, "below follower floor")])
def test_cost_table_of_pairs_names_the_first_bad_cost_edge_by_edge(
        small_grid, scale, what):
    inst = nm.generate_distributed(small_grid, 3, seed=5)
    pairs = routing.build_rdp(inst, EdgeCostTable.initial(inst)).pairs
    ids = [v for v, _e in pairs.keys]
    # the last vehicle's pairs and the pair before them, which comes first
    # vehicle by vehicle but not edge by edge
    bad = list(range(ids.index(ids[-1]) - 1, len(ids)))
    first = min((pairs.keys[j] for j in bad), key=lambda k: (k[1], k[0]))
    assert first != pairs.keys[bad[0]]
    prices = pairs.fuel.copy()
    prices[bad] *= scale
    table = EdgeCostTable(inst.network.fuel_table(), pairs=pairs,
                          prices=prices, explored=frozenset(pairs.edges))
    from_dict = EdgeCostTable(table.base, dict(table.adjusted),
                              table.explored)
    for t in (table, from_dict):
        with pytest.raises(ValueError) as err:
            t.validate(inst.sigma_f)
        assert str(err.value) == f"adjusted cost {what} for {first[0]},{first[1]}"
