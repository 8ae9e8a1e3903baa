"""Scheduling: time bounds, pruning, contraction, the MILP, extraction."""

import time
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from platoonopt import (cuts as cuts_module, mip, netmodel as nm, oracle,
                        routing, rshm, scheduling as sched)
from platoonopt.netmodel import VehicleMission
from platoonopt.routing import RouteAssignment
from platoonopt.rshm import SavingsParams

import reference_mip
import reference_models
import reference_schedule
from reference_models import merged_runs, run_labels, uncontracted
from conftest import make_net, shared_edge_instance


PARAMS = SavingsParams(0.02, 0.1, 10)


def _solved_assignment(inst):
    h = routing.build_rdp(inst)
    sol = mip.solve_mip(h.model,
                        initial_solution=routing.initial_solution(h))
    return routing.extract_route_assignment(h, sol)


class TestTimeBounds:
    def test_appendix_vehicle3_values(self, appendix_example):
        ex = appendix_example
        n = ex["nodes"]
        tb = sched.time_bounds(ex["assignment"], ex["missions"])
        assert tb.upper[(3, n["B"])] == pytest.approx(5.0)   # 8 - (1+2)
        assert tb.lower[(3, n["B"])] == pytest.approx(4.0)   # 3 + 1

    def test_zero_flexibility_pins_every_node(self):
        inst = shared_edge_instance()
        ra = routing.shortest_path_assignment(inst)
        total = sum(ra.edge_times[e] for e in ra.edges(1))
        missions = [VehicleMission(1, 1, 5, 0.0, total),
                    inst.missions[1]]
        tb = sched.time_bounds(ra, missions)
        for node in ra.routes[1]:
            assert tb.lower[(1, node)] == pytest.approx(tb.upper[(1, node)])

    def test_destination_lower_bound_is_total_time(self, small_grid):
        inst = nm.generate_distributed(small_grid, 4, seed=3)
        ra = routing.shortest_path_assignment(inst)
        tb = sched.time_bounds(ra, inst.missions)
        for m in inst.missions:
            total = sum(t for _e, t in ra.route_edges(m.id))
            assert tb.lower[(m.id, m.dest)] == pytest.approx(
                m.t_earliest + total)

    def test_infeasible_route_detected(self):
        inst = shared_edge_instance()
        ra = routing.shortest_path_assignment(inst)
        missions = [VehicleMission(1, 1, 5, 0.0, 0.01), inst.missions[1]]
        with pytest.raises(sched.InfeasibleRoute):
            sched.time_bounds(ra, missions)


class TestBigM:
    def test_appendix_values(self, appendix_example):
        ex = appendix_example
        n = ex["nodes"]
        tb = sched.time_bounds(ex["assignment"], ex["missions"])
        big_m, pruned = sched.platoonable_and_bigM(ex["assignment"], tb)
        assert big_m[(3, 1, (n["B"], n["C"]))] == pytest.approx(4.0)
        assert big_m[(2, 1, (n["C"], n["D"]))] == pytest.approx(4.0)
        assert big_m[(4, 2, (n["D"], n["G"]))] == pytest.approx(4.0)
        assert pruned == []

    def test_disjoint_windows_pruned(self):
        # vehicle 2 can only reach the shared edge long after vehicle 1 left
        inst = shared_edge_instance(windows=[(0.0, 0.3), (10.0, 12.0)])
        ra = routing.shortest_path_assignment(inst)
        tb = sched.time_bounds(ra, inst.missions)
        big_m, pruned = sched.platoonable_and_bigM(ra, tb)
        assert pruned == [(2, 1, (3, 4))]
        assert (2, 1, (3, 4)) not in big_m

    def test_pruning_soundness_against_oracle(self):
        inst = shared_edge_instance(windows=[(0.0, 0.3), (10.0, 12.0)])
        ra = routing.shortest_path_assignment(inst)
        savings, platoons, _deps = oracle.brute_force_sp(ra, inst.missions,
                                                         inst)
        assert savings == pytest.approx(0.0)
        for plist in platoons.values():
            assert all(not f for _l, f in plist)


_CONTRACT_GRIDS = {k: nm.make_grid_network(k, k, spacing_km=40, jitter=0.25,
                                           seed=k) for k in range(3, 7)}


def _random_walks(net, vehicles, seed):
    """One self-avoiding random walk of 1-6 edges per vehicle: simple paths
    that cross, split and rejoin far more often than planned routes, so
    runs joining the same two nodes are common."""
    rng = np.random.default_rng(seed)
    ids = sorted(net.nodes)
    routes = {}
    for v in range(1, vehicles + 1):
        nodes = [ids[rng.integers(len(ids))]]
        for _ in range(rng.integers(1, 7)):
            heads = [e.head for e in net.out_adj[nodes[-1]]
                     if e.head not in nodes]
            if not heads:
                break
            nodes.append(heads[rng.integers(len(heads))])
        routes[v] = tuple(nodes)
    return RouteAssignment(routes, net.time_table(), net.fuel_table())


class TestContract:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(3, 6), st.sampled_from(["two_cluster", "distributed"]),
           st.integers(2, 10), st.integers(0, 10_000),
           st.sampled_from(["shortest", "greedy", "walks"]))
    def test_one_pass_matches_merging_on_generated_routes(
            self, rows, generator, vehicles, seed, route_kind):
        grid = _CONTRACT_GRIDS[rows]
        if route_kind == "walks":
            ra = _random_walks(grid, vehicles, seed)
        else:
            inst = getattr(nm, f"generate_{generator}")(grid, vehicles, seed)
            if route_kind == "shortest":
                ra = routing.shortest_path_assignment(inst)
            else:
                cand = {m.id: nm.candidate_edge_set(grid, m, inst.sigma_f)
                        for m in inst.missions}
                ra = routing.greedy_assignment(inst, cand)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        ref = merged_runs(ra)
        assert list(con.route_runs.items()) == list(ref.items())
        assert con.vehicles == ra.vehicles
        veh_sets = ra.vehicles_by_edge()
        for v in ra.vehicles:
            runs = con.runs(v)
            assert [e for run in runs for e in run] == ra.edges(v)
            for run in runs:
                # every edge of a run carries its vehicles, in order
                key = (run[0][0], run[-1][1], run)
                assert all(veh_sets[e] == con.cedges[key] for e in run)
            for a, b in zip(runs, runs[1:]):
                assert veh_sets[a[0]] != veh_sets[b[0]]
            # times and costs summed from left to right
            want = []
            for run in runs:
                time = cost = 0.0
                for e in run:
                    time += ra.edge_times[e]
                    cost += ra.edge_costs[e]
                want.append(((run[0][0], run[-1][1], run), time, cost))
            assert [(key, t, con.edge_cost(key))
                    for key, t in con.route_edges(v)] == want
        assert {key: vs for key, vs in con.cedges.items() if len(vs) > 1} \
            == con.vehicles_by_edge()
        assert con.labels == run_labels(con)
        raw = uncontracted(ra)
        for v in ra.vehicles:
            assert [(key, t, raw.edge_cost(key))
                    for key, t in raw.route_edges(v)] == [
                ((*e, (e,)), ra.edge_times[e], ra.edge_costs[e])
                for e in ra.edges(v)]
        assert raw.cedges == {(*e, (e,)): veh_sets[e] for e in veh_sets}
        assert raw.labels == {(*e, (e,)): str((*e, 0)) for e in veh_sets}
        parallel = len({key[:2] for key in con.cedges}) < len(con.cedges)
        event(f"{route_kind}: merged {len(con.cedges) < len(raw.cedges)}, "
              f"parallel runs {parallel}")

    def test_single_vehicle_collapses_to_one_edge(self):
        nodes = tuple(range(1, 7))
        times = {(nodes[i], nodes[i + 1]): 0.1 * (i + 1) for i in range(5)}
        costs = {k: 2.0 * t for k, t in times.items()}
        ra = RouteAssignment({1: nodes}, times, costs)
        con = sched.contract(ra, times, costs)
        ((key, time),) = con.route_edges(1)
        assert key == (1, 6, tuple(times))
        assert time == pytest.approx(sum(times.values()))
        assert con.edge_cost(key) == pytest.approx(sum(costs.values()))

    def test_overlapping_middle_merges(self):
        # two vehicles share C->D->E; those two edges contract into one
        routes = {1: (1, 3, 4, 5, 6), 2: (2, 3, 4, 5, 7)}
        keys = {(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)}
        times = {k: 1.0 for k in keys}
        costs = {k: 1.0 for k in keys}
        ra = RouteAssignment(routes, times, costs)
        con = sched.contract(ra, times, costs)
        key = (3, 5, ((3, 4), (4, 5)))
        assert con.vehicles_by_edge() == {key: [1, 2]}
        assert dict(con.route_edges(1))[key] == pytest.approx(2.0)
        # consecutive runs never carry identical vehicle sets
        for v in con.vehicles:
            keys = [k for k, _t in con.route_edges(v)]
            for a, b in zip(keys, keys[1:]):
                assert con.cedges[a] != con.cedges[b]

    def test_sp_optimum_invariant_under_contraction(self, small_grid):
        mismatches = []
        for seed in range(20):
            inst = nm.generate_two_cluster(small_grid, 4, seed=seed)
            ra = _solved_assignment(inst)
            params = SavingsParams.from_instance(inst)
            con = sched.contract(ra, ra.edge_times, ra.edge_costs)
            raw = uncontracted(ra)
            s_con = mip.solve_mip(sched.build_sp(
                con, params, sched.time_bounds(con, inst.missions)).model)
            s_raw = mip.solve_mip(sched.build_sp(
                raw, params, sched.time_bounds(raw, inst.missions)).model)
            if abs(s_con.objective - s_raw.objective) > 1e-6:
                mismatches.append(seed)
        assert mismatches == []

    def test_contraction_never_grows_model(self, small_grid):
        # strict shrinkage is visible on the reference formulation that
        # keeps the per-node time variables (the program substitutes them
        # out)
        for seed in range(6):
            inst = nm.generate_two_cluster(small_grid, 4, seed=seed)
            ra = _solved_assignment(inst)
            params = SavingsParams.from_instance(inst)
            con = sched.contract(ra, ra.edge_times, ra.edge_costs)
            raw = uncontracted(ra)
            m_con = reference_models.build_sp(
                con, params, sched.time_bounds(con, inst.missions),
                keep_time_vars=True).model
            m_raw = reference_models.build_sp(
                raw, params, sched.time_bounds(raw, inst.missions),
                keep_time_vars=True).model
            assert m_con.num_vars <= m_raw.num_vars
            assert m_con.num_constraints <= m_raw.num_constraints
            if len(con.cedges) < len(raw.cedges):
                assert m_con.num_vars < m_raw.num_vars
                assert m_con.num_constraints < m_raw.num_constraints


class TestBuildSp:
    def test_single_vehicle_trivial_model(self):
        inst = shared_edge_instance()
        ra = routing.shortest_path_assignment(inst)
        solo = RouteAssignment({1: ra.routes[1]}, ra.edge_times, ra.edge_costs)
        con = sched.contract(solo, ra.edge_times, ra.edge_costs)
        tb = sched.time_bounds(con, inst.missions[:1])
        h = sched.build_sp(con, PARAMS, tb)
        assert not h.f_col and not h.l_col
        sol = mip.solve_mip(h.model)
        assert sol.objective == pytest.approx(0.0)

    def test_two_vehicle_shared_edge_savings(self):
        inst = shared_edge_instance(edge_cost=10.0)
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        tb = sched.time_bounds(con, inst.missions)
        h = sched.build_sp(con, PARAMS, tb)
        sol = mip.solve_mip(h.model)
        # platoon vs not: 0.02*10 + 0.1*10 = 1.2 beats 0
        assert sol.objective == pytest.approx(1.2)

    def test_runs_joining_the_same_nodes_are_named_in_run_order(self):
        # vehicles 1 and 2 drive 1 -> 2 -> 3, vehicles 3 and 4 1 -> 4 -> 3:
        # two shared runs from 1 to 3, named (1, 3, 0) and (1, 3, 1) in the
        # order of their edges, and (1, 3, 0) in a view that holds one
        net = make_net({1: (0, 0), 2: (5, 3), 3: (10, 0), 4: (5, -3)},
                       [(1, 2, 6.0), (2, 3, 6.0), (1, 4, 6.0), (4, 3, 6.0)])
        ra = RouteAssignment({1: (1, 2, 3), 2: (1, 2, 3), 3: (1, 4, 3),
                              4: (1, 4, 3)}, net.time_table(),
                             net.fuel_table())
        missions = [VehicleMission(v, 1, 3, 0.0, 2.0) for v in range(1, 5)]
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        upper, lower = (1, 3, ((1, 2), (2, 3))), (1, 3, ((1, 4), (4, 3)))
        assert con.labels == {upper: "(1, 3, 0)", lower: "(1, 3, 1)"}
        assert con.restricted([3, 4]).labels == {lower: "(1, 3, 0)"}
        h = sched.build_sp(con, PARAMS, sched.time_bounds(con, missions),
                           sched.CutOptions(star_partition=True))
        assert h.model.names[4:] == [
            "l_1_(1, 3, 0)", "l_2_(1, 3, 0)", "f_2_1_(1, 3, 0)",
            "l_3_(1, 3, 1)", "l_4_(1, 3, 1)", "f_4_3_(1, 3, 1)"]
        assert [n for n in h.model.row_names if n.startswith("star_")] == \
            ["star_(1, 3, 0)", "star_(1, 3, 1)"]
        assert list(h.f_col) == [(2, 1, upper), (4, 3, lower)]
        # both pairs platoon, each on its own run
        cfg = sched.extract_platoons(h, mip.solve_mip(h.model))
        assert cfg.platoons == {upper: [(1, (2,))], lower: [(3, (4,))]}
        assert sched.expand_platoons(cfg, con).platoons == {
            (1, 2): [(1, (2,))], (2, 3): [(1, (2,))],
            (1, 4): [(3, (4,))], (4, 3): [(3, (4,))]}

    def test_appendix_matches_bruteforce_both_ways(self, appendix_example):
        ex = appendix_example
        sol = mip.solve_mip(ex["handle"].model)
        savings, _platoons, _deps = oracle.brute_force_sp(
            ex["assignment"], ex["missions"], ex["params"])
        assert sol.objective == pytest.approx(savings, abs=1e-9)
        assert sol.objective == pytest.approx(0.24)

    def test_appendix_joint_cd_pair_infeasible(self, appendix_example):
        # forcing all three follower links is jointly infeasible
        ex = appendix_example
        n = ex["nodes"]
        model = ex["handle"].model.copy()
        for (u, v, i, j) in ((3, 1, "B", "C"), (4, 2, "D", "G"),
                             (2, 1, "C", "D")):
            col = ex["fcol"](u, v, n[i], n[j])
            model.set_column(col, lb=1.0)
        assert mip.solve_mip(model).status == "infeasible"

    def test_time_variable_mode_matches_substituted(self, appendix_example):
        # the reference formulation with one time column per route node
        ex = appendix_example
        ref = reference_models.build_sp(ex["contracted"], ex["params"],
                                        ex["bounds"], keep_time_vars=True)
        s1 = mip.solve_mip(ex["handle"].model)
        s2 = mip.solve_mip(ref.model)
        assert s1.objective == pytest.approx(s2.objective, abs=1e-9)
        # and each optimum is a point of the other formulation
        lifted = reference_models.lift(ref, ex["handle"].model, s1.x)
        assert mip.check_solution(ref.model, lifted) == \
            pytest.approx(s1.objective, abs=1e-9)


class TestSoloSchedule:
    @pytest.mark.parametrize("keep_time_vars", [False, True])
    def test_feasible_alone_at_earliest(self, appendix_example, keep_time_vars):
        # with keep_time_vars, the schedule is checked on the reference
        # formulation with one time column per route node as well
        ex = appendix_example
        h = sched.build_sp(ex["contracted"], ex["params"], ex["bounds"],
                           sched.CutOptions(star_partition=True))
        x = sched.solo_schedule(h)
        assert mip.check_solution(h.model, x) == 0.0
        if keep_time_vars:
            ref = reference_models.build_sp(
                ex["contracted"], ex["params"], ex["bounds"],
                star_partition=True, keep_time_vars=True)
            lifted = reference_models.lift(ref, h.model, x)
            assert mip.check_solution(ref.model, lifted) == 0.0
        cfg = sched.extract_platoons(h, mip.LpSolution("optimal", 0.0, x))
        assert cfg.departures == {m.id: m.t_earliest for m in ex["missions"]}
        assert all(followers == () for plist in cfg.platoons.values()
                   for _leader, followers in plist)

    def test_timed_out_solve_ends_feasible(self, appendix_example):
        h = appendix_example["handle"]
        bare = mip.solve_mip(h.model, time_limit_s=0.0)
        assert bare.status == "time_limit" and bare.x is None
        sol = mip.solve_mip(h.model, time_limit_s=0.0,
                            initial_solution=sched.solo_schedule(h))
        assert sol.status == "feasible"
        assert sol.objective == 0.0


class TestSolveSchedule:
    def test_cut_modes_and_contraction_keep_the_optimum(self, small_grid):
        # four vehicles: no component at seeds 0-2, one pair at seed 3;
        # seed 6: with 6 and 7 vehicles one component of three vehicles,
        # and with 7 a pair too, all in closed form; with 8, 9 and 10 one
        # of six, four and four vehicles, which the model solves, and with
        # 8 and 9 a pair in closed form
        counts = {(4, 3): (0, 1), (6, 6): (0, 1), (7, 6): (0, 2),
                  (8, 6): (1, 1), (9, 6): (1, 1), (10, 6): (1, 0)}
        for n, seed in [(4, 0), (4, 1), (4, 2), (4, 3), (6, 6), (7, 6),
                        (8, 6), (9, 6), (10, 6)]:
            inst = nm.generate_two_cluster(small_grid, n, seed=seed)
            ra = _solved_assignment(inst)
            con = sched.contract(ra, ra.edge_times, ra.edge_costs)
            plain = mip.solve_mip(sched.build_sp(
                con, inst, sched.time_bounds(con, inst.missions)).model)
            fuel = inst.network.fuel_table()
            raw = uncontracted(ra)
            assert mip.solve_mip(sched.build_sp(
                raw, inst, sched.time_bounds(raw, inst.missions)).model
            ).objective == pytest.approx(plain.objective, abs=1e-6)
            for mode in sched.CUT_MODES:
                res = sched.solve_schedule(ra, inst, mode)
                assert (res.milp, res.closed) == counts.get((n, seed),
                                                            (0, 0))
                assert res.solution.status == "optimal"
                assert res.solution.objective == pytest.approx(
                    plain.objective, abs=1e-6)
                assert sched.total_fuel(ra, res.platoons, fuel, inst) == \
                    pytest.approx(ra.total_cost() - plain.objective)

    def test_cut_log_receives_the_root_cuts(self):
        # an instance whose root still takes disjunctive cuts (two) with
        # the departure-window rows in the model, and with a pair
        # scheduled in closed form, whose savings every bound includes
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=9)
        inst, ra = _cluster_case(grid, 14, 2)
        log = []
        res = sched.solve_schedule(ra, inst, "star+disj", cut_log=log)
        assert len(log) == res.solution.cuts_added > 0
        assert (res.milp, res.closed) == (1, 1)
        bounds = [before for before, _cut in log] + [res.solution.root_bound]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        # with instance seed 11 after it: three models, whose roots take
        # two, no and two cuts, and still one chain, from the closed form's
        # savings plus each model's first root bound to the returned root
        # bound, the sum of their final ones
        inst, ra = _joined((inst, ra), _cluster_case(grid, 14, 11))
        log = []
        res = sched.solve_schedule(ra, inst, "star+disj", cut_log=log)
        assert (res.milp, res.closed) == (3, 1)
        assert len(log) == res.solution.cuts_added == 4
        bounds = [before for before, _cut in log] + [res.solution.root_bound]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        alone = [mip.solve_mip(h.model, initial_solution=sched.solo_schedule(h),
                               root_cut_hook=cuts_module.make_disjunctive_hook(h))
                 for h in res.handles]
        assert [s.cuts_added for s in alone] == [2, 0, 2]
        closed = res.solution.objective - sum(s.objective for s in alone)
        assert log[0][0] == pytest.approx(closed + sum(
            mip.solve_lp(h.model).objective for h in res.handles), rel=1e-12)
        assert res.solution.root_bound == pytest.approx(
            closed + sum(s.root_bound for s in alone), rel=1e-12)

    @pytest.mark.parametrize("shares", [False, True])
    def test_a_route_that_misses_its_window_is_named(self, shares):
        # vehicle 1 drives alone from node 1 to 3, or shares (3, 4) with
        # vehicle 2; vehicle 3 shares (3, 4) with vehicle 2 and misses its
        # window too when vehicle 1 drives alone, but vehicle 1 comes first
        inst = shared_edge_instance()
        one = (1, 3, 4, 5) if shares else (1, 3)
        routes = RouteAssignment({1: one, 2: (2, 3, 4, 6), 3: (3, 4, 5)},
                                 inst.network.time_table(),
                                 inst.network.fuel_table())
        missions = [VehicleMission(1, 1, one[-1], 1.0, 1.01),
                    inst.missions[1],
                    VehicleMission(3, 3, 5, 0.0, 0.01 if not shares else 2.0)]
        tight = nm.ProblemInstance(inst.network, missions)
        con = sched.contract(routes, routes.edge_times, routes.edge_costs)
        with pytest.raises(sched.InfeasibleRoute) as want:
            sched.time_bounds(con, missions)
        assert str(want.value) == "vehicle 1: window closes at node 1"
        for solved in (None, {}):
            with pytest.raises(sched.InfeasibleRoute) as got:
                sched.solve_schedule(routes, tight, "star", solved=solved)
            assert str(got.value) == str(want.value)

    def test_unknown_cut_mode_raises(self):
        inst = shared_edge_instance()
        with pytest.raises(ValueError, match="unknown cut mode"):
            sched.solve_schedule(routing.shortest_path_assignment(inst),
                                 inst, "disj")


def _scheduling_case(rows, generator, vehicles, seed, route_kind,
                     flexibility):
    """An instance, routes of the given kind, and other routes for the
    same missions: fuel-shortest (or time-shortest where that misses the
    window) and greedy routes are each other's other routes; random
    simple paths get missions that fit them, with up to ``flexibility``
    hours of slack, and are their own other routes."""
    grid = _CONTRACT_GRIDS[rows]
    if route_kind == "walks":
        ra = _random_walks(grid, vehicles, seed)
        rng = np.random.default_rng(seed)
        missions = []
        for v in ra.vehicles:
            travel = sum(ra.edge_times[e] for e in ra.edges(v))
            start = float(rng.uniform(0.0, 1.0))
            missions.append(VehicleMission(
                v, ra.routes[v][0], ra.routes[v][-1], start,
                start + travel + float(rng.uniform(0.0, flexibility))))
        inst = nm.ProblemInstance(grid, missions)
        inst.validate()
        return inst, ra, ra
    inst = getattr(nm, f"generate_{generator}")(grid, vehicles, seed,
                                                flexibility=flexibility)
    shortest, _ = rshm.no_coordination(inst)
    cand = {m.id: nm.candidate_edge_set(grid, m, inst.sigma_f)
            for m in inst.missions}
    greedy = routing.greedy_assignment(inst, cand)
    if route_kind == "shortest":
        return inst, shortest, greedy
    return inst, greedy, shortest


def _cluster_case(grid, vehicles, seed):
    """A two-cluster instance on ``grid`` and its fuel-shortest routes."""
    inst = nm.generate_two_cluster(grid, vehicles, seed)
    return inst, routing.shortest_path_assignment(inst)


def _joined(first, second):
    """One instance and its routes of two ``(instance, routes)`` pairs on
    one network: the second's vehicles take ids after the first's, and
    their windows open after all of the first's close, so that no vehicle
    of one meets a vehicle of the other."""
    (a, ra), (b, rb) = first, second
    top = max(m.id for m in a.missions)
    shift = max(m.t_latest for m in a.missions) - \
        min(m.t_earliest for m in b.missions) + 1.0
    later = [replace(m, id=m.id + top, t_earliest=m.t_earliest + shift,
                     t_latest=m.t_latest + shift) for m in b.missions]
    routes = {**ra.routes, **{v + top: r for v, r in rb.routes.items()}}
    return (replace(a, missions=a.missions + later),
            RouteAssignment(routes, ra.edge_times, ra.edge_costs))


_CASES = dict(rows=st.integers(3, 6),
              generator=st.sampled_from(["two_cluster", "distributed"]),
              vehicles=st.integers(2, 10), seed=st.integers(0, 10_000),
              route_kind=st.sampled_from(["shortest", "greedy", "walks"]),
              # wider windows let more pairs meet
              flexibility=st.sampled_from([1.0, 4.0]))


def _model_point(handle, platoons, departures):
    """The point of ``handle``'s model of a schedule given as platoons by
    original edge and departures (``oracle.brute_force_sp``'s answer):
    each platoon led, in the model, by its smallest vehicle."""
    x = np.zeros(handle.model.num_vars)
    for v, col in handle.dep_col.items():
        x[col] = departures[v]
    for key in handle.contracted.cedges:
        for leader, followers in platoons[key[2][0]]:
            if followers:
                first, *rest = sorted((leader, *followers))
                x[handle.l_col[(first, key)]] = 1.0
                x[[handle.f_col[(u, first, key)] for u in rest]] = 1.0
    return x


_SP_GRIDS = {k: nm.make_grid_network(k, k, spacing_km=40, jitter=0.25,
                                     seed=5) for k in (6, 7, 8)}


class TestWindowRows:
    def test_rows_of_one_pair(self):
        # both reach the shared edge 0.05 h after leaving; vehicle 1 leaves
        # in [0, 0.775], vehicle 2 in [0.5, 1.775], so platooning confines
        # both to [0.5, 0.775]: an upper bound for 2 and a lower one for 1
        inst = shared_edge_instance(windows=[(0.0, 1.0), (0.5, 2.0)])
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        h = sched.build_sp(con, PARAMS, sched.time_bounds(con, inst.missions))
        f = h.f_col[(2, 1, (3, 4, ((3, 4),)))]
        rows = [(c.name, c.coeffs, c.sense, c.rhs)
                for c in h.model.constraints if c.name.startswith("win_")]
        assert rows == [
            ("win_ub_2_2_1_(3, 4, 0)", {h.dep_col[2]: 1.0,
                                        f: pytest.approx(1.0)},
             "<=", pytest.approx(1.775)),
            ("win_lb_1_2_1_(3, 4, 0)", {h.dep_col[1]: 1.0,
                                        f: pytest.approx(-0.5)},
             ">=", 0.0)]
        bare = sched.build_sp(con, PARAMS, sched.time_bounds(
            con, inst.missions), sched.CutOptions(window=False))
        assert bare.model.num_constraints == h.model.num_constraints - 2

    @pytest.mark.parametrize("departs,pair_rows", [
        # 2 follows 1 early or leads 3 late: one row rules out both
        ([(0.0, 0.1), (0.0, 1.2), (1.0, 1.1)], ["win_pair_2_6_7"]),
        # 3 follows 1 early or 2 late: lead_xor_follow_3 holds them already
        ([(0.0, 0.1), (1.0, 1.1), (0.0, 1.2)], [])])
    def test_conflicting_columns_of_one_vehicle(self, departs, pair_rows):
        # three vehicles on one edge of 0.125 h; 1 and the late one can
        # never meet, so their pair has no column
        net = make_net({1: (0, 0), 2: (10, 0)}, [(1, 2, 10.0)])
        inst = nm.ProblemInstance(net, [
            VehicleMission(v, 1, 2, a, b + 0.125)
            for v, (a, b) in enumerate(departs, start=1)], 0.02, 0.1, 10)
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        h = sched.build_sp(con, PARAMS, sched.time_bounds(con, inst.missions))
        assert len(h.f_col) == 2
        assert [n for n in h.model.row_names
                if n.startswith("win_pair")] == pair_rows

    def test_only_the_bare_cut_mode_leaves_them_out(self):
        for mode in sched.CUT_MODES:
            assert sched.cut_mode(mode)[0].window == (mode != "none")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.integers(3, 6),
           generator=st.sampled_from(["two_cluster", "distributed"]),
           vehicles=st.integers(2, 4), seed=st.integers(0, 10_000),
           route_kind=st.sampled_from(["shortest", "greedy", "walks"]),
           flexibility=st.sampled_from([4.0, 8.0]), star=st.booleans())
    def test_rows_hold_at_the_seed_and_at_the_enumerated_optimum(
            self, rows, generator, vehicles, seed, route_kind, flexibility,
            star):
        inst, ra, _other = _scheduling_case(rows, generator, vehicles, seed,
                                            route_kind, flexibility)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        h = sched.build_sp(con, inst, sched.time_bounds(con, inst.missions),
                           sched.CutOptions(star_partition=star))
        assume(h.f_col)     # else there is no window row
        windowed = sum(n.startswith("win_") for n in h.model.row_names)
        assert mip.check_solution(h.model, sched.solo_schedule(h)) == 0.0
        try:
            savings, platoons, deps = oracle.brute_force_sp(
                ra, inst.missions, inst)
        except oracle.TooLarge:
            event("oracle: too large")
            return
        x = _model_point(h, platoons, deps)
        assert mip.check_solution(h.model, x) == pytest.approx(savings,
                                                               abs=1e-9)
        event(f"window rows: {min(windowed, 5)}"
              f"{'+' if windowed >= 5 else ''}, platoons: {savings > 0}")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(generator=st.sampled_from(["two_cluster", "distributed"]),
           k=st.sampled_from(sorted(_SP_GRIDS)), n=st.integers(4, 14),
           seed=st.integers(1, 100), flexibility=st.sampled_from([1.0, 2.0]),
           star=st.booleans())
    def test_rows_keep_the_optimum(self, generator, k, n, seed, flexibility,
                                   star):
        inst = getattr(nm, f"generate_{generator}")(
            _SP_GRIDS[k], n, seed, flexibility=flexibility)
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        bounds = sched.time_bounds(con, inst.missions)
        with_rows, bare = (sched.build_sp(con, inst, bounds, sched.CutOptions(
            star_partition=star, window=window)) for window in (True, False))
        gap = mip.DEFAULT_REL_GAP
        got, want = (mip.solve_mip(h.model, rel_gap=gap,
                                   initial_solution=sched.solo_schedule(h))
                     for h in (with_rows, bare))
        assert got.status == want.status == "optimal"
        tol = gap * max(abs(want.objective), 1e-10)
        assert got.objective == pytest.approx(want.objective, abs=tol)
        for h in (with_rows, bare):
            status, value = reference_mip.solve_milp(h.model)
            assert status == "optimal"
            assert value == pytest.approx(want.objective, abs=tol)
        # the rows cut off no point of the bare model that the answer needs
        assert mip.check_solution(bare.model, got.x) == \
            pytest.approx(got.objective, rel=1e-9, abs=1e-9)
        added = with_rows.model.num_constraints - bare.model.num_constraints
        event(f"window rows: {added > 0}, nodes {min(got.nodes, 10)}"
              f"{'+' if got.nodes >= 10 else ''} (bare {min(want.nodes, 10)}"
              f"{'+' if want.nodes >= 10 else ''})")


class TestComponents:
    def test_appendix_is_one_component(self, appendix_example):
        ex = appendix_example
        big_m, _ = sched.platoonable_and_bigM(ex["contracted"], ex["bounds"])
        assert sched.components(ex["contracted"], big_m) == [[1, 2, 3, 4]]

    def test_vehicles_that_cannot_meet_drive_alone(self):
        inst = shared_edge_instance(windows=[(0.0, 0.3), (10.0, 12.0)])
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        big_m, _ = sched.platoonable_and_bigM(
            con, sched.time_bounds(con, inst.missions))
        assert sched.components(con, big_m) == []
        res = sched.solve_schedule(ra, inst, "star")
        assert res.handles == ()
        assert res.solution.status == "optimal"
        assert res.platoons.departures == {1: 0.0, 2: 10.0}

    @pytest.mark.parametrize("cuts", ["star", "star+disj"])
    def test_all_components_known_runs_no_solve(self, cuts, monkeypatch):
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=5)
        inst = nm.generate_two_cluster(grid, 14, seed=1)
        ra = routing.shortest_path_assignment(inst)
        solved = {}
        fresh = sched.solve_schedule(ra, inst, cuts, solved=solved)
        assert fresh.handles and solved
        assert all(h.model.num_vars > 0 for h in fresh.handles)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a model of known components")

        monkeypatch.setattr(mip, "solve_mip", no_solve)
        again = sched.solve_schedule(ra, inst, cuts, solved=solved)
        assert again.handles == ()
        sol = again.solution
        assert (sol.status, sol.objective, sol.x.size, sol.nodes) == \
            ("optimal", 0.0, 0, 0)
        assert again.platoons == fresh.platoons
        fuel = inst.network.fuel_table()
        assert sched.total_fuel(ra, again.platoons, fuel, inst) == \
            sched.total_fuel(ra, fresh.platoons, fuel, inst)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rows=st.integers(4, 6),
           generator=st.sampled_from(["two_cluster", "distributed"]),
           vehicles=st.integers(8, 14), seed=st.integers(0, 10_000),
           route_kind=st.sampled_from(["shortest", "greedy", "walks"]),
           flexibility=st.sampled_from([1.0, 4.0]),
           cuts=st.sampled_from(["star", "star+disj"]))
    def test_a_component_is_scheduled_as_if_alone(
            self, rows, generator, vehicles, seed, route_kind, flexibility,
            cuts):
        # the instance with a later copy of itself, so that each
        # component is there twice
        inst, ra, _ = _scheduling_case(rows, generator, vehicles, seed,
                                       route_kind, flexibility)
        inst, ra = _joined((inst, ra), (inst, ra))
        solved, models = {}, []
        solve = mip.solve_mip
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mip, "solve_mip", lambda model, **kwargs:
                          models.append(solve(model, **kwargs)) or models[-1])
            whole = sched.solve_schedule(ra, inst, cuts, solved=solved)
        assume(whole.milp >= 2)
        assert len(models) == whole.milp
        assert whole.solution.nodes == sum(s.nodes for s in models)
        for handle, model in zip(whole.handles, models):
            # the component is the only new one: its listing, savings and
            # nodes are those it has beside the others
            key = sched.component_key(whole.view, handle.contracted.vehicles)
            others = {k: p for k, p in solved.items() if k != key}
            alone = sched.solve_schedule(ra, inst, cuts, solved=others)
            assert (alone.milp, alone.closed) == (1, 0)
            assert others[key] == solved[key]
            assert alone.platoons == whole.platoons
            sol = alone.solution
            assert (sol.status, sol.objective, sol.nodes) == \
                (model.status, model.objective, model.nodes)
        event(f"models: {min(whole.milp, 4)}"
              f"{'+' if whole.milp >= 4 else ''}")

    def test_a_limited_model_leaves_the_others_solved(self, monkeypatch):
        # three models; the first stops at its time limit, with the seed
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=9)
        inst, ra = _joined(_cluster_case(grid, 14, 2),
                           _cluster_case(grid, 14, 11))
        fresh = sched.solve_schedule(ra, inst, "star")
        assert fresh.milp == 3 and fresh.solution.status == "optimal"
        keys = [sched.component_key(fresh.view, h.contracted.vehicles)
                for h in fresh.handles]
        limits = []
        solve = mip.solve_mip

        def first_limited(model, **kwargs):
            limits.append(kwargs["time_limit_s"])
            sol = solve(model, **kwargs)
            if len(limits) > 1:
                return sol
            # it takes a while, but reports no time
            time.sleep(0.05)
            seed = kwargs["initial_solution"]
            return replace(
                sol, status="feasible", objective=0.0, x=seed,
                gap=mip.relative_gap(0.0, sol.bound), wall_time=0.0)

        monkeypatch.setattr(mip, "solve_mip", first_limited)
        solved = {}
        res = sched.solve_schedule(ra, inst, "star", time_limit_s=30.0,
                                   solved=solved)
        assert res.milp == 3 and res.solution.status == "feasible"
        assert set(keys[1:]) <= set(solved) and keys[0] not in solved
        assert res.solution.objective < fresh.solution.objective
        assert res.solution.bound == pytest.approx(fresh.solution.bound)
        # each solve gets what is left of the 30 s by the clock, not by
        # the times the solves before it report
        assert limits[0] <= 30.0 and limits[1] <= 30.0 - 0.05
        assert all(b < a for a, b in zip(limits, limits[1:]))
        # the first component's vehicles drive alone
        members = set(fresh.handles[0].contracted.vehicles)
        assert not any(p[1] for plist in res.platoons.platoons.values()
                       for p in plist if p[0] in members)

    def test_a_components_model_is_built_on_its_own_runs(self):
        # the model of a component is the one build_sp builds on the runs
        # of its vehicles alone, contracted by merging, and finds its pairs
        # there
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=5)
        inst = nm.generate_two_cluster(grid, 14, seed=1)
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        bounds = sched.time_bounds(con, inst.missions)
        comps = sched.components(con, sched.platoonable_and_bigM(con,
                                                                 bounds)[0])
        assert len(comps) >= 2
        solved = {}
        sched.solve_schedule(ra, inst, "star", solved=solved)
        del solved[sched.component_key(con, comps[0])]
        (got,) = sched.solve_schedule(ra, inst, "star", solved=solved).handles
        runs = merged_runs(ra)
        own = sched.RunView({v: runs[v] for v in comps[0]}, ra.edge_times,
                            ra.edge_costs)
        want = sched.build_sp(own, inst, bounds,
                              sched.CutOptions(star_partition=True))
        assert got.contracted.labels == run_labels(own)
        assert (got.big_m, got.pruned) == (want.big_m, want.pruned)
        assert list(got.big_m) == list(want.big_m)
        assert got.model.names == want.model.names
        assert got.model.row_names == want.model.row_names
        for a, b in zip(mip._columns(got.model), mip._columns(want.model)):
            assert np.array_equal(a, b)
        ga, wa = got.model.compiled_rows(), want.model.compiled_rows()
        assert (ga.a != wa.a).nnz == 0
        assert np.array_equal(ga.rlo, wa.rlo) and np.array_equal(ga.rhi, wa.rhi)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(rows=st.integers(4, 6),
           generator=st.sampled_from(["two_cluster", "distributed"]),
           vehicles=st.integers(4, 14), seed=st.integers(0, 10_000),
           route_kind=st.sampled_from(["shortest", "greedy", "walks"]),
           flexibility=st.sampled_from([1.0, 4.0]))
    def test_a_components_runs_give_its_pairs_of_the_whole_assignment(
            self, rows, generator, vehicles, seed, route_kind, flexibility):
        # what lets each model find its own pairs: on the view of a
        # component's runs, the pairs that can meet and the pruned ones are
        # the whole assignment's of that component, in the same order
        inst, ra, _ = _scheduling_case(rows, generator, vehicles, seed,
                                       route_kind, flexibility)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        bounds = sched.time_bounds(con, inst.missions)
        big_m, pruned = sched.platoonable_and_bigM(con, bounds)
        comps = sched.components(con, big_m)
        assume(comps)
        for vs in comps:
            own_m, own_pruned = sched.platoonable_and_bigM(
                con.restricted(vs), bounds)
            assert list(own_m.items()) == [
                (pair, m) for pair, m in big_m.items() if pair[0] in vs]
            assert own_pruned == [pair for pair in pruned
                                  if pair[0] in vs and pair[1] in vs]
        largest = max(map(len, comps))
        inside = any(p[0] in vs and p[1] in vs for p in pruned for vs in comps)
        event(f"{route_kind}: largest component {min(largest, 4)}"
              f"{'+' if largest >= 4 else ''}, pruned in one {inside}")

    def test_known_components_cost_no_work_of_their_own(self, monkeypatch):
        # shortest routes: components [2, 3], [5, 6, 13], [7, 8, 10, 11]
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=5)
        inst = nm.generate_two_cluster(grid, 14, seed=3)
        ra = routing.shortest_path_assignment(inst)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        comps = sched.components(con, sched.platoonable_and_bigM(
            con, sched.time_bounds(con, inst.missions))[0])
        assert comps == [[2, 3], [5, 6, 13], [7, 8, 10, 11]]
        solved = {}
        fresh = sched.solve_schedule(ra, inst, "star", solved=solved)
        calls = []

        def recording(name, real):
            def call(*args, **kwargs):
                calls.append((name, args))
                return real(*args, **kwargs)
            return call

        for module, name in ((sched.RunView, "restricted"),
                             (sched, "build_sp"), (mip, "solve_mip"),
                             (sched, "closed_form")):
            monkeypatch.setattr(module, name,
                                recording(name, getattr(module, name)))
        known = sched.solve_schedule(ra, inst, "star", solved=solved)
        assert calls == []
        assert known.handles == ()
        assert (known.milp, known.closed, known.reused) == (0, 0, 3)
        assert known.platoons == fresh.platoons
        # new components of two and three vehicles: one closed form each,
        # and no view of their runs, model or solve
        for vs in ([2, 3], [5, 6, 13]):
            del solved[sched.component_key(con, vs)]
        again = sched.solve_schedule(ra, inst, "star", solved=solved)
        assert [name for name, _args in calls] == ["closed_form"] * 2
        assert [sorted({v for pair in args[3] for v in pair})
                for _name, args in calls] == [[2, 3], [5, 6, 13]]
        assert again.handles == ()
        assert (again.milp, again.closed, again.reused) == (0, 2, 1)
        assert again.platoons == fresh.platoons
        # one new component of four vehicles: a view of its vehicles'
        # runs alone, one model and one solve
        calls.clear()
        del solved[sched.component_key(con, [7, 8, 10, 11])]
        again = sched.solve_schedule(ra, inst, "star", solved=solved)
        assert [name for name, _args in calls] == \
            ["restricted", "build_sp", "solve_mip"]
        assert calls[0][1][1] == [7, 8, 10, 11]
        (handle,) = again.handles
        contracted = handle.contracted
        assert list(contracted.route_runs.items()) == [
            (v, con.runs(v)) for v in (7, 8, 10, 11)]
        assert contracted.vehicles == [7, 8, 10, 11]
        assert all(set(vs) <= {7, 8, 10, 11}
                   for vs in contracted.cedges.values())
        assert (again.milp, again.closed, again.reused) == (1, 0, 2)
        assert again.platoons == fresh.platoons

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**_CASES, cuts=st.sampled_from(["star", "star+disj"]),
           drop=st.integers(0, 10), swap=st.integers(0, 10))
    def test_known_components_give_the_schedule_of_a_fresh_solve(
            self, rows, generator, vehicles, seed, route_kind, flexibility,
            cuts, drop, swap):
        inst, ra, other = _scheduling_case(rows, generator, vehicles, seed,
                                           route_kind, flexibility)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        big_m, _ = sched.platoonable_and_bigM(
            con, sched.time_bounds(con, inst.missions))
        comps = {sched.component_key(con, vs)
                 for vs in sched.components(con, big_m)}
        assume(comps)       # else there is nothing to solve, nor to reuse
        # the perturbed assignment: vehicle ``drop`` left out, vehicle
        # ``swap`` on its other route (0 or a missing vehicle: no change)
        perturbed = RouteAssignment(
            {v: (other if v == swap else ra).routes[v]
             for v in ra.vehicles if v != drop},
            ra.edge_times, ra.edge_costs)
        solved = {}
        sched.solve_schedule(perturbed, inst, cuts, solved=solved)
        known = set(solved)
        fresh = sched.solve_schedule(ra, inst, cuts)
        again = sched.solve_schedule(ra, inst, cuts, solved=solved)
        assert again.platoons == fresh.platoons
        fuel = inst.network.fuel_table()
        assert sched.total_fuel(ra, again.platoons, fuel, inst) == \
            sched.total_fuel(ra, fresh.platoons, fuel, inst)
        # every component of the assignment is known now
        third = sched.solve_schedule(ra, inst, cuts, solved=solved)
        assert third.handles == ()
        assert third.platoons == fresh.platoons
        assert comps <= set(solved)
        event(f"{route_kind}: components {len(comps)}, "
              f"reused {len(comps & known)}")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**_CASES)
    def test_departures_are_the_earliest_that_realize_the_platoons(
            self, rows, generator, vehicles, seed, route_kind, flexibility):
        inst, ra, _ = _scheduling_case(rows, generator, vehicles, seed,
                                       route_kind, flexibility)
        cfg = sched.solve_schedule(ra, inst, "star").platoons
        deps = cfg.departures
        missions = {m.id: m for m in inst.missions}
        assert set(deps) == set(ra.vehicles)
        entry = {}
        for v in ra.vehicles:
            t = deps[v]
            assert t >= missions[v].t_earliest - 1e-9
            for e in ra.edges(v):
                entry[(v, e)] = t
                t += ra.edge_times[e]
            assert t <= missions[v].t_latest + 1e-9
        group = {v: {v} for v in ra.vehicles}
        for e, plist in cfg.platoons.items():
            for leader, followers in plist:
                for u in followers:
                    assert abs(entry[(u, e)] - entry[(leader, e)]) <= \
                        sched.EQUAL_ENTRY_TOL
                    merged = group[leader] | group[u]
                    for w in merged:
                        group[w] = merged
        groups = {frozenset(g) for g in group.values()}
        for g in groups:
            assert any(deps[v] == missions[v].t_earliest for v in g)
        event(f"{route_kind}: platoon groups "
              f"{sum(len(g) > 1 for g in groups) > 0}")


def _two_segment_instance(flip, second=10.0):
    """Two vehicles that share two separate edges, (3, 4) of 10 km and
    (7, 8) of ``second`` km, between detours of 8 and 12 km, so they can
    platoon on either but not on both; with ``flip`` every node n is 11 -
    n, which makes (7, 8) the edge of the lower key.  Returns the
    instance and its routes."""
    node = (lambda n: 11 - n) if flip else (lambda n: n)
    lengths = {(1, 3): 4.0, (2, 3): 4.0, (3, 4): 10.0, (4, 5): 4.0,
               (5, 7): 4.0, (4, 6): 6.0, (6, 7): 6.0, (7, 8): second,
               (8, 9): 4.0, (8, 10): 4.0}
    coords = {1: (0, 1), 2: (0, -1), 3: (4, 0), 4: (14, 0), 5: (18, 2),
              6: (18, -3), 7: (22, 0), 8: (32, 0), 9: (36, 1),
              10: (36, -1)}
    net = make_net({node(n): xy for n, xy in coords.items()},
                   [(node(i), node(j), ln) for (i, j), ln in lengths.items()])
    paths = {1: (1, 3, 4, 5, 7, 8, 9), 2: (2, 3, 4, 6, 7, 8, 10)}
    routes = {v: tuple(node(n) for n in p) for v, p in paths.items()}
    inst = nm.ProblemInstance(net, [
        VehicleMission(v, r[0], r[-1], 0.0, 2.0) for v, r in routes.items()])
    inst.validate()
    return inst, RouteAssignment(routes, net.time_table(), net.fuel_table())


def _pair_edges(big_m, v, u):
    """The runs on which the pair ``v < u`` can still meet."""
    return [key for (a, b, key) in big_m if (b, a) == (v, u)]


def _same_schedule(got, want, inst, routes):
    """``solve_schedule``'s answer is the reference's, bit for bit."""
    assert list(got.platoons.platoons.items()) == \
        list(want.platoons.platoons.items())
    assert list(got.platoons.departures.items()) == \
        list(want.platoons.departures.items())
    fuel = inst.network.fuel_table()
    assert sched.total_fuel(routes, got.platoons, fuel, inst) == \
        sched.total_fuel(routes, want.platoons, fuel, inst)
    assert (got.milp, got.closed, got.reused) == \
        (want.milp, want.closed, want.reused)
    sol, ref = got.solution, want.solution
    assert (sol.status, sol.objective, sol.bound, sol.gap, sol.nodes,
            sol.root_bound, sol.cuts_added) == \
        (ref.status, ref.objective, ref.bound, ref.gap, ref.nodes,
         ref.root_bound, ref.cuts_added)
    assert [(h.model.num_vars, h.model.num_constraints)
            for h in got.handles] == \
        [(h.model.num_vars, h.model.num_constraints) for h in want.handles]


class TestRuns:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**_CASES, cuts=st.sampled_from(["star", "star+disj"]),
           drop=st.integers(0, 10), swap=st.integers(0, 10))
    def test_runs_give_the_schedule_of_the_whole_assignment(
            self, rows, generator, vehicles, seed, route_kind, flexibility,
            cuts, drop, swap):
        inst, ra, other = _scheduling_case(rows, generator, vehicles, seed,
                                           route_kind, flexibility)
        # known components from the perturbed assignment of
        # test_known_components_give_the_schedule_of_a_fresh_solve
        perturbed = RouteAssignment(
            {v: (other if v == swap else ra).routes[v]
             for v in ra.vehicles if v != drop},
            ra.edge_times, ra.edge_costs)
        mine, theirs = {}, {}
        _same_schedule(
            sched.solve_schedule(perturbed, inst, cuts, solved=mine),
            reference_schedule.solve_schedule(perturbed, inst, cuts,
                                              solved=theirs),
            inst, perturbed)
        assert list(mine.items()) == list(theirs.items())
        known = len(mine)
        _same_schedule(
            sched.solve_schedule(ra, inst, cuts, solved=mine),
            reference_schedule.solve_schedule(ra, inst, cuts, solved=theirs),
            inst, ra)
        assert list(mine.items()) == list(theirs.items())
        got = sched.solve_schedule(ra, inst, cuts)
        want = reference_schedule.solve_schedule(ra, inst, cuts)
        _same_schedule(got, want, inst, ra)
        assert got.contracted.vehicles == want.contracted.vehicles
        assert list(got.contracted.cedges.items()) == \
            list(want.contracted.cedges.items())
        assert got.bounds == want.bounds
        if got.contracted.vehicles:
            params = SavingsParams.from_instance(inst)
            mine_report = cuts_module.bound_improvement_report(
                got.contracted, params, got.bounds)
            their_report = cuts_module.bound_improvement_report(
                want.contracted, params, want.bounds)
            for report in (mine_report, their_report):
                del report["time_disj_cut_s"]
                report["disj_cuts"] = [(dc.cut, dc.violation)
                                       for dc in report["disj_cuts"]]
            assert mine_report == their_report
        event(f"{route_kind}: model {got.milp > 0}, closed {got.closed > 0}, "
              f"known before {known > 0}")


class TestPairs:
    # (7, 8) is (4, 3) flipped and (3, 4) is (8, 7): a tie goes to the
    # lower key, else the longer edge wins, whatever its key
    @pytest.mark.parametrize("flip, second, edge", [
        (False, 10.0, (3, 4)), (True, 10.0, (4, 3)),
        (False, 12.0, (7, 8)), (True, 12.0, (4, 3))])
    def test_the_best_group_wins_and_a_tie_goes_to_the_lowest_key(
            self, flip, second, edge):
        inst, ra = _two_segment_instance(flip, second)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        bounds = sched.time_bounds(con, inst.missions)
        big_m, _ = sched.platoonable_and_bigM(con, bounds)
        keys = _pair_edges(big_m, 1, 2)
        assert len(keys) == 2
        # the two edges fix departure differences 0.05 h apart
        gaps = {bounds.offset[(1, k[0])] - bounds.offset[(2, k[0])]
                for k in keys}
        assert max(gaps) - min(gaps) == pytest.approx(0.05)
        savings, plist = sched.closed_form(con, bounds, inst, {(1, 2): keys})
        assert plist == [((*edge, (edge,)), (1, (2,)))]
        assert savings == pytest.approx(0.12 * max(10.0, second))
        # the model's optimum takes one edge too
        whole = mip.solve_mip(sched.build_sp(con, inst, bounds).model,
                              rel_gap=0.0)
        assert whole.objective == pytest.approx(savings, abs=1e-9)
        res = sched.solve_schedule(ra, inst, "star")
        assert {e: [p for p in plist if p[1]]
                for e, plist in res.platoons.platoons.items()
                if any(p[1] for p in plist)} == {edge: [(1, (2,))]}
        assert (res.milp, res.closed, res.reused) == (0, 1, 0)
        sol = res.solution
        assert (sol.status, sol.objective, sol.bound, sol.nodes) == \
            ("optimal", savings, savings, 0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(rows=st.integers(3, 6),
           generator=st.sampled_from(["two_cluster", "distributed"]),
           vehicles=st.integers(4, 14), seed=st.integers(0, 10_000),
           route_kind=st.sampled_from(["shortest", "greedy", "walks"]),
           flexibility=st.sampled_from([1.0, 4.0]))
    def test_a_pair_in_closed_form_is_the_models_optimum(
            self, rows, generator, vehicles, seed, route_kind, flexibility):
        inst, ra, _other = _scheduling_case(rows, generator, vehicles, seed,
                                            route_kind, flexibility)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        bounds = sched.time_bounds(con, inst.missions)
        big_m, _ = sched.platoonable_and_bigM(con, bounds)
        comps = sched.components(con, big_m)
        twos = [vs for vs in comps if len(vs) == 2]
        bigs = [vs for vs in comps if len(vs) > 3]
        res = sched.solve_schedule(ra, inst, "star")
        assert (res.milp, res.closed, res.reused) == \
            (len(bigs), len(comps) - len(bigs), 0)
        assume(twos)
        deps, missions = res.platoons.departures, {m.id: m for m in
                                                   inst.missions}
        entry = {}
        for v in ra.vehicles:
            t = deps[v]
            for e in ra.edges(v):
                entry[(v, e)] = t
                t += ra.edge_times[e]
            lo = missions[v].t_earliest
            hi = missions[v].t_latest - (t - deps[v])
            assert lo - sched.PRUNE_TOL <= deps[v] <= hi + sched.PRUNE_TOL
        total = 0.0
        for v, u in twos:
            savings, plist = sched.closed_form(
                con, bounds, inst, {(v, u): _pair_edges(big_m, v, u)})
            alone = mip.solve_mip(sched.build_sp(
                con.restricted((v, u)), inst, bounds).model, rel_gap=0.0)
            assert alone.status == "optimal"
            assert savings == pytest.approx(alone.objective, rel=1e-12,
                                            abs=1e-12)
            total += savings
            edges = {e for key, _p in plist for e in key[2]}
            assert {e for e, ps in res.platoons.platoons.items()
                    if (v, (u,)) in ps} == edges
            for e in edges:
                assert abs(entry[(u, e)] - entry[(v, e)]) <= \
                    sched.EQUAL_ENTRY_TOL
        if len(twos) == len(comps):
            assert (res.solution.status, res.solution.nodes) == ("optimal", 0)
            assert res.solution.objective == pytest.approx(total, rel=1e-12)
        event(f"pairs {min(len(twos), 3)}{'+' if len(twos) >= 3 else ''}, "
              f"model components {res.milp > 0}")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**_CASES)
    def test_two_vehicles_agree_with_the_oracle(
            self, rows, generator, vehicles, seed, route_kind, flexibility):
        # each pair component of a generated case, on its own
        inst, ra, _other = _scheduling_case(rows, generator, vehicles, seed,
                                            route_kind, flexibility)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        big_m, _ = sched.platoonable_and_bigM(
            con, sched.time_bounds(con, inst.missions))
        twos = [vs for vs in sched.components(con, big_m) if len(vs) == 2]
        assume(twos)
        fuel = inst.network.fuel_table()
        for vs in twos:
            two = RouteAssignment({v: ra.routes[v] for v in vs},
                                  ra.edge_times, ra.edge_costs)
            res = sched.solve_schedule(two, inst, "star")
            assert (res.milp, res.closed) == (0, 1)
            try:
                savings, _platoons, _deps = oracle.brute_force_sp(
                    two, [m for m in inst.missions if m.id in vs], inst)
            except oracle.TooLarge:
                event("oracle: too large")
                continue
            assert res.solution.objective == pytest.approx(savings, abs=1e-9)
            assert sched.total_fuel(two, res.platoons, fuel, inst) == \
                pytest.approx(two.total_cost() - savings, abs=1e-9)
            event(f"platoons: {savings > 0}")


class TestTriples:
    # most generated cases hold no component of three vehicles
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(rows=st.integers(3, 6),
           generator=st.sampled_from(["two_cluster", "distributed"]),
           vehicles=st.integers(4, 14), seed=st.integers(0, 10_000),
           route_kind=st.sampled_from(["shortest", "greedy", "walks"]),
           flexibility=st.sampled_from([1.0, 4.0]),
           cap=st.sampled_from([2, 3, 10]))
    def test_a_triple_in_closed_form_is_the_models_optimum(
            self, rows, generator, vehicles, seed, route_kind, flexibility,
            cap):
        inst, ra, _other = _scheduling_case(rows, generator, vehicles, seed,
                                            route_kind, flexibility)
        inst = replace(inst, max_platoon=cap)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        bounds = sched.time_bounds(con, inst.missions)
        big_m, _ = sched.platoonable_and_bigM(con, bounds)
        threes = [vs for vs in sched.components(con, big_m) if len(vs) == 3]
        assume(threes)
        res = sched.solve_schedule(ra, inst, "star")
        for vs in threes:
            meet = {(v, u): _pair_edges(big_m, v, u)
                    for v, u in combinations(vs, 2)}
            savings, plist = sched.closed_form(con, bounds, inst, meet)
            alone = mip.solve_mip(sched.build_sp(
                con.restricted(vs), inst, bounds).model, rel_gap=0.0)
            assert alone.status == "optimal"
            assert savings == pytest.approx(alone.objective, rel=1e-9,
                                            abs=1e-9)
            # the listing: its savings, its cap, and equal entries at the
            # earliest departures, which lie in their windows
            assert savings == sum(
                (inst.sigma_l + inst.sigma_f * len(p[1])) * con.edge_cost(key)
                for key, p in plist)
            deps = sched.earliest_departures(
                con, {key: [p] for key, p in plist}, bounds)
            for v in vs:
                lo, hi = bounds.window(v, bounds.origin[v])
                assert lo - sched.PRUNE_TOL <= deps[v] <= hi + sched.PRUNE_TOL
            for key, (leader, followers) in plist:
                assert 1 + len(followers) <= cap
                assert leader < min(followers)
                entry = deps[leader] + bounds.offset[(leader, key[0])]
                for u in followers:
                    assert abs(deps[u] + bounds.offset[(u, key[0])] - entry) \
                        <= sched.EQUAL_ENTRY_TOL
                # solve_schedule lists it on each original edge of the run
                for e in key[2]:
                    assert (leader, followers) in res.platoons.platoons[e]
            three = RouteAssignment({v: ra.routes[v] for v in vs},
                                    ra.edge_times, ra.edge_costs)
            shared = list(sched.contract(
                three, ra.edge_times, ra.edge_costs).vehicles_by_edge())
            if len(shared) <= 4:
                want, _platoons, _deps = oracle.brute_force_sp(
                    three, [m for m in inst.missions if m.id in vs], inst)
                assert savings == pytest.approx(want, abs=1e-9)
            event(f"cap {cap}: platoon of three "
                  f"{any(len(p[1]) == 2 for _key, p in plist)}, "
                  f"oracle {len(shared) <= 4}")


    def test_two_pairs_meeting_without_the_third_go_to_the_model(
            self, monkeypatch):
        # pairs (1, 2) and (1, 3) can meet on run ``key``, (2, 3) cannot (a
        # case only tolerances bring about): the closed form declines
        key = (1, 2, ((1, 2),))

        class OneRun:
            def edge_cost(self, k):
                return 10.0

        window = {(v, 1): (0.0, 1.0) for v in (1, 2, 3)}
        bounds = sched.TimeBounds({k: lo for k, (lo, _) in window.items()},
                                  {k: hi for k, (_, hi) in window.items()},
                                  dict.fromkeys(window, 0.0),
                                  dict.fromkeys((1, 2, 3), 1))
        meet = {(1, 2): [key], (1, 3): [key]}
        assert sched.closed_form(OneRun(), bounds, PARAMS, meet) is None
        assert sched.closed_form(OneRun(), bounds, PARAMS, {
            **meet, (2, 3): [key]}) == (
                (PARAMS.sigma_l + 2 * PARAMS.sigma_f) * 10.0,
                [(key, (1, (2, 3)))])
        # solve_schedule then gives the component to the model
        grid = nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 6, seed=6)
        ra = _solved_assignment(inst)
        closed = sched.solve_schedule(ra, inst, "star")
        assert (closed.milp, closed.closed) == (0, 1)
        monkeypatch.setattr(sched, "closed_form", lambda *args: None)
        modeled = sched.solve_schedule(ra, inst, "star")
        assert (modeled.milp, modeled.closed) == (1, 0)
        assert [h.contracted.vehicles for h in modeled.handles] == [[3, 4, 5]]
        assert modeled.solution.objective == pytest.approx(
            closed.solution.objective, rel=1e-9)


class TestExtractPlatoons:
    def test_leader_with_two_followers_size(self):
        # three vehicles, one shared edge, all platoonable
        routes = {1: (1, 4, 5), 2: (2, 4, 5), 3: (3, 4, 5)}
        keys = {(1, 4), (2, 4), (3, 4), (4, 5)}
        times = {k: 0.5 for k in keys}
        costs = {k: 10.0 for k in keys}
        ra = RouteAssignment(routes, times, costs)
        missions = [VehicleMission(i, i, 5, 0.0, 9.0) for i in (1, 2, 3)]
        con = sched.contract(ra, times, costs)
        tb = sched.time_bounds(con, missions)
        h = sched.build_sp(con, PARAMS, tb)
        sol = mip.solve_mip(h.model)
        cfg = sched.extract_platoons(h, sol)
        shared = [k for k, vs in con.vehicles_by_edge().items()
                  if len(vs) == 3][0]
        assert [1 + len(followers)
                for _leader, followers in cfg.platoons[shared]] == [3]

    def test_all_zero_means_trivial_platoons(self, appendix_example):
        ex = appendix_example
        h = ex["handle"]
        x = np.zeros(h.model.num_vars)
        for v in h.dep_col:
            x[h.dep_col[v]] = h.bounds.lower[(v, h.bounds.origin[v])]
        sol = mip.LpSolution("optimal", 0.0, x)
        cfg = sched.extract_platoons(h, sol)
        for key, plist in cfg.platoons.items():
            for _leader, followers in plist:
                assert followers == ()

    def test_savings_reevaluation_matches_objective(self, small_grid):
        for seed in (1, 3, 5):
            inst = nm.generate_two_cluster(small_grid, 4, seed=seed)
            ra = _solved_assignment(inst)
            params = SavingsParams.from_instance(inst)
            con = sched.contract(ra, ra.edge_times, ra.edge_costs)
            tb = sched.time_bounds(con, inst.missions)
            h = sched.build_sp(con, params, tb)
            sol = mip.solve_mip(h.model)
            cfg = sched.extract_platoons(h, sol)
            cost_of = {k: con.edge_cost(k) for k in con.cedges}
            again = cfg.savings(cost_of, params.sigma_l, params.sigma_f)
            assert again == pytest.approx(sol.objective, abs=1e-6)

    def test_structure_violation_raises(self, appendix_example):
        ex = appendix_example
        h = ex["handle"]
        x = ex["point"].x.copy()
        # follower links set without any leader flag: violates the cap row
        x[h.f_col[sorted(h.f_col)[0]]] = 1.0
        sol = mip.LpSolution("optimal", None, x)
        with pytest.raises(sched.InconsistentPlatoon):
            sched.extract_platoons(h, sol)


class TestTotalFuel:
    def test_no_platoons_equals_route_cost(self):
        inst = shared_edge_instance()
        ra = routing.shortest_path_assignment(inst)
        cfg = sched.PlatoonConfiguration(
            {e: [(v, ())] for v in ra.vehicles for e in ra.edges(v)}, {})
        total = sched.total_fuel(ra, cfg, ra.edge_costs, PARAMS)
        assert total == pytest.approx(ra.total_cost())

    def test_single_pair_contribution(self):
        inst = shared_edge_instance(edge_cost=10.0)
        ra = routing.shortest_path_assignment(inst)
        platoons = {e: [] for e in ra.all_edges()}
        platoons[(3, 4)] = [(1, (2,))]
        cfg = sched.PlatoonConfiguration(platoons, {})
        total = sched.total_fuel(ra, cfg, ra.edge_costs, PARAMS)
        # 16 side legs + 18.8 on the shared edge
        assert total == pytest.approx(16.0 + 18.8)

    def test_two_formulas_agree(self, small_grid):
        from platoonopt.rshm import c_plat
        for seed in (0, 2):
            inst = nm.generate_two_cluster(small_grid, 4, seed=seed)
            ra = _solved_assignment(inst)
            params = SavingsParams.from_instance(inst)
            con = sched.contract(ra, ra.edge_times, ra.edge_costs)
            tb = sched.time_bounds(con, inst.missions)
            h = sched.build_sp(con, params, tb)
            sol = mip.solve_mip(h.model)
            cfg = sched.expand_platoons(sched.extract_platoons(h, sol), con)
            total = sched.total_fuel(ra, cfg, ra.edge_costs, params)
            alt = 0.0
            for e, vs in ra.vehicles_by_edge().items():
                covered = set()
                for leader, followers in cfg.platoons.get(e, []):
                    size = 1 + len(followers)
                    alt += c_plat(size, ra.edge_costs[e], params)
                    covered.add(leader)
                    covered.update(followers)
                alt += sum(ra.edge_costs[e] for v in vs if v not in covered)
            assert total == pytest.approx(alt, abs=1e-9)
