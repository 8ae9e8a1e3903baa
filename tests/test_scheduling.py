"""Scheduling: time bounds, pruning, contraction, the MILP, extraction."""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from platoonopt import (mip, netmodel as nm, oracle, routing, rshm,
                        scheduling as sched)
from platoonopt.netmodel import VehicleMission
from platoonopt.routing import RouteAssignment
from platoonopt.rshm import SavingsParams
from platoonopt.scheduling import CEdge, ContractedRoutes, uncontracted

import reference_models
from conftest import shared_edge_instance


PARAMS = SavingsParams(0.02, 0.1, 10)


def _solved_assignment(inst):
    h = routing.build_rdp(inst, routing.EdgeCostTable.initial(inst))
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


def _contract_by_merging(routes, times, costs):
    """Contraction by repeated pairwise merging, rescanning from the start
    after each merge: the reference for ``sched.contract``."""
    veh_sets = {e: frozenset(vs) for e, vs in routes.vehicles_by_edge().items()}

    class Seg:
        def __init__(self, tail, head, time, cost, vehicles, original):
            self.tail, self.head, self.time, self.cost = tail, head, time, cost
            self.vehicles, self.original = vehicles, original

    seg_by_edge = {e: Seg(e[0], e[1], times[e], costs[e], veh_sets[e], (e,))
                   for e in routes.all_edges()}
    work = {v: [seg_by_edge[e] for e in routes.edges(v)]
            for v in routes.vehicles}
    changed = True
    while changed:
        changed = False
        for v in sorted(work):
            segs = work[v]
            for s1, s2 in zip(segs, segs[1:]):
                if s1.vehicles == s2.vehicles:
                    merged = Seg(s1.tail, s2.head, s1.time + s2.time,
                                 s1.cost + s2.cost, s1.vehicles,
                                 s1.original + s2.original)
                    for u in sorted(s1.vehicles):
                        pos = work[u].index(s1)
                        assert work[u][pos + 1] is s2
                        work[u][pos:pos + 2] = [merged]
                    changed = True
                    break
            if changed:
                break
    final = {id(s): s for v in sorted(work) for s in work[v]}.values()
    serial, out = {}, {}
    for s in sorted(final, key=lambda s: (str(s.tail), str(s.head),
                                          s.original)):
        k = (s.tail, s.head)
        serial[k] = serial.get(k, -1) + 1
        out[id(s)] = CEdge(s.tail, s.head, serial[k], s.time, s.cost,
                           s.vehicles, s.original)
    return ContractedRoutes({v: [out[id(s)] for s in work[v]] for v in work})


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
                ra = routing.greedy_assignment(
                    inst, routing.EdgeCostTable.initial(inst), cand)
        con = sched.contract(ra, ra.edge_times, ra.edge_costs)
        ref = _contract_by_merging(ra, ra.edge_times, ra.edge_costs)
        assert list(con.routes) == list(ref.routes)
        assert con.routes == ref.routes
        veh_sets = ra.vehicles_by_edge()
        for v in ra.vehicles:
            segs = con.routes[v]
            assert [e for s in segs for e in s.original] == ra.edges(v)
            for s in segs:
                assert all(frozenset(veh_sets[e]) == s.vehicles
                           for e in s.original)
            for a, b in zip(segs, segs[1:]):
                assert a.vehicles != b.vehicles
        raw = uncontracted(ra)
        for v in ra.vehicles:
            assert raw.routes[v] == [
                CEdge(e[0], e[1], 0, ra.edge_times[e], ra.edge_costs[e],
                      frozenset(veh_sets[e]), (e,)) for e in ra.edges(v)]
        event(f"{route_kind}: merged {len(con.cedges) < len(raw.cedges)}, "
              f"parallel runs {any(k[2] for k in con.cedges)}")

    def test_single_vehicle_collapses_to_one_edge(self):
        nodes = tuple(range(1, 7))
        times = {(nodes[i], nodes[i + 1]): 0.1 * (i + 1) for i in range(5)}
        costs = {k: 2.0 * t for k, t in times.items()}
        ra = RouteAssignment({1: nodes}, times, costs)
        con = sched.contract(ra, times, costs)
        assert len(con.routes[1]) == 1
        seg = con.routes[1][0]
        assert seg.time == pytest.approx(sum(times.values()))
        assert seg.cost == pytest.approx(sum(costs.values()))

    def test_overlapping_middle_merges(self):
        # two vehicles share C->D->E; those two edges contract into one
        routes = {1: (1, 3, 4, 5, 6), 2: (2, 3, 4, 5, 7)}
        keys = {(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)}
        times = {k: 1.0 for k in keys}
        costs = {k: 1.0 for k in keys}
        ra = RouteAssignment(routes, times, costs)
        con = sched.contract(ra, times, costs)
        shared = [s for s in con.cedges.values() if len(s.vehicles) == 2]
        assert len(shared) == 1
        assert shared[0].original == ((3, 4), (4, 5))
        assert shared[0].time == pytest.approx(2.0)
        # consecutive contracted edges never carry identical vehicle sets
        for v in con.vehicles:
            segs = con.routes[v]
            for a, b in zip(segs, segs[1:]):
                assert a.vehicles != b.vehicles

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
        for seed in range(4):
            inst = nm.generate_two_cluster(small_grid, 4, seed=seed)
            ra = _solved_assignment(inst)
            con = sched.contract(ra, ra.edge_times, ra.edge_costs)
            plain = mip.solve_mip(sched.build_sp(
                con, inst, sched.time_bounds(con, inst.missions)).model)
            fuel = inst.network.fuel_table()
            for mode in sched.CUT_MODES:
                for merge in (True, False):
                    res = sched.solve_schedule(ra, inst, mode,
                                               merge_edges=merge)
                    assert res.solution.status == "optimal"
                    assert res.solution.objective == pytest.approx(
                        plain.objective, abs=1e-6)
                    assert sched.total_fuel(ra, res.platoons, fuel, inst) == \
                        pytest.approx(ra.total_cost() - plain.objective)

    def test_cut_log_receives_the_root_cuts(self):
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 8, seed=0)
        ra = routing.shortest_path_assignment(inst)
        log = []
        res = sched.solve_schedule(ra, inst, "star+disj", cut_log=log)
        assert len(log) == res.solution.cuts_added > 0
        bounds = [before for before, _cut in log] + [res.solution.root_bound]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

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
    greedy = routing.greedy_assignment(
        inst, routing.EdgeCostTable.initial(inst), cand)
    if route_kind == "shortest":
        return inst, shortest, greedy
    return inst, greedy, shortest


_CASES = dict(rows=st.integers(3, 6),
              generator=st.sampled_from(["two_cluster", "distributed"]),
              vehicles=st.integers(2, 10), seed=st.integers(0, 10_000),
              route_kind=st.sampled_from(["shortest", "greedy", "walks"]),
              # wider windows let more pairs meet
              flexibility=st.sampled_from([1.0, 4.0]))


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
        assert res.handle.model.num_vars == 0
        assert res.solution.status == "optimal"
        assert res.platoons.departures == {1: 0.0, 2: 10.0}

    @pytest.mark.parametrize("cuts", ["star", "star+disj"])
    def test_all_components_known_runs_no_solve(self, cuts, monkeypatch):
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=5)
        inst = nm.generate_two_cluster(grid, 14, seed=1)
        ra = routing.shortest_path_assignment(inst)
        solved = {}
        fresh = sched.solve_schedule(ra, inst, cuts, solved=solved)
        assert fresh.handle.model.num_vars > 0 and solved

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a model without columns")

        monkeypatch.setattr(mip, "solve_mip", no_solve)
        again = sched.solve_schedule(ra, inst, cuts, solved=solved)
        assert again.handle.model.num_vars == 0
        sol = again.solution
        assert (sol.status, sol.objective, sol.x.size, sol.nodes) == \
            ("optimal", 0.0, 0, 0)
        assert again.platoons == fresh.platoons
        fuel = inst.network.fuel_table()
        assert sched.total_fuel(ra, again.platoons, fuel, inst) == \
            sched.total_fuel(ra, fresh.platoons, fuel, inst)

    def test_pairs_that_can_meet_are_found_once(self, monkeypatch):
        # solve_schedule hands build_sp the pairs of the components it
        # solves; the model is the one build_sp builds finding them itself
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
        calls = []
        find = sched.platoonable_and_bigM
        monkeypatch.setattr(sched, "platoonable_and_bigM",
                            lambda *args: calls.append(args) or find(*args))
        got = sched.solve_schedule(ra, inst, "star", solved=solved).handle
        assert len(calls) == 1
        monkeypatch.undo()
        want = sched.build_sp(sched._restricted(con, set(comps[0])), inst,
                              bounds, sched.CutOptions(star_partition=True))
        assert (got.big_m, got.pruned) == (want.big_m, want.pruned)
        assert list(got.big_m) == list(want.big_m)
        assert got.model.names == want.model.names
        for a, b in zip(mip._columns(got.model), mip._columns(want.model)):
            assert np.array_equal(a, b)
        ga, wa = got.model.compiled_rows(), want.model.compiled_rows()
        assert (ga.a != wa.a).nnz == 0
        assert np.array_equal(ga.rlo, wa.rlo) and np.array_equal(ga.rhi, wa.rhi)

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
        assert third.handle.model.num_vars == 0
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
        sizes = {v: cfg.size(v, shared) for v in (1, 2, 3)}
        assert sizes == {1: 3, 2: 3, 3: 3}

    def test_all_zero_means_trivial_platoons(self, appendix_example):
        ex = appendix_example
        h = ex["handle"]
        x = np.zeros(h.model.num_vars)
        for v in h.dep_col:
            x[h.dep_col[v]] = h.bounds.lower[(v, h.origin[v])]
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
