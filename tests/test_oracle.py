"""Enumeration oracles: star partitions, lattice points, affine rank,
whole-problem brute force."""

import itertools

import numpy as np
import pytest

from platoonopt import netmodel as nm, oracle, routing
from platoonopt.netmodel import VehicleMission
from platoonopt.routing import RouteAssignment

from conftest import make_net, shared_edge_instance


class TestStarPartitions:
    def test_two_vehicles(self):
        got = oracle.enum_star_partitions(2)
        assert got == {frozenset(), frozenset({(2, 1)})}

    def test_three_vehicles_matches_inequality_count(self):
        got = oracle.enum_star_partitions(3)
        assert len(got) == 5
        assert frozenset({(2, 1), (3, 1)}) in got
        assert frozenset({(2, 1), (3, 2)}) not in got  # chain, not a star

    def test_size_cap_removes_two_follower_stars(self):
        capped = oracle.enum_star_partitions(3, max_platoon=2)
        assert frozenset({(2, 1), (3, 1)}) not in capped
        assert len(capped) == 4

    def test_labels_relabel_pairs(self):
        got = oracle.enum_star_partitions(2, labels=[4, 9])
        assert got == {frozenset(), frozenset({(9, 4)})}

    def test_cap(self):
        with pytest.raises(oracle.TooLarge):
            oracle.enum_star_partitions(8)


class TestEdgePoints:
    def test_single_vehicle_never_pairs(self):
        pts = oracle.enum_rdp_edge_points(1)
        assert (0, 0, 0, 0) in pts
        assert (1, 1, 0, 0) in pts
        assert all(p[2] == 0 for p in pts)  # y' never 1

    def test_all_points_satisfy_facet(self):
        for nv in (2, 3, 4):
            for p in oracle.enum_rdp_edge_points(nv):
                assert sum(p[:nv]) >= p[nv] + p[nv + 1] - 1e-12

    def test_count_matches_permuted_recount(self):
        for nv in (1, 2, 3, 4):
            pts = set(oracle.enum_rdp_edge_points(nv))
            again = set()
            for w in range(nv + 1):
                for y in (0, 1):
                    for yp in (0, 1):
                        for mask in itertools.product((0, 1), repeat=nv):
                            sx = sum(mask)
                            if (sx >= 2 * yp and w - sx + y <= 0
                                    and all(x <= y for x in mask) and yp <= y):
                                again.add(tuple(mask) + (y, yp, w))
            assert pts == again


class TestAffineRank:
    def test_single_point(self):
        assert oracle.affine_rank([(3, 1)]) == 1

    def test_collinear(self):
        assert oracle.affine_rank([(0, 0), (1, 1), (2, 2)]) == 2

    def test_facet_rank_three_vehicles(self):
        pts = [p for p in oracle.enum_rdp_edge_points(3)
               if sum(p[:3]) == p[3] + p[4]]
        # the tight points span the full facet: |V| + 3 = 6
        assert oracle.affine_rank(pts) == 6

    def test_exact_on_fractions(self):
        from fractions import Fraction
        pts = [(Fraction(1, 3), 0), (Fraction(2, 3), 0), (1, 0)]
        assert oracle.affine_rank(pts) == 2


class TestBruteForceSp:
    def test_no_shared_edges_no_savings(self):
        routes = {1: (1, 2), 2: (3, 4)}
        times = {(1, 2): 0.5, (3, 4): 0.5}
        costs = {(1, 2): 5.0, (3, 4): 5.0}
        ra = RouteAssignment(routes, times, costs)
        missions = [VehicleMission(1, 1, 2, 0, 9), VehicleMission(2, 3, 4, 0, 9)]
        inst_like = type("P", (), {"sigma_l": 0.02, "sigma_f": 0.1,
                                   "max_platoon": 10})()
        savings, _pl, _d = oracle.brute_force_sp(ra, missions, inst_like)
        assert savings == pytest.approx(0.0)

    def test_infeasible_pair_rejected(self):
        inst = shared_edge_instance(windows=[(0.0, 0.3), (10.0, 12.0)])
        ra = routing.shortest_path_assignment(inst)
        savings, platoons, _d = oracle.brute_force_sp(ra, inst.missions, inst)
        assert savings == pytest.approx(0.0)

    def test_compatible_pair_platooned(self):
        inst = shared_edge_instance(edge_cost=10.0)
        ra = routing.shortest_path_assignment(inst)
        savings, platoons, deps = oracle.brute_force_sp(ra, inst.missions, inst)
        assert savings == pytest.approx(1.2)
        assert (1, (2,)) in platoons[(3, 4)]
        # departure times realize equal entry at the shared edge tail
        t1 = deps[1] + ra.edge_times[(1, 3)]
        t2 = deps[2] + ra.edge_times[(2, 3)]
        assert t1 == pytest.approx(t2, abs=1e-6)

    def test_too_large(self):
        routes = {v: (v, 100) for v in range(1, 6)}
        times = {(v, 100): 1.0 for v in range(1, 6)}
        costs = dict(times)
        ra = RouteAssignment(routes, times, costs)
        missions = [VehicleMission(v, v, 100, 0, 9) for v in range(1, 6)]
        inst_like = type("P", (), {"sigma_l": 0.02, "sigma_f": 0.1,
                                   "max_platoon": 10})()
        with pytest.raises(oracle.TooLarge):
            oracle.brute_force_sp(ra, missions, inst_like)


class TestBruteForceCvpp:
    def test_single_vehicle_shortest_path(self, triangle_net):
        inst = nm.ProblemInstance(triangle_net,
                                  [VehicleMission(1, 1, 2, 0.0, 1.0)])
        rep = oracle.brute_force_cvpp(inst)
        assert rep.z_star == pytest.approx(10.0)
        assert rep.routes[1] == (1, 2)

    def test_disjoint_networks_sum_shortest(self):
        net = make_net({1: (0, 0), 2: (5, 0), 3: (0, 5), 4: (5, 5)},
                       [(1, 2, 5.0), (3, 4, 7.0)])
        inst = nm.ProblemInstance(net, [VehicleMission(1, 1, 2, 0, 9),
                                        VehicleMission(2, 3, 4, 0, 9)])
        rep = oracle.brute_force_cvpp(inst)
        assert rep.z_star == pytest.approx(12.0)

    def test_shared_edge_saves_twelve_percent_of_edge(self):
        inst = shared_edge_instance(edge_cost=10.0)
        fuel0 = routing.shortest_path_assignment(inst).total_cost()
        rep = oracle.brute_force_cvpp(inst)
        assert rep.z_star == pytest.approx(fuel0 - 1.2)
        edge = (3, 4)
        assert rep.leaders[edge] == [1]

    def test_vehicle_cap(self, small_grid):
        inst = nm.generate_distributed(small_grid, 4, seed=0)
        with pytest.raises(oracle.TooLarge):
            oracle.brute_force_cvpp(inst)

    def test_invariant_chain_rdp_cvpp_rshm(self, small_grid):
        from platoonopt import mip, rshm
        inst = nm.generate_two_cluster(small_grid, 3, seed=4)
        h = routing.build_rdp(inst)
        rdp = mip.solve_mip(h.model,
                            initial_solution=routing.initial_solution(h))
        rep = oracle.brute_force_cvpp(inst)
        res = rshm.run(inst, rshm.RshmOptions(iter_cap=50))
        assert rdp.objective <= rep.z_star + 1e-6
        assert rep.z_star <= res.z_hat + 1e-6
