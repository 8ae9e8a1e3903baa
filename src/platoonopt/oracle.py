"""Brute-force reference implementations for desk-scale verification.

Everything here enumerates: simple paths, star partitions, integer lattice
points.  These routines deliberately avoid the production model builders so
tests can compare two unrelated code paths; only the tiny feasibility LPs
reuse the LP solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mip, netmodel

COMBO_CAP = 200_000


class TooLarge(Exception):
    """Input beyond the enumeration caps."""


@dataclass
class OptimumReport:
    z_star: float
    routes: dict[int, tuple]
    platoons: dict[tuple, list[tuple]]   # edge -> [(leader, followers)]
    leaders: dict[tuple, list[int]]
    departures: dict[int, float]


# ---------------------------------------------------------------------------
# Star partitions
# ---------------------------------------------------------------------------

def enum_star_partitions(n: int, max_platoon: int | None = None,
                         labels: list | None = None) -> set[frozenset]:
    """All follower-link sets forming disjoint stars (leader = smallest
    label), sizes capped at ``max_platoon`` when given.  Each partition is a
    frozenset of (follower, leader) pairs."""
    if n > 7:
        raise TooLarge("star partition enumeration capped at 7 vehicles")
    labels = sorted(labels) if labels is not None else list(range(1, n + 1))
    if len(labels) != n:
        raise ValueError("labels length mismatch")
    out: set[frozenset] = set()

    def rec(i: int, role: dict, links: frozenset):
        if i == n:
            out.add(links)
            return
        v = labels[i]
        alone = dict(role)
        alone[v] = "alone"
        rec(i + 1, alone, links)
        for c in labels[:i]:
            if role[c] == "follower":
                continue
            size = 1 + sum(1 for u, w in links if w == c)
            if max_platoon is not None and size + 1 > max_platoon:
                continue
            nr = dict(role)
            nr[c] = "center"
            nr[v] = "follower"
            rec(i + 1, nr, links | {(v, c)})

    rec(0, {}, frozenset())
    return out


# ---------------------------------------------------------------------------
# Per-edge routing polytope lattice
# ---------------------------------------------------------------------------

def enum_rdp_edge_points(n_vehicles: int) -> list[tuple]:
    """Integer points (x_1..x_n, y, y', w) of the per-edge routing system."""
    if n_vehicles > 5:
        raise TooLarge("edge point enumeration capped at 5 vehicles")
    pts = []
    for mask in range(2 ** n_vehicles):
        x = tuple((mask >> k) & 1 for k in range(n_vehicles))
        sx = sum(x)
        for y in (0, 1):
            if any(xi > y for xi in x):
                continue
            for yp in (0, 1):
                if yp > y or sx < 2 * yp:
                    continue
                for w in range(n_vehicles + 1):
                    if w - sx + y <= 0:
                        pts.append(x + (y, yp, w))
    return pts


def affine_rank(points) -> int:
    """Number of affinely independent points: rank of differences plus one.
    Exact over rationals when the input is integral."""
    pts = [list(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return 1
    base = pts[0]
    rows = [[Fraction(a) - Fraction(b) for a, b in zip(p, base)]
            for p in pts[1:]]
    try:
        rank = _exact_rank(rows)
    except (TypeError, ValueError):
        mat = np.array(pts[1:], dtype=float) - np.array(base, dtype=float)
        rank = int(np.linalg.matrix_rank(mat, tol=1e-9))
    return rank + 1


def _exact_rank(rows) -> int:
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pr[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Scheduling by enumeration
# ---------------------------------------------------------------------------

def _route_segments(routes):
    """Maximal runs of consecutive edges carrying identical vehicle sets.

    Returns a list of (edge_tuple, vehicles_tuple, cost_fn-ready edges);
    grouping is recomputed here, independent of the production contraction.
    """
    sigs = {e: frozenset(vs) for e, vs in routes.vehicles_by_edge().items()}
    seen = set()
    segments = []
    for v in routes.vehicles:
        edges = routes.edges(v)
        i = 0
        while i < len(edges):
            j = i
            while (j + 1 < len(edges)
                   and sigs[edges[j + 1]] == sigs[edges[i]]):
                j += 1
            seg = tuple(edges[i:j + 1])
            if seg not in seen:
                seen.add(seg)
                segments.append((seg, tuple(sorted(sigs[edges[i]]))))
            i = j + 1
    return segments


def brute_force_sp(routes, missions, params):
    """Optimal scheduling savings by enumerating per-segment star partitions
    with an LP feasibility check of the equal-entry-time system.

    Returns (savings, platoons-by-original-edge, departures).
    """
    by_id = {m.id: m for m in missions}
    vehicles = routes.vehicles
    if len(vehicles) > 4:
        raise TooLarge("scheduling oracle capped at 4 vehicles")
    segments = _route_segments(routes)
    shared = [(seg, vs) for seg, vs in segments if len(vs) >= 2]
    if len(shared) > 8:
        raise TooLarge("scheduling oracle capped at 8 shared segments")

    pre = {}
    total_time = {}
    for v in vehicles:
        acc = 0.0
        for e, t in routes.route_edges(v):
            pre[(v, e[0])] = acc
            acc += t
        total_time[v] = acc

    options = []
    for seg, vs in shared:
        parts = enum_star_partitions(len(vs), params.max_platoon, labels=list(vs))
        options.append(sorted(parts, key=sorted))
    n_combo = 1
    for opt in options:
        n_combo *= len(opt)
        if n_combo > COMBO_CAP:
            raise TooLarge("too many star-partition combinations")

    def feasibility(partial):
        m = mip.LinearModel("sched_feas")
        cols = {}
        for v in vehicles:
            mi = by_id[v]
            cols[v] = m.add_var(f"d_{v}", lb=mi.t_earliest,
                                ub=mi.t_latest - total_time[v])
        for idx, links in enumerate(partial):
            seg, vs = shared[idx]
            tail = seg[0][0]
            for follower, leader in links:
                m.add_constraint({cols[follower]: 1.0, cols[leader]: -1.0},
                                 "==", pre[(leader, tail)] - pre[(follower, tail)])
        m.set_objective({}, sense="min")
        sol = mip.solve_lp(m)
        return (sol.x is not None), (
            {v: float(sol.x[cols[v]]) for v in vehicles} if sol.x is not None
            else None)

    seg_cost = {seg: sum(routes.edge_costs[e] for e in seg)
                for seg, _vs in shared}

    best = {"savings": -1.0, "combo": None, "deps": None}

    def rec(idx, partial, savings):
        ok, deps = feasibility(partial)
        if not ok:
            return
        if idx == len(shared):
            if savings > best["savings"] + 1e-12:
                best.update(savings=savings, combo=list(partial), deps=deps)
            return
        seg, vs = shared[idx]
        for links in options[idx]:
            gain = 0.0
            leaders = {}
            for follower, leader in links:
                leaders.setdefault(leader, []).append(follower)
            for leader, fol in leaders.items():
                gain += (params.sigma_l + params.sigma_f * len(fol)) * seg_cost[seg]
            rec(idx + 1, partial + [links], savings + gain)

    rec(0, [], 0.0)
    if best["combo"] is None:
        # No shared segments at all.
        ok, deps = feasibility([])
        best.update(savings=0.0, combo=[], deps=deps)

    platoons: dict[tuple, list[tuple]] = {}
    for e in routes.all_edges():
        platoons[e] = []
    covered: dict[tuple, set] = {e: set() for e in platoons}
    for idx, links in enumerate(best["combo"]):
        seg, vs = shared[idx]
        leaders: dict[int, list[int]] = {}
        for follower, leader in links:
            leaders.setdefault(leader, []).append(follower)
        for e in seg:
            for leader, fol in sorted(leaders.items()):
                platoons[e].append((leader, tuple(sorted(fol))))
                covered[e].add(leader)
                covered[e].update(fol)
    by_edge = routes.vehicles_by_edge()
    for e, vs in by_edge.items():
        for v in vs:
            if v not in covered[e]:
                platoons[e].append((v, ()))
        platoons[e].sort()
    return best["savings"], platoons, best["deps"]


# ---------------------------------------------------------------------------
# Whole-problem enumeration
# ---------------------------------------------------------------------------

def _simple_paths(net, allowed, o, d, window, cap):
    """Time-feasible simple o->d paths using only ``allowed`` edges."""
    adj: dict = {}
    for (i, j) in sorted(allowed):
        adj.setdefault(i, []).append(j)
    out = []

    def dfs(node, visited, path, t):
        if t > window + 1e-9:
            return
        if node == d:
            out.append(tuple(path))
            if len(out) > cap:
                raise TooLarge(f"more than {cap} candidate paths")
            return
        for nxt in adj.get(node, []):
            if nxt in visited:
                continue
            e = net.edge(node, nxt)
            visited.add(nxt)
            path.append(nxt)
            dfs(nxt, visited | set(), path, t + e.time)
            path.pop()
            visited.discard(nxt)

    dfs(o, {o}, [o], 0.0)
    return out


def _combo_routes(inst, path_cap):
    import itertools as it
    net = inst.network
    per_vehicle = []
    for m in inst.missions:
        allowed = netmodel.candidate_edge_set(net, m, inst.sigma_f)
        paths = _simple_paths(net, allowed, m.origin, m.dest,
                              m.t_latest - m.t_earliest, path_cap)
        if not paths:
            raise TooLarge(f"vehicle {m.id} has no feasible candidate path")
        per_vehicle.append(sorted(paths))
    for combo in it.product(*per_vehicle):
        yield {m.id: combo[k] for k, m in enumerate(inst.missions)}


def _assignment(inst, route_map):
    from .routing import RouteAssignment
    net = inst.network
    return RouteAssignment(route_map, net.time_table(), net.fuel_table())


def brute_force_cvpp(inst, path_cap: int = 50) -> OptimumReport:
    """Global optimum of the joint routing-and-scheduling problem by
    exhausting route combinations and scheduling each with the enumeration
    oracle."""
    if len(inst.missions) > 3:
        raise TooLarge("whole-problem oracle capped at 3 vehicles")
    best = None
    for route_map in _combo_routes(inst, path_cap):
        routes = _assignment(inst, route_map)
        base = routes.total_cost()
        savings, platoons, deps = brute_force_sp(routes, inst.missions, inst)
        z = base - savings
        if best is None or z < best[0] - 1e-12:
            best = (z, route_map, platoons, deps)
    z, route_map, platoons, deps = best
    leaders = {e: sorted(l for l, _f in pl) for e, pl in platoons.items()}
    return OptimumReport(z, route_map, platoons, leaders, deps)


def presumed_routing_optimum(inst, path_cap: int = 50):
    """Minimum presumed fuel over route combinations when every edge's
    sharers platoon together (the routing problem's own objective)."""
    if len(inst.missions) > 3:
        raise TooLarge("whole-problem oracle capped at 3 vehicles")
    fuel = inst.network.fuel_table()
    best = None
    for route_map in _combo_routes(inst, path_cap):
        routes = _assignment(inst, route_map)
        counts: dict[tuple, int] = {}
        for v in routes.vehicles:
            for e in routes.edges(v):
                counts[e] = counts.get(e, 0) + 1
        z = 0.0
        for e, mcount in counts.items():
            c = fuel[e]
            if mcount >= 2:
                z += (1 - inst.sigma_l) * c + (1 - inst.sigma_f) * (mcount - 1) * c
            else:
                z += c
        if best is None or z < best[0] - 1e-12:
            best = (z, route_map)
    return best
