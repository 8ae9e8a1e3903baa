"""Route-design problem: phase one of each heuristic iteration.

Builds the routing MILP over per-vehicle candidate edge sets.  On the first
iteration the objective prices every edge at its raw fuel cost minus the
presumed platooning savings; later iterations replace explored edges'
terms with the per-vehicle adjusted costs fed back from scheduling.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import mip, netmodel
from .netmodel import ProblemInstance


class InfeasibleMission(Exception):
    """A vehicle's candidate edge set admits no time-feasible path."""


class NonPathSolution(Exception):
    """Rounded routing solution is not a simple origin-destination path."""


class EdgeCostTable:
    """Base fuel costs plus per-vehicle adjusted costs on explored edges,
    given as an ``adjusted`` dict keyed by (vehicle, edge), or as
    ``prices``, one per pair of ``pairs`` (a ``CandidatePairs``), of which
    those on explored edges are the adjusted costs; ``adjusted`` then lists
    them edge by edge."""

    def __init__(self, base: dict, adjusted: dict | None = None,
                 explored: frozenset = frozenset(), pairs=None, prices=None):
        self.base, self.explored = base, explored
        self.pairs, self.prices = pairs, prices
        self._adjusted = (adjusted or {}) if pairs is None else None
        if pairs is not None:
            on = _explored_edges(explored, pairs)[pairs.edge]
            self._costs = np.where(on, prices, pairs.fuel)
            self._order = pairs.by_edge[on[pairs.by_edge]]

    @classmethod
    def initial(cls, inst: ProblemInstance) -> "EdgeCostTable":
        return cls(base=inst.network.fuel_table())

    @property
    def adjusted(self) -> dict:
        if self._adjusted is None:
            keys = self.pairs.keys
            self._adjusted = dict(zip([keys[j] for j in self._order.tolist()],
                                      self.prices[self._order].tolist()))
        return self._adjusted

    def cost(self, v: int, edge: tuple) -> float:
        if edge in self.explored:
            return self.adjusted[(v, edge)]
        return self.base[edge]

    def costs_of(self, keys: list) -> np.ndarray:
        """``cost`` of each (vehicle, edge) of ``keys``; a table of
        ``pairs`` prices those pairs only."""
        if self.pairs is None:
            return np.array([self.cost(v, e) for v, e in keys], float)
        if keys is self.pairs.keys:     # every pair, in order
            return self._costs
        return self._costs[[self.pairs.index[k] for k in keys]]

    def validate(self, sigma_f: float) -> None:
        """``ValueError`` naming the first adjusted cost outside
        ``[(1 - sigma_f) * base, base]``, with 1e-9 slack, or not positive."""
        if self.pairs is None:
            c = np.array(list(self.adjusted.values()), float)
            base = np.array([self.base[e] for _v, e in self.adjusted], float)
        else:
            c, base = self.prices[self._order], self.pairs.fuel[self._order]
        out = ~((0 < c) & (c <= base + 1e-9))
        bad = out | (c < (1.0 - sigma_f) * base - 1e-9)
        if bad.any():
            i = int(np.argmax(bad))
            v, e = list(self.adjusted)[i]
            raise ValueError(f"adjusted cost out of range for {v},{e}" if out[i]
                             else f"adjusted cost below follower floor for {v},{e}")


def _explored_edges(explored, pairs: "CandidatePairs") -> np.ndarray:
    """Whether each candidate edge of ``pairs`` is in ``explored``."""
    return np.fromiter((e in explored for e in pairs.edges), bool,
                       len(pairs.edges))


class CandidatePairs:
    """The (vehicle, candidate edge) pairs of a routing model in the order
    of its x columns: vehicle by vehicle as in ``inst.missions`` (one that
    ``candidates`` lacks has none), each one's candidate edges in key order.
    Pair ``j`` is ``keys[j]``, on ``edges[edge[j]]`` of fuel ``fuel[j]``;
    ``edges`` are the candidate edges in key order, of fuel ``edge_fuel``;
    ``by_edge`` lists the pairs edge by edge."""

    def __init__(self, inst: ProblemInstance, candidates: dict[int, set]):
        sets = [sorted(candidates.get(m.id, ())) for m in inst.missions]
        self.keys = [(m.id, e) for m, es in zip(inst.missions, sets)
                     for e in es]
        self.index = dict(zip(self.keys, range(len(self.keys))))
        self.edges = sorted({e for es in sets for e in es})
        self.edge_index = dict(zip(self.edges, range(len(self.edges))))
        self.edge = np.array([self.edge_index[e] for _v, e in self.keys],
                             dtype=np.int64)
        fuel = inst.network.fuel_table()
        self.edge_fuel = np.array([fuel[e] for e in self.edges], float)
        self.fuel = self.edge_fuel[self.edge]
        vehicle = np.repeat(np.arange(len(sets)), [len(es) for es in sets])
        self.by_edge = np.lexsort((vehicle, self.edge))


class RouteAssignment:
    """Per-vehicle simple paths plus the edge tables they traverse."""

    def __init__(self, routes: dict[int, tuple], edge_times: dict[tuple, float],
                 edge_costs: dict[tuple, float]):
        self.routes = {v: tuple(nodes) for v, nodes in routes.items()}
        self.edge_times = edge_times
        self.edge_costs = edge_costs
        for v, nodes in self.routes.items():
            if len(set(nodes)) != len(nodes):
                raise NonPathSolution(f"vehicle {v}: repeated node in route")
        self._edges = {v: tuple(zip(nodes, nodes[1:]))
                       for v, nodes in self.routes.items()}

    @property
    def vehicles(self) -> list[int]:
        return sorted(self.routes)

    def edges(self, v: int) -> list[tuple]:
        return list(self._edges[v])

    def route_edges(self, v: int) -> list[tuple]:
        return [(e, self.edge_times[e]) for e in self.edges(v)]

    def vehicles_by_edge(self) -> dict[tuple, list[int]]:
        out: dict[tuple, list[int]] = {}
        for v in self.vehicles:
            for e in self.edges(v):
                out.setdefault(e, []).append(v)
        return {e: sorted(vs) for e, vs in out.items()}

    def all_edges(self) -> set:
        return {e for v in self.vehicles for e in self.edges(v)}

    def route_cost(self, v: int) -> float:
        return sum(self.edge_costs[e] for e in self.edges(v))

    def total_cost(self) -> float:
        return sum(self.route_cost(v) for v in self.vehicles)

    def key(self) -> str:
        parts = [f"{v}:" + "-".join(str(n) for n in self.routes[v])
                 for v in self.vehicles]
        return "|".join(parts)

    def __eq__(self, other):
        return isinstance(other, RouteAssignment) and self.routes == other.routes


@dataclass
class RdpModelHandle:
    model: mip.LinearModel
    x_col: dict[tuple, int]          # (v, edge) -> column
    y_col: dict[tuple, int]
    yp_col: dict[tuple, int]
    w_col: dict[tuple, int]
    candidates: dict[int, set]
    edge_vehicles: dict[tuple, list[int]]
    costs: EdgeCostTable
    instance: ProblemInstance
    iteration: int
    pairs: CandidatePairs                # the x columns' pairs


@functools.lru_cache(maxsize=None)
def _hull_rows(k: int):
    """The rows of the per-edge routing polytope of an edge in the
    candidate sets of ``k`` vehicles, over local columns: ``0 .. k-1`` the
    vehicles' x in ascending id order, then ``k`` for y, ``k+1`` for y'
    and ``k+2`` for w.  Returns ``(row lengths, columns, coefficients,
    senses, names)``; a name is ``(tag, vehicle)``, the local vehicle of a
    ``used`` row and None otherwise.

    The 0/1 bounds of x, y and y' and w >= 0 are column bounds, not rows.
    The last row, sum x >= y + y', is valid for any vehicle count (y' = 1
    forces sum x >= 2 >= y + y'; otherwise sum x >= y by the w row) and
    facet-defining from three vehicles up."""
    x = list(range(k))
    y, yp, w = k, k + 1, k + 2
    rows = [(("pair", None), x + [yp], [1.0] * k + [-2.0], mip.GE),
            (("count", None), x + [w, y], [-1.0] * k + [1.0, 1.0], mip.LE)]
    rows += [(("used", i), [i, y], [1.0, -1.0], mip.LE) for i in x]
    rows.append((("pairused", None), [yp, y], [1.0, -1.0], mip.LE))
    rows.append((("hull", None), x + [y, yp], [1.0] * k + [-1.0, -1.0],
                 mip.GE))
    names, cols, vals, senses = zip(*rows)
    arrays = (np.array([len(c) for c in cols]), np.concatenate(cols),
              np.concatenate(vals))
    for a in arrays:
        a.flags.writeable = False       # shared by every caller
    return (*arrays, senses, names)


def hull_inequalities(edge: tuple, vehicles: list[int]):
    """Rows of the per-edge routing polytope (see ``_hull_rows``), as
    ``build_rdp`` emits them: (coeffs, sense, rhs, name) with coefficient
    keys ('x', v), 'y', 'yp' and 'w'."""
    vehicles = sorted(vehicles)
    keys = [("x", v) for v in vehicles] + ["y", "yp", "w"]
    lengths, cols, vals, senses, names = _hull_rows(len(vehicles))
    ends = np.cumsum(lengths).tolist()
    cols, vals = cols.tolist(), vals.tolist()
    return [({keys[j]: c for j, c in zip(cols[e - n:e], vals[e - n:e])},
             sense, 0.0,
             f"{tag}_{edge}" if i is None else f"{tag}_{vehicles[i]}_{edge}")
            for n, e, sense, (tag, i) in zip(lengths.tolist(), ends, senses,
                                             names)]


def build_rdp(inst: ProblemInstance, costs: EdgeCostTable,
              iteration: int = 1) -> RdpModelHandle:
    """Assemble the routing MILP, priced from ``costs``.  The structure does
    not depend on the costs: later iterations re-price it with
    ``set_rdp_costs``.

    Columns: each vehicle's x over its candidate edges in key order,
    vehicle by vehicle, then y, y' and w of each candidate edge in key
    order.  Rows: each vehicle's flow balance at every node of its
    candidate edges (by node id; each row's entries in the iteration order
    of the candidate set) and then its time window; then the rows of
    ``hull_inequalities`` edge by edge in key order."""
    net = inst.network
    cand = {m.id: netmodel.candidate_edge_set(net, m, inst.sigma_f)
            for m in inst.missions}
    for m in inst.missions:
        nodes = _fastest_path(net, cand[m.id], m)
        if nodes is None or not _fits_window(net, nodes, m):
            raise InfeasibleMission(
                f"vehicle {m.id}: no time-feasible path in its candidate set")

    pairs = CandidatePairs(inst, cand)
    arrays = net.edge_arrays()
    missions = inst.missions
    # One entry per (vehicle, candidate edge), vehicle by vehicle, each
    # vehicle's edges in the iteration order of its candidate set.
    sizes = [len(cand[m.id]) for m in missions]
    n = sum(sizes)
    edge = np.fromiter((arrays.index[e] for m in missions for e in cand[m.id]),
                       dtype=np.int64, count=n)
    veh = np.repeat(np.arange(len(missions)), sizes)
    x = np.fromiter((pairs.index[(m.id, e)] for m in missions   # x columns
                     for e in cand[m.id]), dtype=np.int64, count=n)
    vid = np.array([m.id for m in missions], dtype=np.int64)[veh]
    # The entries edge by edge in key order, each edge's vehicles by id.
    by_edge = np.lexsort((vid, arrays.rank[edge]))
    first = np.flatnonzero(np.diff(edge[by_edge], prepend=-1))
    k = np.diff(first, append=n)            # vehicles per candidate edge
    y = n + 3 * np.arange(len(pairs.edges))  # then y' = y + 1, w = y + 2
    names = [f"x_{v}_{t}_{h}" for v, (t, h) in pairs.keys]
    for t, h in pairs.edges:
        names += [f"y_{t}_{h}", f"yp_{t}_{h}", f"w_{t}_{h}"]

    model = mip.LinearModel("rdp")
    model.add_vars(names, 0.0, np.inf, np.concatenate([
        np.full(n, mip.BINARY_CODE),
        np.tile([mip.BINARY_CODE, mip.BINARY_CODE, mip.CONTINUOUS_CODE],
                len(pairs.edges))]))
    _add_flow_rows(model, arrays, missions, edge, veh, x)
    vs = vid[by_edge].tolist()
    _add_hull_rows(model, [str(e) for e in pairs.edges], k, x[by_edge], vs, y)

    y_col = dict(zip(pairs.edges, y.tolist()))
    handle = RdpModelHandle(
        model, pairs.index, y_col, {e: j + 1 for e, j in y_col.items()},
        {e: j + 2 for e, j in y_col.items()}, cand,
        {e: vs[s:s + c] for e, s, c in zip(pairs.edges, first.tolist(),
                                           k.tolist())},
        costs, inst, iteration, pairs)
    set_rdp_costs(handle, costs, iteration)
    return handle


def _add_flow_rows(model, arrays, missions, edge, veh, x) -> None:
    """Each vehicle's flow-balance rows, by node id, then its window row,
    over the entries ``edge`` (network edge positions) of vehicles ``veh``
    with columns ``x``."""
    n, nodes = len(edge), len(arrays.nodes)
    if n == 0:
        return
    # A row is keyed by vehicle and node number, the window row after the
    # nodes; an entry within its row by its position in the entries.
    base = veh * (nodes + 1)
    row = np.concatenate([base + arrays.tail[edge], base + arrays.head[edge],
                          base + nodes])
    order = np.argsort(row * n + np.tile(np.arange(n), 3))
    row = row[order]
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    vals = np.concatenate([np.ones(n), np.full(n, -1.0),
                           arrays.time[edge]])[order]
    who, node = np.divmod(row[starts], nodes + 1)
    window = node == nodes
    node_id = arrays.nodes[np.minimum(node, nodes - 1)]
    origin = np.array([m.origin for m in missions])[who]
    dest = np.array([m.dest for m in missions])[who]
    span = np.array([m.t_latest - m.t_earliest for m in missions])[who]
    rhs = np.where(window, span, np.where(
        node_id == origin, 1.0, np.where(node_id == dest, -1.0, 0.0)))
    ids = [missions[i].id for i in who.tolist()]
    model.add_rows(np.append(starts, 3 * n), np.tile(x, 3)[order], vals,
                   np.where(window, mip.LE, mip.EQ), rhs,
                   [f"window_{v}" if w else f"flow_{v}_{u}" for v, u, w in
                    zip(ids, node_id.tolist(), window.tolist())])


def _add_hull_rows(model, edges, k, x, vehicles, y) -> None:
    """The rows of ``hull_inequalities`` of each edge of ``edges`` (keys
    as text, in key order), edge ``g`` in the candidate sets of ``k[g]``
    vehicles: ``x`` holds their columns edge by edge (vehicles by id, as
    in ``vehicles``) and ``y[g]`` is the edge's y column."""
    if not edges:
        return
    rows = [_hull_rows(c) for c in k.tolist()]
    g = np.repeat(np.arange(len(edges)), [len(r[1]) for r in rows])
    local = np.concatenate([r[1] for r in rows])
    kg = k[g]
    first = np.cumsum(k) - k               # each edge's first entry of x
    cols = np.where(local < kg, x[first[g] + np.minimum(local, kg - 1)],
                    y[g] + local - kg)
    names = []
    for e, s, r in zip(edges, first.tolist(), rows):
        names += [f"{tag}_{e}" if i is None
                  else f"{tag}_{vehicles[s + i]}_{e}" for tag, i in r[4]]
    model.add_rows(mip.row_pointers(np.concatenate([r[0] for r in rows])),
                   cols, np.concatenate([r[2] for r in rows]),
                   [s for r in rows for s in r[3]], 0.0, names)


def set_rdp_costs(handle: RdpModelHandle, costs: EdgeCostTable,
                  iteration: int) -> None:
    """Re-price a routing model for another iteration.  Only the objective
    depends on the cost table; columns, rows and bounds stay as built, so
    the previous iteration's LP basis remains primal feasible."""
    inst, pairs = handle.instance, handle.pairs
    n = len(pairs.keys)
    c = np.zeros(handle.model.num_vars)
    c[:n] = costs.costs_of(pairs.keys)
    fuel = np.where(_explored_edges(costs.explored, pairs), 0.0,
                    pairs.edge_fuel)
    c[n + 1::3] = -inst.sigma_l * fuel
    c[n + 2::3] = -inst.sigma_f * fuel
    handle.model.set_objective(c, sense="min")
    handle.costs = costs
    handle.iteration = iteration


def chosen_pairs(handle: RdpModelHandle, sol) -> np.ndarray:
    """Whether a solution routes each pair of ``handle.pairs``."""
    return sol.x[:len(handle.pairs.keys)] > 0.5


def extract_route_assignment(handle: RdpModelHandle,
                             sol) -> RouteAssignment:
    """Read integral x values into ordered per-vehicle paths."""
    if sol.x is None:
        raise NonPathSolution("no solution values to extract")
    net, keys = handle.instance.network, handle.pairs.keys
    succ = {m.id: {} for m in handle.instance.missions}
    for j in np.flatnonzero(chosen_pairs(handle, sol)).tolist():
        v, (a, b) = keys[j]
        if a in succ[v]:
            raise NonPathSolution(f"vehicle {v}: branching at node {a}")
        succ[v][a] = b
    routes = {}
    for m in handle.instance.missions:
        nodes = [m.origin]
        while nodes[-1] != m.dest:
            nxt = succ[m.id].pop(nodes[-1], None)
            if nxt is None or nxt in nodes:
                raise NonPathSolution(f"vehicle {m.id}: edge set is not a path")
            nodes.append(nxt)
        if succ[m.id]:
            raise NonPathSolution(f"vehicle {m.id}: disconnected extra edges")
        routes[m.id] = tuple(nodes)
    return RouteAssignment(routes, net.time_table(), net.fuel_table())


def presumed_objective(assignment: RouteAssignment, costs: EdgeCostTable,
                       inst: ProblemInstance) -> float:
    """Routing objective value at a given route assignment (the model's own
    estimate of total fuel, before scheduling realizes it): the route
    costs added one by one, vehicle by vehicle along each route."""
    keys = [(v, e) for v in assignment.vehicles for e in assignment.edges(v)]
    total = float(np.cumsum(costs.costs_of(keys))[-1]) if keys else 0.0
    for e, m in Counter(e for _v, e in keys).items():
        if e not in costs.explored and m >= 2:
            c = costs.base[e]
            total -= inst.sigma_l * c + inst.sigma_f * (m - 1) * c
    return total


def shortest_path_assignment(inst: ProblemInstance) -> RouteAssignment:
    """Every vehicle on its fuel-shortest path (the no-coordination baseline)."""
    net = inst.network
    routes = {m.id: netmodel.shortest_path(net, m.origin, m.dest, "fuel").nodes
              for m in inst.missions}
    return RouteAssignment(routes, net.time_table(), net.fuel_table())


def _greedy_path(net, allowed, o, d, weight_of):
    """Min-marginal-cost path over the candidate edges, lowest-id ties;
    ``weight_of`` maps an ``Edge`` to its cost."""
    dist = {o: 0.0}
    prev = {}
    heap = [(0.0, o)]
    done = set()
    while heap:
        w, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == d:
            break
        for e in net.out_adj[u]:
            if e.head in done or (u, e.head) not in allowed:
                continue
            nw = w + weight_of(e)
            if e.head not in dist or nw < dist[e.head] - 1e-15 or (
                    abs(nw - dist[e.head]) <= 1e-15 and u < prev[e.head]):
                dist[e.head] = nw
                prev[e.head] = u
                heapq.heappush(heap, (nw, e.head))
    if d not in prev and o != d:
        return None
    nodes = [d]
    while nodes[-1] != o:
        nodes.append(prev[nodes[-1]])
    return tuple(reversed(nodes))


def _fastest_path(net, allowed, m):
    """Time-shortest path of mission ``m`` over the candidate edges."""
    return _greedy_path(net, allowed, m.origin, m.dest, lambda e: e.time)


def _fits_window(net, nodes, m) -> bool:
    t = sum(net.edge(nodes[i], nodes[i + 1]).time
            for i in range(len(nodes) - 1))
    return t <= m.t_latest - m.t_earliest + 1e-9


def greedy_assignment(inst: ProblemInstance, costs: EdgeCostTable,
                      candidates: dict[int, set]) -> RouteAssignment:
    """Sequential marginal-cost routing used to seed the MILP incumbent.

    Vehicles are routed in id order; an edge already carrying traffic is
    priced at its presumed follower cost.  Falls back to the fuel-shortest
    path when the greedy path breaks the mission time window.
    """
    net = inst.network
    occupied: dict[tuple, int] = {}
    routes: dict[int, tuple] = {}
    for m in inst.missions:
        def weight(edge, v=m.id):
            e = edge.key
            base = costs.cost(v, e)
            if e in costs.explored:
                return base
            k = occupied.get(e, 0)
            if k == 0:
                return base
            w = (1 - inst.sigma_f) * base
            if k == 1:
                w -= inst.sigma_l * costs.base[e]
            return max(w, 1e-12)

        nodes = _greedy_path(net, candidates[m.id], m.origin, m.dest, weight)
        if nodes is not None and not _fits_window(net, nodes, m):
            nodes = None
        if nodes is None:
            # Time-shortest candidate path; build_rdp guarantees one fits.
            nodes = _fastest_path(net, candidates[m.id], m)
            if nodes is None or not _fits_window(net, nodes, m):
                raise InfeasibleMission(
                    f"vehicle {m.id}: no window-feasible candidate path")
        routes[m.id] = nodes
        for i in range(len(nodes) - 1):
            e = (nodes[i], nodes[i + 1])
            occupied[e] = occupied.get(e, 0) + 1
    return RouteAssignment(routes, net.time_table(), net.fuel_table())


def assignment_values(handle: RdpModelHandle,
                      assignment: RouteAssignment) -> "np.ndarray":
    """Model-space values realizing a route assignment (x, y, y', w)."""
    x = np.zeros(handle.model.num_vars)
    counts: dict[tuple, int] = {}
    for v in assignment.vehicles:
        for e in assignment.edges(v):
            x[handle.x_col[(v, e)]] = 1.0
            counts[e] = counts.get(e, 0) + 1
    for e, m in counts.items():
        x[handle.y_col[e]] = 1.0
        if m >= 2:
            x[handle.yp_col[e]] = 1.0
            x[handle.w_col[e]] = m - 1.0
    return x


def initial_solution(handle: RdpModelHandle) -> "np.ndarray":
    """Greedy incumbent for the routing MILP."""
    assignment = greedy_assignment(handle.instance, handle.costs,
                                   handle.candidates)
    return assignment_values(handle, assignment)
