"""Route-design problem: phase one of each heuristic iteration.

Builds the routing MILP over per-vehicle candidate edge sets.  Its x
columns are the (vehicle, candidate edge) pairs of ``CandidatePairs``, the
one index of the cost feedback: an ``EdgeCostTable`` holds a price per
pair.  On the first iteration every pair costs its edge's fuel and the
objective subtracts the presumed platooning savings; later iterations
price the pairs on explored edges at the adjusted costs fed back from
scheduling, and drop those edges' savings terms.

The platoon columns of an edge (y: the edge is used, y': two or more
vehicles use it, w: its number of followers) and its per-edge rows exist
only for an unexplored shared candidate edge, one in the candidate sets of
two or more vehicles that no cost table has marked explored yet.  On an
edge that only one vehicle can take, those rows fix y = x, y' = 0 and
w = 0 even in the LP relaxation, and y costs nothing, so ``build_rdp``
leaves them out.  On an explored edge y' and w cost nothing either, and
(y, y', w) = (max x, 0, 0) satisfies the edge's rows for every x in
[0, 1], integral when x is, so ``retire_explored`` deletes them once a
table marks the edge explored.  Either way the feasible x set and the
objective on it stay those of the full model, for the MILP and for its
relaxation alike.
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
    """The routing objective's price of each pair of ``pairs`` (a
    ``CandidatePairs``; price ``j`` is x column ``j``'s) and the explored
    edges, ``explored``, a mask over ``pairs.edges`` (none when omitted).
    A pair on an explored edge costs ``prices[j]``, its adjusted cost, any
    other its edge's fuel.  ``adjusted`` lists the adjusted costs by
    (vehicle, edge), edge by edge."""

    def __init__(self, pairs: "CandidatePairs", prices,
                 explored: np.ndarray | None = None):
        self.pairs = pairs
        self.explored = np.zeros(len(pairs.edges), dtype=bool) \
            if explored is None else explored
        on = self.explored[pairs.edge]
        self.prices = np.where(on, prices, pairs.fuel)
        self._order = pairs.by_edge[on[pairs.by_edge]]
        self._adjusted = None

    @classmethod
    def initial(cls, pairs: "CandidatePairs") -> "EdgeCostTable":
        """Iteration 1's table: every pair at its fuel, nothing explored."""
        return cls(pairs, pairs.fuel)

    @property
    def adjusted(self) -> dict:
        if self._adjusted is None:
            keys = self.pairs.keys
            self._adjusted = dict(zip([keys[j] for j in self._order.tolist()],
                                      self.prices[self._order].tolist()))
        return self._adjusted

    def cost(self, v: int, edge: tuple) -> float:
        return float(self.prices[self.pairs.index[(v, edge)]])

    def validate(self, sigma_f: float) -> None:
        """``ValueError`` naming the first adjusted cost outside
        ``[(1 - sigma_f) * base, base]``, with 1e-9 slack, or not positive."""
        c, base = self.prices[self._order], self.pairs.fuel[self._order]
        out = ~((0 < c) & (c <= base + 1e-9))
        bad = out | (c < (1.0 - sigma_f) * base - 1e-9)
        if bad.any():
            i = int(np.argmax(bad))
            v, e = self.pairs.keys[self._order[i]]
            raise ValueError(f"adjusted cost out of range for {v},{e}" if out[i]
                             else f"adjusted cost below follower floor for {v},{e}")


class CandidatePairs:
    """The (vehicle, candidate edge) pairs of a routing model in the order
    of its x columns: vehicle by vehicle as in ``inst.missions`` (one that
    ``candidates`` lacks has none), each one's candidate edges in key order.
    Pair ``j`` is ``keys[j]``, on ``edges[edge[j]]`` of fuel ``fuel[j]``;
    ``edges`` are the candidate edges in key order, of fuel ``edge_fuel``;
    ``shared`` marks those in two or more vehicles' sets; ``by_edge``
    lists the pairs edge by edge."""

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
        self.shared = np.bincount(self.edge, minlength=len(self.edges)) >= 2
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

    def __eq__(self, other):
        return isinstance(other, RouteAssignment) and self.routes == other.routes

    def __hash__(self):
        return hash(frozenset(self.routes.items()))


@dataclass
class RdpModelHandle:
    model: mip.LinearModel
    x_col: dict[tuple, int]          # (v, edge) -> column
    y_col: dict[tuple, int]          # shared candidate edge -> column
    yp_col: dict[tuple, int]
    w_col: dict[tuple, int]
    candidates: dict[int, set]
    edge_vehicles: dict[tuple, list[int]]   # every candidate edge
    instance: ProblemInstance
    pairs: CandidatePairs                # the x columns' pairs
    # the candidate edges with platoon columns, a mask over pairs.edges;
    # the i-th of them has y = n + 3 i (n x columns), y' and w next
    platoon: np.ndarray


@functools.lru_cache(maxsize=None)
def _hull_rows(k: int):
    """The rows of the per-edge routing polytope of an edge in the
    candidate sets of ``k >= 2`` vehicles (``build_rdp`` gives an edge of
    one vehicle none), over local columns: ``0 .. k-1`` the vehicles' x in
    ascending id order, then ``k`` for y, ``k+1`` for y' and ``k+2`` for
    w.  Returns ``(row lengths, columns, coefficients,
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


def build_rdp(inst: ProblemInstance) -> RdpModelHandle:
    """Assemble the routing MILP, priced at the first iteration's table
    (``EdgeCostTable.initial``).  The structure does not depend on the
    costs: later iterations re-price it with ``set_rdp_costs``.

    Columns: each vehicle's x over its candidate edges in key order,
    vehicle by vehicle, then y, y' and w of each shared candidate edge
    (one in two or more vehicles' sets) in key order.  Rows: each
    vehicle's flow balance at every node of its candidate edges (by node
    id; each row's entries in the iteration order of the candidate set)
    and then its time window; then the rows of ``_hull_rows`` shared edge
    by shared edge in key order, each named ``{tag}_{edge}`` or, for a
    ``used`` row, ``{tag}_{vehicle}_{edge}``.

    An edge in one vehicle's set gets neither columns nor rows: there its
    rows would read y >= x (``used``) and y + y' <= x (``hull``), so
    y = x and y' = 0, and then w <= x - y = 0 (``count``), in the LP
    relaxation too.  Those columns would add nothing to the objective (y
    costs 0), so the model without them has the same feasible x set, the
    same objective on it and the same LP bound."""
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
    shared = [e for e, s in zip(pairs.edges, pairs.shared.tolist()) if s]
    y = n + 3 * np.arange(len(shared))      # then y' = y + 1, w = y + 2
    names = [f"x_{v}_{t}_{h}" for v, (t, h) in pairs.keys]
    for t, h in shared:
        names += [f"y_{t}_{h}", f"yp_{t}_{h}", f"w_{t}_{h}"]

    model = mip.LinearModel("rdp")
    model.add_vars(names, 0.0, np.inf, np.concatenate([
        np.full(n, mip.BINARY_CODE),
        np.tile([mip.BINARY_CODE, mip.BINARY_CODE, mip.CONTINUOUS_CODE],
                len(shared))]))
    _add_flow_rows(model, arrays, missions, edge, veh, x)
    vs = vid[by_edge].tolist()
    on = np.repeat(pairs.shared, k)         # the entries on shared edges
    _add_hull_rows(model, [str(e) for e in shared], k[pairs.shared],
                   x[by_edge][on], vid[by_edge][on].tolist(), y)

    y_col = dict(zip(shared, y.tolist()))
    handle = RdpModelHandle(
        model, pairs.index, y_col, {e: j + 1 for e, j in y_col.items()},
        {e: j + 2 for e, j in y_col.items()}, cand,
        {e: vs[s:s + c] for e, s, c in zip(pairs.edges, first.tolist(),
                                           k.tolist())},
        inst, pairs, pairs.shared.copy())
    set_rdp_costs(handle, EdgeCostTable.initial(pairs))
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
    """The rows of ``_hull_rows`` of each edge of ``edges`` (keys
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


def set_rdp_costs(handle: RdpModelHandle, costs: EdgeCostTable) -> None:
    """Re-price a routing model at a table over its pairs: the x columns
    at the table's prices, y' and w of each edge with platoon columns that
    the table's mask leaves unexplored at the presumed leader and follower
    savings.  Only the objective depends on the cost table; columns, rows
    and bounds stay as they are, so the previous iteration's LP basis
    remains primal feasible.
    ``ValueError`` for a table over other pairs, or one that leaves a
    shared edge unexplored after ``retire_explored`` deleted its savings
    columns, naming the edge."""
    inst, pairs = handle.instance, handle.pairs
    if costs.pairs is not pairs and costs.pairs.keys != pairs.keys:
        raise ValueError("cost table is not over the model's x columns")
    lost = pairs.shared & ~handle.platoon & ~costs.explored
    if lost.any():
        raise ValueError(f"edge {pairs.edges[int(np.argmax(lost))]} is "
                         "unexplored, but its savings columns were retired")
    n = len(pairs.keys)
    c = np.zeros(handle.model.num_vars)
    c[:n] = costs.prices
    fuel = np.where(costs.explored, 0.0, pairs.edge_fuel)[handle.platoon]
    c[n + 1::3] = -inst.sigma_l * fuel
    c[n + 2::3] = -inst.sigma_f * fuel
    handle.model.set_objective(c, sense="min")


def retire_explored(handle: RdpModelHandle,
                    costs: EdgeCostTable) -> np.ndarray | None:
    """Delete the platoon columns and per-edge rows of the edges with
    them that ``costs`` marks explored, from the model and from its HiGHS
    instance, which keeps its basis (``mip.LinearModel.without``); the
    handle gets the smaller model and the column maps of the edges left.
    Neither the LP bound nor the optimum changes (see the module
    docstring).  Returns the old model's kept columns as a mask, or None,
    leaving the model as it is, when no such edge is explored."""
    drop = handle.platoon & costs.explored
    if not drop.any():
        return None
    pairs, model = handle.pairs, handle.model
    n = len(pairs.keys)
    gone = drop[handle.platoon]         # the edges with columns, in order
    size = np.bincount(pairs.edge, minlength=len(pairs.edges))[
        handle.platoon] + 4             # per-edge rows: k + 4, the last rows
    first = model.num_constraints - size.sum() + np.cumsum(size) - size
    ptr = mip.row_pointers(size[gone])
    rows = np.repeat(first[gone] - ptr[:-1], size[gone]) + np.arange(ptr[-1])
    cols = (n + 3 * np.flatnonzero(gone)[:, None] + np.arange(3)).ravel()
    keep = np.ones(model.num_vars, dtype=bool)
    keep[cols] = False
    handle.model = model.without(cols, rows)
    handle.platoon = handle.platoon & ~drop
    edges = [pairs.edges[g] for g in np.flatnonzero(handle.platoon).tolist()]
    handle.y_col, handle.yp_col, handle.w_col = (
        dict(zip(edges, range(n + d, n + d + 3 * len(edges), 3)))
        for d in range(3))
    return keep


def extract_route_assignment(handle: RdpModelHandle,
                             sol) -> RouteAssignment:
    """Read integral x values into ordered per-vehicle paths."""
    if sol.x is None:
        raise NonPathSolution("no solution values to extract")
    net, keys = handle.instance.network, handle.pairs.keys
    succ = {m.id: {} for m in handle.instance.missions}
    for j in np.flatnonzero(sol.x[:len(keys)] > 0.5).tolist():
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
    costs added one by one, vehicle by vehicle along each route, less the
    presumed savings of each edge two or more routes share that the
    table's mask leaves unexplored."""
    keys = [(v, e) for v in assignment.vehicles for e in assignment.edges(v)]
    index, fuel = costs.pairs.index, inst.network.fuel_table()
    total = float(np.cumsum(costs.prices[[index[k] for k in keys]])[-1]) \
        if keys else 0.0
    for e, m in Counter(e for _v, e in keys).items():
        if m >= 2 and not costs.explored[costs.pairs.edge_index[e]]:
            c = fuel[e]
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


def greedy_assignment(inst: ProblemInstance,
                      candidates: dict[int, set]) -> RouteAssignment:
    """Sequential marginal-cost routing used to seed the MILP incumbent.

    Vehicles are routed in id order, each edge priced at its fuel; an edge
    already carrying traffic is priced at its presumed follower cost.
    Falls back to the fuel-shortest path when the greedy path breaks the
    mission time window.
    """
    net = inst.network
    occupied: dict[tuple, int] = {}
    routes: dict[int, tuple] = {}

    def weight(edge):
        k = occupied.get(edge.key, 0)
        if k == 0:
            return edge.fuel
        w = (1 - inst.sigma_f) * edge.fuel
        if k == 1:
            w -= inst.sigma_l * edge.fuel
        return max(w, 1e-12)

    for m in inst.missions:
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
    """Model-space values realizing a route assignment (x, y, y', w).  An
    edge without platoon columns gets none: one that only one vehicle can
    take, or an explored one whose columns ``retire_explored`` deleted,
    which any number of vehicles may share."""
    x = np.zeros(handle.model.num_vars)
    counts: dict[tuple, int] = {}
    for v in assignment.vehicles:
        for e in assignment.edges(v):
            x[handle.x_col[(v, e)]] = 1.0
            counts[e] = counts.get(e, 0) + 1
    for e, m in counts.items():
        if e not in handle.y_col:
            continue
        x[handle.y_col[e]] = 1.0
        if m >= 2:
            x[handle.yp_col[e]] = 1.0
            x[handle.w_col[e]] = m - 1.0
    return x


def initial_solution(handle: RdpModelHandle) -> "np.ndarray":
    """Greedy incumbent for the routing MILP."""
    assignment = greedy_assignment(handle.instance, handle.candidates)
    return assignment_values(handle, assignment)
