"""Route-design problem: phase one of each heuristic iteration.

Builds the routing MILP over per-vehicle candidate edge sets.  On the first
iteration the objective prices every edge at its raw fuel cost minus the
presumed platooning savings; later iterations replace explored edges'
terms with the per-vehicle adjusted costs fed back from scheduling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import mip, netmodel
from .netmodel import ProblemInstance


class InfeasibleMission(Exception):
    """A vehicle's candidate edge set admits no time-feasible path."""


class NonPathSolution(Exception):
    """Rounded routing solution is not a simple origin-destination path."""


@dataclass
class EdgeCostTable:
    """Base fuel costs plus per-vehicle adjusted costs on explored edges."""
    base: dict[tuple, float]
    adjusted: dict[tuple, float] = field(default_factory=dict)  # (v, edge) ->
    explored: frozenset = frozenset()

    @classmethod
    def initial(cls, inst: ProblemInstance) -> "EdgeCostTable":
        return cls(base=inst.network.fuel_table())

    def cost(self, v: int, edge: tuple) -> float:
        if edge in self.explored:
            return self.adjusted[(v, edge)]
        return self.base[edge]

    def validate(self, sigma_f: float) -> None:
        for (v, e), c in self.adjusted.items():
            base = self.base[e]
            if not (0 < c <= base + 1e-9):
                raise ValueError(f"adjusted cost out of range for {v},{e}")
            if c < (1.0 - sigma_f) * base - 1e-9:
                raise ValueError(f"adjusted cost below follower floor for {v},{e}")


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

    @property
    def vehicles(self) -> list[int]:
        return sorted(self.routes)

    def edges(self, v: int) -> list[tuple]:
        nodes = self.routes[v]
        return [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]

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


def hull_inequalities(edge: tuple, vehicles: list[int]):
    """Rows of the per-edge routing polytope, as ``build_rdp`` emits them.

    Rows are (coeffs, sense, rhs, name) with coefficient keys ('x', v),
    'y', 'yp' and 'w'.  The 0/1 bounds of x, y and y' and w >= 0 are
    column bounds, not rows.  The last row, sum x >= y + y', is valid for
    any vehicle count (y' = 1 forces sum x >= 2 >= y + y'; otherwise
    sum x >= y by the w row) and facet-defining from three vehicles up.
    """
    vehicles = sorted(vehicles)
    sx = {("x", v): 1.0 for v in vehicles}
    rows = [(dict(sx, yp=-2.0), ">=", 0.0, f"pair_{edge}"),
            (dict({("x", v): -1.0 for v in vehicles}, w=1.0, y=1.0),
             "<=", 0.0, f"count_{edge}")]
    rows += [({("x", v): 1.0, "y": -1.0}, "<=", 0.0, f"used_{v}_{edge}")
             for v in vehicles]
    rows.append(({"yp": 1.0, "y": -1.0}, "<=", 0.0, f"pairused_{edge}"))
    rows.append((dict(sx, y=-1.0, yp=-1.0), ">=", 0.0, f"hull_{edge}"))
    return rows


def build_rdp(inst: ProblemInstance, costs: EdgeCostTable,
              iteration: int = 1) -> RdpModelHandle:
    """Assemble the routing MILP, priced from ``costs``.  The structure does
    not depend on the costs: later iterations re-price it with
    ``set_rdp_costs``."""
    net = inst.network
    cand = {m.id: netmodel.candidate_edge_set(net, m, inst.sigma_f)
            for m in inst.missions}
    for m in inst.missions:
        nodes = _fastest_path(net, cand[m.id], m)
        if nodes is None or not _fits_window(net, nodes, m):
            raise InfeasibleMission(
                f"vehicle {m.id}: no time-feasible path in its candidate set")

    edge_vehicles: dict[tuple, list[int]] = {}
    for m in inst.missions:
        for e in cand[m.id]:
            edge_vehicles.setdefault(e, []).append(m.id)
    edge_vehicles = {e: sorted(vs) for e, vs in sorted(edge_vehicles.items())}

    model = mip.LinearModel("rdp")
    x_col, y_col, yp_col, w_col = {}, {}, {}, {}
    for m in inst.missions:
        for e in sorted(cand[m.id]):
            x_col[(m.id, e)] = model.add_var(f"x_{m.id}_{e[0]}_{e[1]}",
                                             kind=mip.BINARY)
    for e in edge_vehicles:
        y_col[e] = model.add_var(f"y_{e[0]}_{e[1]}", kind=mip.BINARY)
        yp_col[e] = model.add_var(f"yp_{e[0]}_{e[1]}", kind=mip.BINARY)
        w_col[e] = model.add_var(f"w_{e[0]}_{e[1]}", lb=0.0)

    # Flow balance over each vehicle's candidate subgraph: one pass over
    # its edges fills every node's row.
    for m in inst.missions:
        flow: dict[object, dict[int, float]] = {}
        for e in cand[m.id]:
            col = x_col[(m.id, e)]
            out = flow.setdefault(e[0], {})
            out[col] = out.get(col, 0.0) + 1.0
            into = flow.setdefault(e[1], {})
            into[col] = into.get(col, 0.0) - 1.0
        for node in sorted(flow):
            rhs = 1.0 if node == m.origin else (-1.0 if node == m.dest else 0.0)
            model.add_constraint(flow[node], "==", rhs,
                                 name=f"flow_{m.id}_{node}")
        window = m.t_latest - m.t_earliest
        model.add_constraint({x_col[(m.id, e)]: net.edge(*e).time
                              for e in cand[m.id]}, "<=", window,
                             name=f"window_{m.id}")

    for e, vs in edge_vehicles.items():
        col = {("x", v): x_col[(v, e)] for v in vs}
        col.update(y=y_col[e], yp=yp_col[e], w=w_col[e])
        for coeffs, sense, rhs, name in hull_inequalities(e, vs):
            model.add_constraint({col[k]: c for k, c in coeffs.items()},
                                 sense, rhs, name=name)

    handle = RdpModelHandle(model, x_col, y_col, yp_col, w_col, cand,
                            edge_vehicles, costs, inst, iteration)
    set_rdp_costs(handle, costs, iteration)
    return handle


def set_rdp_costs(handle: RdpModelHandle, costs: EdgeCostTable,
                  iteration: int) -> None:
    """Re-price a routing model for another iteration.  Only the objective
    depends on the cost table; columns, rows and bounds stay as built, so
    the previous iteration's LP basis remains primal feasible."""
    inst = handle.instance
    base, adjusted, explored = costs.base, costs.adjusted, costs.explored
    c = np.zeros(handle.model.num_vars)
    c[list(handle.x_col.values())] = [
        adjusted[(v, e)] if e in explored else base[e]
        for v, e in handle.x_col]
    shared = [e for e in handle.edge_vehicles if e not in explored]
    fuel = np.array([base[e] for e in shared])
    c[[handle.yp_col[e] for e in shared]] = -inst.sigma_l * fuel
    c[[handle.w_col[e] for e in shared]] = -inst.sigma_f * fuel
    handle.model.set_objective(c, sense="min")
    handle.costs = costs
    handle.iteration = iteration


def extract_route_assignment(handle: RdpModelHandle,
                             sol) -> RouteAssignment:
    """Read integral x values into ordered per-vehicle paths."""
    if sol.x is None:
        raise NonPathSolution("no solution values to extract")
    net = handle.instance.network
    routes = {}
    for m in handle.instance.missions:
        chosen = [e for e in handle.candidates[m.id]
                  if sol.x[handle.x_col[(m.id, e)]] > 0.5]
        succ = {}
        for i, j in chosen:
            if i in succ:
                raise NonPathSolution(f"vehicle {m.id}: branching at node {i}")
            succ[i] = j
        nodes = [m.origin]
        while nodes[-1] != m.dest:
            nxt = succ.pop(nodes[-1], None)
            if nxt is None or nxt in nodes:
                raise NonPathSolution(f"vehicle {m.id}: edge set is not a path")
            nodes.append(nxt)
        if succ:
            raise NonPathSolution(f"vehicle {m.id}: disconnected extra edges")
        routes[m.id] = tuple(nodes)
    return RouteAssignment(routes, net.time_table(), net.fuel_table())


def presumed_objective(assignment: RouteAssignment, costs: EdgeCostTable,
                       inst: ProblemInstance) -> float:
    """Routing objective value at a given route assignment (the model's own
    estimate of total fuel, before scheduling realizes it)."""
    counts = {e: len(vs) for e, vs in assignment.vehicles_by_edge().items()}
    total = 0.0
    for v in assignment.vehicles:
        for e in assignment.edges(v):
            total += costs.cost(v, e)
    for e, m in counts.items():
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
    """Min-marginal-cost path over the candidate edges, lowest-id ties."""
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
            if e.key not in allowed or e.head in done:
                continue
            nw = w + weight_of(e.key)
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
    return _greedy_path(net, allowed, m.origin, m.dest,
                        lambda e: net.edge(*e).time)


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
        def weight(e, v=m.id):
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
