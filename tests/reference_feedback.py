"""The heuristic's cost feedback as dicts walked pair by pair: the reference
of the per-column history that ``rshm.RshmState`` keeps.

``ReferenceState.record``, ``similarity_index``, ``update_cost_table``,
``rdp_costs`` and ``presumed_objective`` compute what the program's
``record``, ``similarity_index``, ``update_cost_table``, ``set_rdp_costs``
and ``presumed_objective`` compute, one (vehicle, edge) pair at a time.
Its tables are ``ReferenceTable`` dicts keyed by (vehicle, edge).  It
copies a price from the stored table ``k + 2``, as the recurrence states
it, where the program reads the price iteration ``k + 1`` paid;
``MissingTable`` when that table is not stored."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from platoonopt import rshm


@dataclass
class ReferenceTable:
    """Base fuel per edge and the adjusted costs of explored edges."""
    base: dict
    adjusted: dict = field(default_factory=dict)
    explored: frozenset = frozenset()

    def validate(self, sigma_f: float) -> None:
        for (v, e), c in self.adjusted.items():
            if not 0 < c <= self.base[e] + 1e-9:
                raise ValueError(f"adjusted cost out of range for {v},{e}")
            if c < (1.0 - sigma_f) * self.base[e] - 1e-9:
                raise ValueError(
                    f"adjusted cost below follower floor for {v},{e}")


class MissingTable(Exception):
    """A price is copied from a table the state does not hold."""


def platoon_sets(platoons, edge) -> set:
    """The vehicle sets of the platoons on ``edge``."""
    return {frozenset((leader, *followers))
            for leader, followers in platoons.platoons.get(edge, [])}


def platoon_size(platoons, v, edge) -> int:
    """The size of vehicle ``v``'s platoon on ``edge``; 1 when alone."""
    for leader, followers in platoons.platoons.get(edge, []):
        if v == leader or v in followers:
            return 1 + len(followers)
    return 1


class ReferenceState:
    """Per iteration: each vehicle's route edges and the platoon
    configuration (a frozenset of vehicle sets) on each scheduled edge;
    per (vehicle, edge): the iterations routing the vehicle over the edge,
    ascending."""

    def __init__(self, inst, candidates: dict[int, set]):
        self.instance = inst
        self.params = rshm.SavingsParams.from_instance(inst)
        self.candidates = candidates
        self.records: dict[int, rshm.IterationRecord] = {}
        self.tables: dict[int, ReferenceTable] = {
            1: ReferenceTable(dict(inst.network.fuel_table()))}
        self.explored: set = set()
        self.route_edges: dict[int, dict[int, frozenset]] = {}
        self.platoon_sets: dict[int, dict[tuple, frozenset]] = {}
        self.routed: dict[tuple, list[int]] = {}

    def record(self, rec) -> None:
        self.records[rec.index] = rec
        self.explored |= rec.routes.all_edges()
        self.route_edges[rec.index] = {v: frozenset(rec.routes.edges(v))
                                       for v in rec.routes.routes}
        for v, edges in self.route_edges[rec.index].items():
            for e in edges:
                self.routed.setdefault((v, e), []).append(rec.index)
        self.platoon_sets[rec.index] = {
            e: frozenset(platoon_sets(rec.platoons, e))
            for e in rec.platoons.platoons}


_NO_PLATOONS = frozenset()


def c_plat(size: int, cost: float, params) -> float:
    """Total fuel a platoon of the given size burns on one edge."""
    if size <= 1:
        return size * cost
    return (1 - params.sigma_l) * cost + (1 - params.sigma_f) * (size - 1) * cost


def similarity_index(state: ReferenceState, n: int, v: int, edge):
    if n < 3 or n not in state.records:
        return None
    target = state.platoon_sets[n].get(edge, _NO_PLATOONS)
    for j in reversed(state.routed.get((v, edge), ())):
        k = j - 1
        if k > n - 2:
            continue
        if k < 1:
            break
        if state.platoon_sets[k].get(edge, _NO_PLATOONS) == target:
            return k
    return None


def update_cost_table(state: ReferenceState, n: int) -> ReferenceTable:
    rec = state.records[n]
    params = state.params
    base = state.tables[1].base
    explored = frozenset(state.explored)
    adjusted: dict[tuple, float] = {}
    vehicles = [m.id for m in state.instance.missions]
    on_route = state.route_edges[n]
    for e in sorted(explored):
        cost = base[e]
        for v in vehicles:
            if e not in state.candidates[v]:
                continue
            if e in on_route[v]:
                size = platoon_size(rec.platoons, v, e)
                adjusted[(v, e)] = c_plat(size, cost, params) / size
            else:
                k = similarity_index(state, n, v, e)
                if k is None:
                    adjusted[(v, e)] = (1 - params.sigma_f) * cost
                else:
                    src = state.tables.get(k + 2)
                    if src is None or (v, e) not in src.adjusted:
                        raise MissingTable(
                            f"no stored cost for vehicle {v}, edge {e}, "
                            f"iteration {k + 2}")
                    adjusted[(v, e)] = src.adjusted[(v, e)]
    table = ReferenceTable(base, adjusted, explored)
    table.validate(params.sigma_f)
    return table


def rdp_costs(handle, costs: ReferenceTable) -> np.ndarray:
    """The routing model's cost vector under ``costs``."""
    inst = handle.instance
    base, adjusted, explored = costs.base, costs.adjusted, costs.explored
    c = np.zeros(handle.model.num_vars)
    c[list(handle.x_col.values())] = [
        adjusted[(v, e)] if e in explored else base[e]
        for v, e in handle.x_col]
    # the savings of the unexplored edges two or more vehicles can take
    shared = [e for e, vs in handle.edge_vehicles.items()
              if len(vs) >= 2 and e not in explored]
    fuel = np.array([base[e] for e in shared])
    c[[handle.yp_col[e] for e in shared]] = -inst.sigma_l * fuel
    c[[handle.w_col[e] for e in shared]] = -inst.sigma_f * fuel
    return c + 0.0


def presumed_objective(assignment, costs: ReferenceTable, inst) -> float:
    counts = {e: len(vs) for e, vs in assignment.vehicles_by_edge().items()}
    total = 0.0
    for v in assignment.vehicles:
        for e in assignment.edges(v):
            total += (costs.adjusted[(v, e)] if e in costs.explored
                      else costs.base[e])
    for e, m in counts.items():
        if e not in costs.explored and m >= 2:
            c = costs.base[e]
            total -= inst.sigma_l * c + inst.sigma_f * (m - 1) * c
    return total
