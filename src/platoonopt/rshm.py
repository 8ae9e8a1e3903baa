"""Repeated route-then-schedule heuristic.

Each iteration routes all vehicles under presumed platooning economics,
schedules the resulting routes exactly, and feeds the realized platoon
sizes back into the next routing objective: edges a vehicle just used are
re-priced at the platoon-averaged cost, other explored edges at the most
optimistic follower cost, unless an earlier iteration already realized the
same platoon configuration there (in which case its price is reused).

Work that does not change between iterations is done once per run: the
routing model is built at iteration 1 and only re-priced afterwards, the
cost table prices only (vehicle, edge) pairs that some routing column reads,
and a scheduling component (see ``scheduling.components``) already solved
to optimality is not solved again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import mip, netmodel, routing, scheduling
from .routing import EdgeCostTable, RouteAssignment
from .scheduling import PlatoonConfiguration
from .simplex import NumericalFailure


class SubproblemFailure(Exception):
    """A routing or scheduling solve failed inside the loop."""


class MissingHistory(Exception):
    """Recurrence referenced an unstored cost table (internal bug signal)."""


class NotApplicableError(Exception):
    """Gap bound hypotheses not met by this run."""


@dataclass(frozen=True)
class SavingsParams:
    sigma_l: float
    sigma_f: float
    max_platoon: int

    @classmethod
    def from_instance(cls, inst) -> "SavingsParams":
        return cls(inst.sigma_l, inst.sigma_f, inst.max_platoon)


def c_plat(size: int, cost: float, params: SavingsParams) -> float:
    """Total fuel a platoon of the given size burns on one edge."""
    if size <= 1:
        return size * cost
    return (1 - params.sigma_l) * cost + (1 - params.sigma_f) * (size - 1) * cost


@dataclass
class IterationRecord:
    index: int
    routes: RouteAssignment
    platoons: PlatoonConfiguration      # on original edges
    z: float
    presumed: float
    runtime_s: float


class RshmState:
    """Everything the feedback recurrence and diagnostics need to look back at."""

    def __init__(self, inst, candidates: dict[int, set]):
        self.instance = inst
        self.params = SavingsParams.from_instance(inst)
        # each vehicle's candidate edge set: the routing model's columns,
        # hence the only (vehicle, edge) pairs a cost table must price
        self.candidates = candidates
        self.records: dict[int, IterationRecord] = {}
        self.tables: dict[int, EdgeCostTable] = {1: EdgeCostTable.initial(inst)}
        self.explored: set = set()
        # per iteration: each vehicle's route edges, and the platoon
        # configuration (a frozenset of vehicle sets) on each edge it
        # scheduled; per (vehicle, edge): the iterations routing the vehicle
        # over the edge, ascending
        self.route_edges: dict[int, dict[int, frozenset]] = {}
        self.platoon_sets: dict[int, dict[tuple, frozenset]] = {}
        self.routed: dict[tuple, list[int]] = {}
        self.routes_freq: dict[str, int] = {}
        self.best_z = float("inf")
        self.best: IterationRecord | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def record(self, rec: IterationRecord) -> None:
        """Store iteration ``rec.index``; iterations arrive in order."""
        self.records[rec.index] = rec
        self.explored |= rec.routes.all_edges()
        self.route_edges[rec.index] = {v: frozenset(rec.routes.edges(v))
                                       for v in rec.routes.routes}
        for v, edges in self.route_edges[rec.index].items():
            for e in edges:
                self.routed.setdefault((v, e), []).append(rec.index)
        self.platoon_sets[rec.index] = {
            e: frozenset(rec.platoons.platoon_sets(e))
            for e in rec.platoons.platoons}
        key = rec.routes.key()
        self.routes_freq[key] = self.routes_freq.get(key, 0) + 1
        if rec.z < self.best_z:
            self.best_z = rec.z
            self.best = rec

    def max_freq(self) -> int:
        return max(self.routes_freq.values(), default=0)


_NO_PLATOONS = frozenset()


def similarity_index(state: RshmState, n: int, v: int, edge) -> int | None:
    """Largest earlier iteration whose platoon configuration on ``edge``
    matches iteration ``n``'s, with ``v`` assigned to the edge right after.
    None below iteration 3 or when no iteration qualifies; an iteration
    whose successor does not route ``v`` at all never qualifies.  Only the
    iterations after one that routed ``v`` over ``edge`` are compared."""
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


def update_cost_table(state: RshmState, n: int) -> EdgeCostTable:
    """Adjusted costs feeding the next routing objective.

    Explored edges a vehicle just traversed get the platoon-averaged cost;
    other explored edges get the optimistic follower cost, or a price copied
    from the iteration after the last configuration-similar one.  Only the
    explored edges of each vehicle's candidate set are priced: no other
    pair is read by the routing model, its greedy seed or
    ``routing.presumed_objective``.
    """
    rec = state.records[n]
    params = state.params
    base = state.tables[1].base
    explored = frozenset(state.explored)
    adjusted: dict[tuple, float] = {}
    vehicles = [m.id for m in state.instance.missions]
    candidates = state.candidates
    on_route = state.route_edges[n]
    for e in sorted(explored):
        cost = base[e]
        for v in vehicles:
            if e not in candidates[v]:
                continue
            if e in on_route[v]:
                size = rec.platoons.size(v, e)
                adjusted[(v, e)] = c_plat(size, cost, params) / size
            else:
                k = similarity_index(state, n, v, e)
                if k is None:
                    adjusted[(v, e)] = (1 - params.sigma_f) * cost
                else:
                    src = state.tables.get(k + 2)
                    if src is None or (v, e) not in src.adjusted:
                        raise MissingHistory(
                            f"no stored cost for vehicle {v}, edge {e}, "
                            f"iteration {k + 2}")
                    adjusted[(v, e)] = src.adjusted[(v, e)]
    table = EdgeCostTable(base=base, adjusted=adjusted, explored=explored)
    table.validate(params.sigma_f)
    return table


@dataclass
class RshmOptions:
    freq_threshold: int = 3
    per_solve_time_s: float = 600.0
    total_time_s: float = 3600.0
    iter_cap: int | None = None
    sp_cuts: str = scheduling.DEFAULT_CUT_MODE   # a key of scheduling.CUT_MODES
    rel_gap: float = 1e-4


@dataclass
class RshmResult:
    """Best realized solution of a run, with its trace and stop reason.

    A run that completes no iteration (an ``iter_cap`` of 0, or a time
    budget spent before iteration 1) returns the no-coordination baseline:
    see ``no_coordination``.  Its ``trace`` is empty and ``iterations`` 0.
    """
    routes: RouteAssignment
    platoons: PlatoonConfiguration
    departures: dict[int, float]
    z_hat: float
    trace: list[dict]
    termination: str           # repeat_consecutive | freq_threshold |
    iterations: int            # time_limit | iter_cap
    state: RshmState = field(repr=False, default=None)
    _baseline: float | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def fuel_baseline(self) -> float:
        """Fuel of the fuel-shortest paths, computed at the first call."""
        if self._baseline is None:
            inst = self.state.instance
            self._baseline = routing.shortest_path_assignment(
                inst).total_cost()
        return self._baseline

    def saving_rate(self) -> float:
        base = self.fuel_baseline()
        return (base - self.z_hat) / base if base else 0.0


def no_coordination(inst) -> tuple[RouteAssignment, PlatoonConfiguration]:
    """Every vehicle alone on its fuel-shortest path, leaving at its
    earliest time.  A vehicle whose fuel-shortest path misses its time
    window takes its time-shortest path, which ``validate`` guarantees fits.
    """
    baseline = routing.shortest_path_assignment(inst)
    paths = dict(baseline.routes)
    for m in inst.missions:
        travel = sum(baseline.edge_times[e] for e in baseline.edges(m.id))
        if travel > m.t_latest - m.t_earliest + 1e-9:
            paths[m.id] = netmodel.shortest_path(
                inst.network, m.origin, m.dest, "time").nodes
    routes = RouteAssignment(paths, baseline.edge_times, baseline.edge_costs)
    platoons = {e: [(v, ()) for v in vs]
                for e, vs in routes.vehicles_by_edge().items()}
    departures = {m.id: m.t_earliest for m in inst.missions}
    return routes, PlatoonConfiguration(platoons, departures)


def run(inst, opts: RshmOptions | None = None) -> RshmResult:
    """Alternate routing and scheduling until a route assignment repeats
    consecutively, some assignment has been seen ``freq_threshold`` times,
    or a limit is hit.  Returns the best realized solution; when the limit
    stops the loop before any iteration completes, that is the
    ``no_coordination`` baseline with ``iterations == 0``.

    The routing model is built once, at iteration 1, and seeded with the
    greedy assignment.  Each later iteration re-prices it, warm-starts its
    root LP from the previous root basis and seeds it with the previous
    optimum, which stays feasible because only the objective changed.
    Scheduling solves only the components no earlier iteration solved to
    optimality (see ``scheduling.solve_schedule``), and gives the schedule
    a solve of the whole assignment gives.  Each solve gets
    ``per_solve_time_s`` or the time left of ``total_time_s``, whichever is
    less; a solve cut short keeps its incumbent (every solve has one), and
    the loop then stops on the time budget."""
    opts = opts or RshmOptions()
    inst.validate()
    scheduling.cut_mode(opts.sp_cuts)   # an unknown mode fails here
    state = RshmState(inst, candidates={})   # the routing model's, once built
    params = state.params
    fuel = inst.network.fuel_table()
    t_start = time.perf_counter()

    def time_limit() -> float:
        left = opts.total_time_s - (time.perf_counter() - t_start)
        return max(0.0, min(opts.per_solve_time_s, left))

    trace = []
    termination = None
    n = 1
    prev_routes = None
    handle = None
    rdp_sol = None
    solved: dict = {}   # scheduling components solved to optimality
    while True:
        if opts.iter_cap is not None and n > opts.iter_cap:
            termination = "iter_cap"
            break
        if time.perf_counter() - t_start >= opts.total_time_s:
            termination = "time_limit"
            break
        t_iter = time.perf_counter()
        costs = state.tables[n]
        try:
            if handle is None:
                handle = routing.build_rdp(inst, costs, iteration=n)
                state.candidates = handle.candidates
                seed, root_start = routing.initial_solution(handle), None
            else:
                routing.set_rdp_costs(handle, costs, n)
                seed, root_start = rdp_sol.x, rdp_sol.root_basis
            rdp_sol = mip.solve_mip(handle.model, rel_gap=opts.rel_gap,
                                    time_limit_s=time_limit(),
                                    initial_solution=seed,
                                    root_start=root_start)
            if rdp_sol.status not in ("optimal", "feasible"):
                raise SubproblemFailure(f"routing solve ended {rdp_sol.status}")
            routes = routing.extract_route_assignment(handle, rdp_sol)
            platoons = scheduling.solve_schedule(
                routes, inst, opts.sp_cuts, rel_gap=opts.rel_gap,
                time_limit_s=time_limit(), solved=solved).platoons
        except (mip.ModelError, NumericalFailure) as exc:
            raise SubproblemFailure(f"iteration {n}: {exc}") from exc
        z = scheduling.total_fuel(routes, platoons, fuel, params)
        presumed = routing.presumed_objective(routes, costs, inst)
        runtime = time.perf_counter() - t_iter
        rec = IterationRecord(n, routes, platoons, z, presumed, runtime)
        state.record(rec)
        trace.append({"iteration": n, "z": z, "presumed": presumed,
                      "runtime_s": runtime})
        state.tables[n + 1] = update_cost_table(state, n)
        if prev_routes is not None and routes == prev_routes:
            termination = "repeat_consecutive"
            break
        if state.max_freq() >= opts.freq_threshold:
            termination = "freq_threshold"
            break
        prev_routes = routes
        n += 1
    if state.best is None:
        routes, platoons = no_coordination(inst)
        return RshmResult(routes, platoons, platoons.departures,
                          routes.total_cost(), trace, termination, 0, state)
    best = state.best
    return RshmResult(best.routes, best.platoons, best.platoons.departures,
                      state.best_z, trace, termination, state.iterations,
                      state)


def gap_bound(state: RshmState) -> float:
    """A-posteriori optimality gap bound, valid only when the run ended with
    a repeated assignment and no configuration similarity anywhere."""
    n = state.iterations
    if n < 2:
        raise NotApplicableError("needs at least two iterations")
    last, prev = state.records[n], state.records[n - 1]
    if last.routes != prev.routes:
        raise NotApplicableError("final iteration did not repeat its routes")
    vehicles = [m.id for m in state.instance.missions]
    for e in sorted(state.explored):
        for v in vehicles:
            if similarity_index(state, n - 1, v, e) is not None:
                raise NotApplicableError(
                    f"configuration similarity at edge {e}, vehicle {v}")
    params = state.params
    base = state.tables[1].base
    bound = 0.0
    for e in sorted(last.routes.all_edges()):
        for leader, followers in last.platoons.platoons.get(e, []):
            size = 1 + len(followers)
            term = (1 - size / params.max_platoon) * (params.sigma_f - params.sigma_l)
            if size == 1:
                term += params.sigma_l
            bound += term * base[e]
    return bound
