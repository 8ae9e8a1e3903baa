"""Repeated route-then-schedule heuristic.

Each iteration routes all vehicles under presumed platooning economics,
schedules the resulting routes exactly, and feeds the realized platoon
sizes back into the next routing objective: edges a vehicle just used are
re-priced at the platoon-averaged cost, other explored edges at the most
optimistic follower cost, unless an earlier iteration already realized the
same platoon configuration there (in which case its price is reused).

The feedback has one encoding, over the routing model's x columns: the
(vehicle, candidate edge) pairs of its ``routing.CandidatePairs``.
``RshmState`` keeps each iteration's history as arrays over those pairs,
and a cost table is a price per pair, priced in one array pass and written
into the model in one slice.  Work that does not change between
iterations is done once per run: the routing model is built once, at
iteration 1, and re-priced and shrunk afterwards (the platoon columns and
rows of explored edges are deleted: ``routing.retire_explored``), and a
scheduling component (see ``scheduling.components``) already solved to
optimality is neither modelled nor solved again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

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


def c_plat(size, cost, params: SavingsParams):
    """Total fuel a platoon of the given size burns on one edge; elementwise
    on arrays."""
    shared = (1 - params.sigma_l) * cost + (1 - params.sigma_f) * (size - 1) * cost
    return np.where(size <= 1, size * cost, shared)[()]


@dataclass
class IterationRecord:
    index: int
    routes: RouteAssignment
    platoons: PlatoonConfiguration      # on original edges
    z: float
    presumed: float
    runtime_s: float


class RshmState:
    """Everything the feedback recurrence and diagnostics need to look back
    at, as arrays over ``pairs`` (``routing.CandidatePairs``), pair ``j``
    being the routing model's x column ``j``: the only (vehicle, edge)
    pairs a cost table prices.  Per iteration ``n``: the pairs it routes
    (``routed[n]``), their platoon sizes (``size[n]``), and an id of its
    platoon configuration on each candidate edge (``conf[n]``; equal sets
    of vehicle sets get equal ids, none gets 0).  ``similar[k, j]`` is
    ``conf[k]`` on pair ``j``'s edge if iteration ``k + 1`` routes the
    pair, else -1.  ``tables[n]`` prices iteration ``n``'s routing model
    over ``pairs``; ``routes_freq`` counts each route assignment seen."""

    def __init__(self, inst, pairs: routing.CandidatePairs):
        self.instance = inst
        self.params = SavingsParams.from_instance(inst)
        self.pairs = pairs
        self.records: dict[int, IterationRecord] = {}
        self.tables: dict[int, EdgeCostTable] = {
            1: EdgeCostTable.initial(pairs)}
        self.explored: set = set()
        self.routed, self.size, self.conf = {}, {}, {}
        self._conf_ids, self._conf_of = {frozenset(): 0}, {}
        self.similar = np.full((1, len(pairs.keys)), -1, dtype=np.int32)
        self.routes_freq: dict[RouteAssignment, int] = {}
        self.best_z = float("inf")
        self.best: IterationRecord | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def record(self, rec: IterationRecord) -> None:
        """Store iteration ``rec.index``; iterations arrive in order from 1.
        The routed pairs are the pairs of ``pairs`` the routes drive."""
        n, pairs = rec.index, self.pairs
        self.records[n] = rec
        self.explored |= rec.routes.all_edges()
        keys = [(v, e) for v in rec.routes.routes for e in rec.routes.edges(v)]
        routed = np.zeros(len(pairs.keys), dtype=bool)
        routed[[j for j in map(pairs.index.get, keys) if j is not None]] = True
        platoons = [(e, plist) for e, plist in rec.platoons.platoons.items()
                    if e in pairs.edge_index]
        conf = np.zeros(len(pairs.edges), dtype=np.int32)
        conf[[pairs.edge_index[e] for e, _ in platoons]] = [
            self._conf_id(plist) for _, plist in platoons]
        size = np.ones(len(pairs.keys), dtype=np.int32)
        for e, plist in platoons:
            for leader, followers in plist:
                if followers:
                    size[[pairs.index[(v, e)] for v in (leader, *followers)
                          if (v, e) in pairs.index]] = 1 + len(followers)
        self.routed[n], self.size[n], self.conf[n] = routed, size, conf
        if n > 1:
            self.similar = np.vstack([self.similar, np.where(
                routed, self.conf[n - 1][pairs.edge], -1)])
        self.routes_freq[rec.routes] = self.routes_freq.get(rec.routes, 0) + 1
        if rec.z < self.best_z:
            self.best_z = rec.z
            self.best = rec

    def _conf_id(self, plist: list) -> int:
        """The id of a platoon list's configuration: its set of vehicle
        sets, whatever the leaders and the order."""
        key = tuple(plist)
        if key not in self._conf_of:
            sets = frozenset(frozenset((leader, *followers))
                             for leader, followers in plist)
            self._conf_of[key] = self._conf_ids.setdefault(
                sets, len(self._conf_ids))
        return self._conf_of[key]

    def max_freq(self) -> int:
        return max(self.routes_freq.values(), default=0)


def _similar(state: RshmState, n: int, j=slice(None)) -> np.ndarray:
    """For each pair of ``j``, the newest iteration ``k <= n - 2`` whose
    platoon configuration on the pair's edge is iteration ``n``'s and after
    which iteration ``k + 1`` routes the pair; 0 where there is none."""
    match = state.similar[1:n - 1, j] == state.conf[n][state.pairs.edge[j]]
    return (match * np.arange(1, n - 1)[:, None]).max(0, initial=0)


def similarity_index(state: RshmState, n: int, v: int, edge) -> int | None:
    """Largest earlier iteration whose platoon configuration on ``edge``
    matches iteration ``n``'s, with ``v`` assigned to the edge right after.
    None below iteration 3, when no iteration qualifies, past the last
    iteration and for a pair outside ``state.pairs``."""
    j = state.pairs.index.get((v, edge))
    if n < 3 or n not in state.records or j is None:
        return None
    return int(_similar(state, n, [j])[0]) or None


def update_cost_table(state: RshmState, n: int) -> EdgeCostTable:
    """Adjusted costs feeding the next routing objective, priced in one
    pass over ``state.pairs``.

    A pair iteration ``n`` routes gets its platoon-averaged cost; any other
    the price table ``k + 2`` gave it, ``k`` its ``similarity_index``, or
    else the optimistic follower cost.  Only pairs on explored edges are
    read: by the routing model, its greedy seed and
    ``routing.presumed_objective``.  ``MissingHistory`` when the table a
    price is copied from is not stored."""
    pairs, params = state.pairs, state.params
    routed, size, fuel = state.routed[n], state.size[n], pairs.fuel
    price = np.where(routed, c_plat(size, fuel, params) / size,
                     (1 - params.sigma_f) * fuel)
    k = np.where(routed, 0, _similar(state, n))     # copied from table k + 2
    copied = np.flatnonzero(k)
    if len(copied):     # a table not stored reads NaN
        nan = np.full(len(price), np.nan)
        stored = np.array([nan if t is None else t.prices
                           for t in map(state.tables.get, range(n + 1))])
        price[copied] = stored[k[copied] + 2, copied]
    lost = np.isnan(price)
    if lost.any():      # the first pair edge by edge, as ``adjusted`` lists
        j = pairs.by_edge[np.argmax(lost[pairs.by_edge])]
        v, e = pairs.keys[j]
        raise MissingHistory(f"no stored cost for vehicle {v}, edge {e}, "
                             f"iteration {k[j] + 2}")
    table = EdgeCostTable(pairs, price, frozenset(state.explored))
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
    Each ``trace`` entry holds the iteration's ``z``, its presumed routing
    objective, its time, and the status, search nodes and relative gap
    (``mip.MipSolution``'s) of its routing and its scheduling solve
    (``rdp_status``, ``rdp_nodes``, ``rdp_gap``, ``sp_status``,
    ``sp_nodes``, ``sp_gap``), the size of the routing model it solved
    (``rdp_rows``, ``rdp_cols``), and how many scheduling components the
    model solved, were scheduled in closed form, and were known from an
    earlier iteration (``sp_milp``, ``sp_closed``, ``sp_reused``; see
    ``scheduling.Schedule``).
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

    @property
    def limited(self) -> int:
        """The routing and scheduling solves of the trace that a limit
        stopped short of ``optimal``."""
        return sum(t[k] != "optimal" for t in self.trace
                   for k in ("rdp_status", "sp_status"))

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
    optimum, which stays feasible because only the objective changed.  An
    iteration whose table marks edges with platoon columns explored first
    deletes those columns and their rows (``routing.retire_explored``);
    its root LP then starts from the basis HiGHS keeps after the deletion,
    seeded with the previous optimum on the kept columns.
    Scheduling splits the routes into runs (``scheduling.contract``),
    schedules only the components no earlier iteration solved to
    optimality, and models only the new ones of four or more vehicles,
    each over its own vehicles' runs (see ``scheduling.solve_schedule``);
    it gives the schedule a solve of the whole assignment gives.  Each
    solve gets ``per_solve_time_s`` or the time left of ``total_time_s``,
    whichever is less; a solve cut short keeps its incumbent (every solve
    has one), its status in the trace says so (``RshmResult.limited``
    counts it), and the loop goes on until a stop rule or the time budget
    ends it."""
    opts = opts or RshmOptions()
    inst.validate()
    scheduling.cut_mode(opts.sp_cuts)   # an unknown mode fails here
    params = SavingsParams.from_instance(inst)
    fuel = inst.network.fuel_table()
    t_start = time.perf_counter()

    def time_limit() -> float:
        left = opts.total_time_s - (time.perf_counter() - t_start)
        return max(0.0, min(opts.per_solve_time_s, left))

    trace = []
    termination = None
    n = 1
    prev_routes = None
    handle = state = rdp_sol = None
    solved: dict = {}   # scheduling components solved to optimality
    while True:
        if opts.iter_cap is not None and n > opts.iter_cap:
            termination = "iter_cap"
            break
        if time.perf_counter() - t_start >= opts.total_time_s:
            termination = "time_limit"
            break
        t_iter = time.perf_counter()
        try:
            if handle is None:
                handle = routing.build_rdp(inst)
                state = RshmState(inst, handle.pairs)
                seed, root_start = routing.initial_solution(handle), None
            else:
                kept = routing.retire_explored(handle, state.tables[n])
                routing.set_rdp_costs(handle, state.tables[n])
                seed, root_start = rdp_sol.x, rdp_sol.root_basis
                if kept is not None:
                    seed = seed[kept]
                    root_start = handle.model.compiled_rows().held
            rdp_sol = mip.solve_mip(handle.model, rel_gap=opts.rel_gap,
                                    time_limit_s=time_limit(),
                                    initial_solution=seed,
                                    root_start=root_start)
            if rdp_sol.status not in ("optimal", "feasible"):
                raise SubproblemFailure(f"routing solve ended {rdp_sol.status}")
            routes = routing.extract_route_assignment(handle, rdp_sol)
            schedule = scheduling.solve_schedule(
                routes, inst, opts.sp_cuts, rel_gap=opts.rel_gap,
                time_limit_s=time_limit(), solved=solved)
            platoons = schedule.platoons
        except (mip.ModelError, NumericalFailure) as exc:
            raise SubproblemFailure(f"iteration {n}: {exc}") from exc
        z = scheduling.total_fuel(routes, platoons, fuel, params)
        presumed = routing.presumed_objective(routes, state.tables[n], inst)
        runtime = time.perf_counter() - t_iter
        rec = IterationRecord(n, routes, platoons, z, presumed, runtime)
        state.record(rec)
        sp_sol = schedule.solution
        trace.append({"iteration": n, "z": z, "presumed": presumed,
                      "runtime_s": runtime, "rdp_status": rdp_sol.status,
                      "rdp_nodes": rdp_sol.nodes, "rdp_gap": rdp_sol.gap,
                      "rdp_rows": handle.model.num_constraints,
                      "rdp_cols": handle.model.num_vars,
                      "sp_status": sp_sol.status, "sp_nodes": sp_sol.nodes,
                      "sp_gap": sp_sol.gap, "sp_milp": schedule.milp,
                      "sp_closed": schedule.closed,
                      "sp_reused": schedule.reused})
        state.tables[n + 1] = update_cost_table(state, n)
        if prev_routes is not None and routes == prev_routes:
            termination = "repeat_consecutive"
            break
        if state.max_freq() >= opts.freq_threshold:
            termination = "freq_threshold"
            break
        prev_routes = routes
        n += 1
    if state is None:   # no routing model: a state over no pairs
        state = RshmState(inst, routing.CandidatePairs(inst, {}))
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
    pairs = state.pairs
    hits = np.flatnonzero(_similar(state, n - 1)[pairs.by_edge])
    if len(hits):
        v, e = pairs.keys[pairs.by_edge[hits[0]]]
        raise NotApplicableError(
            f"configuration similarity at edge {e}, vehicle {v}")
    params = state.params
    base = state.instance.network.fuel_table()
    bound = 0.0
    for e in sorted(last.routes.all_edges()):
        for leader, followers in last.platoons.platoons.get(e, []):
            size = 1 + len(followers)
            term = (1 - size / params.max_platoon) * (params.sigma_f - params.sigma_l)
            if size == 1:
                term += params.sigma_l
            bound += term * base[e]
    return bound
