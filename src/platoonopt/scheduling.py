"""Scheduling problem: phase two of each heuristic iteration.

Given fixed routes, bounds each vehicle's arrival time at every node it
visits, prunes vehicle pairs whose time windows cannot overlap, contracts
consecutive edges shared by identical vehicle sets, and builds the
departure-time/platooning MILP (maximizing fuel savings).  The arrival time
of a vehicle at a node is its departure time plus the travel time to the
node, so the only continuous decision per vehicle is its departure time.
``solve_schedule`` runs the whole pipeline for one set of routes.

The model splits into independent components (``components``), each
depending on its vehicles' routes alone, so ``solve_schedule`` takes the
components solved before from a map and solves only the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add

import numpy as np

from . import mip

EQUAL_ENTRY_TOL = 1e-6
PRUNE_TOL = 1e-9


class InfeasibleRoute(Exception):
    """A route cannot be traversed within its mission time window."""


class InconsistentPlatoon(Exception):
    """Solver output violates the platoon structure constraints."""


@dataclass
class CutOptions:
    star_partition: bool = False
    size_facets: bool = False


# Cut mode -> (star-partition rows, size facets, disjunctive root cuts).
CUT_MODES = {
    "none": (False, False, False),
    "star": (True, False, False),
    "star+disj": (True, False, True),
    "star+disj+facets": (True, True, True),
}
DEFAULT_CUT_MODE = "star"


def cut_mode(mode: str) -> tuple[CutOptions, bool]:
    """Model options of a cut mode, and whether it separates disjunctive
    cuts at the root; raises ValueError on an unknown mode."""
    if mode not in CUT_MODES:
        raise ValueError(f"unknown cut mode {mode!r}; "
                         f"expected one of {', '.join(CUT_MODES)}")
    star, facets, disjunctive = CUT_MODES[mode]
    return CutOptions(star_partition=star, size_facets=facets), disjunctive


@dataclass
class TimeBounds:
    lower: dict[tuple, float]   # (vehicle, node) -> earliest arrival
    upper: dict[tuple, float]   # (vehicle, node) -> latest arrival

    def window(self, v, node) -> tuple[float, float]:
        return self.lower[(v, node)], self.upper[(v, node)]


def time_bounds(routes, missions) -> TimeBounds:
    """Prefix/suffix time sums along each route.

    ``routes`` may be a raw assignment or contracted routes; it only needs
    ``vehicles`` and ``route_edges(v) -> [(edge_key, time)]``.
    """
    by_id = {m.id: m for m in missions}
    lower, upper = {}, {}
    for v in routes.vehicles:
        m = by_id[v]
        edges = routes.route_edges(v)
        nodes = [edges[0][0][0]] + [key[1] for key, _ in edges] if edges else []
        times = [t for _, t in edges]
        total = sum(times)
        acc = 0.0
        for idx, node in enumerate(nodes):
            lower[(v, node)] = m.t_earliest + acc
            upper[(v, node)] = m.t_latest - (total - acc)
            if lower[(v, node)] > upper[(v, node)] + 1e-9:
                raise InfeasibleRoute(f"vehicle {v}: window closes at node {node}")
            if idx < len(times):
                acc += times[idx]
    return TimeBounds(lower, upper)


def platoonable_and_bigM(routes, bounds: TimeBounds):
    """Big-M values for pairs that can still meet; the rest are pruned.

    A pair is pruned only when its entry windows at the shared edge tail are
    strictly disjoint, i.e. simultaneous entry is impossible.
    """
    big_m: dict[tuple, float] = {}
    pruned: list[tuple] = []
    shared: dict[tuple, list[int]] = {}
    for v in routes.vehicles:
        for key, _ in routes.route_edges(v):
            shared.setdefault(key, []).append(v)
    for key, vs in sorted(shared.items()):
        vs = sorted(vs)
        tail = key[0]
        for a, v in enumerate(vs):
            for u in vs[a + 1:]:
                du = bounds.upper[(u, tail)] - bounds.lower[(v, tail)]
                dv = bounds.upper[(v, tail)] - bounds.lower[(u, tail)]
                if du < -PRUNE_TOL or dv < -PRUNE_TOL:
                    pruned.append((u, v, key))
                else:
                    big_m[(u, v, key)] = max(max(du, 0.0), max(dv, 0.0))
    return big_m, pruned


@dataclass(frozen=True)
class CEdge:
    """Contracted edge: one or more consecutive original edges carrying the
    same vehicle set."""
    tail: object
    head: object
    serial: int
    time: float
    cost: float
    vehicles: frozenset
    original: tuple

    @property
    def key(self):
        return (self.tail, self.head, self.serial)


class ContractedRoutes:
    def __init__(self, routes: dict[int, list[CEdge]]):
        self.routes = routes
        self.cedges: dict[tuple, CEdge] = {}
        for segs in routes.values():
            for s in segs:
                self.cedges[s.key] = s

    @property
    def vehicles(self) -> list[int]:
        return sorted(self.routes)

    def route_edges(self, v):
        return [(s.key, s.time) for s in self.routes[v]]

    def vehicles_by_edge(self) -> dict[tuple, list[int]]:
        return {key: sorted(s.vehicles) for key, s in self.cedges.items()}

    def edge_cost(self, key) -> float:
        return self.cedges[key].cost


def contract(routes, times: dict, costs: dict) -> ContractedRoutes:
    """Merge each maximal run of consecutive route edges whose vehicle sets
    coincide into one edge, summing travel time and fuel cost from left to
    right.  Routes are simple paths, so every vehicle on a run drives all
    of it, and one walk along each route finds the runs."""
    veh_sets = {e: frozenset(vs) for e, vs in routes.vehicles_by_edge().items()}
    runs: dict[int, list[tuple]] = {}
    for v in routes.vehicles:
        route = runs[v] = []
        for e in routes.edges(v):
            if route and veh_sets[route[-1][-1]] == veh_sets[e]:
                route[-1] += (e,)
            else:
                route.append((e,))
    return _contracted(runs, times, costs)


def uncontracted(routes) -> ContractedRoutes:
    """Wrap raw routes in the contracted container without merging."""
    return _contracted({v: [(e,) for e in routes.edges(v)]
                        for v in routes.vehicles},
                       routes.edge_times, routes.edge_costs)


def _contracted(runs: dict, times: dict, costs: dict) -> ContractedRoutes:
    """One ``CEdge`` per distinct run of original edges in ``runs`` (vehicle
    -> its route as runs), carrying the vehicles whose routes hold it.  The
    runs joining the same two nodes are numbered in the order of their
    original edges."""
    vehicles: dict[tuple, set] = {}
    for v, rs in runs.items():
        for run in rs:
            vehicles.setdefault(run, set()).add(v)
    serial: dict[tuple, int] = {}
    cedges = {}
    for run in sorted(vehicles,
                      key=lambda r: (str(r[0][0]), str(r[-1][1]), r)):
        k = (run[0][0], run[-1][1])
        serial[k] = serial.get(k, -1) + 1
        cedges[run] = CEdge(k[0], k[1], serial[k],
                            reduce(add, (times[e] for e in run)),
                            reduce(add, (costs[e] for e in run)),
                            frozenset(vehicles[run]), run)
    return ContractedRoutes({v: [cedges[run] for run in rs]
                             for v, rs in runs.items()})


@dataclass
class SpModelHandle:
    model: mip.LinearModel
    dep_col: dict[int, int]                 # vehicle -> departure column
    f_col: dict[tuple, int]                 # (u, v, edge_key) -> column
    l_col: dict[tuple, int]                 # (v, edge_key) -> column
    big_m: dict[tuple, float]
    pruned: list[tuple]
    contracted: ContractedRoutes
    bounds: TimeBounds
    sigma_l: float
    sigma_f: float
    max_platoon: int
    prefix: dict[tuple, float] = field(default_factory=dict)  # (v, node) ->
    origin: dict[int, object] = field(default_factory=dict)

    def entry_time(self, x, v, edge_key) -> float:
        """Entry time of v at the tail of edge_key under solution vector x."""
        return self.time_value(x, v, edge_key[0])

    def time_value(self, x, v, node) -> float:
        return float(x[self.dep_col[v]]) + self.prefix[(v, node)]


def build_sp(contracted: ContractedRoutes, params, bounds: TimeBounds,
             cut_options: CutOptions | None = None,
             pairs: tuple | None = None) -> SpModelHandle:
    """Assemble the scheduling MILP (a maximization of fuel savings).

    ``params`` carries sigma_l, sigma_f and max_platoon attributes (a
    ``ProblemInstance`` does).  Columns: each vehicle's departure, then for
    each shared edge in key order its vehicles' leader columns and the
    follower column of each pair that can still meet.  Rows, shared edge by
    shared edge: the two big-M rows of each such pair, then for each
    vehicle its lead-or-follow, size-cap and nonempty-platoon rows; then
    the rows of :func:`add_partition_rows`.  ``pairs`` is what
    ``platoonable_and_bigM(contracted, bounds)`` returns, if known.
    """
    opts = cut_options or CutOptions()
    big_m, pruned = pairs or platoonable_and_bigM(contracted, bounds)
    pruned_set = set(pruned)

    model = mip.LinearModel("sp")
    prefix, origin, lo, hi = {}, {}, [], []
    for v in contracted.vehicles:
        edges = contracted.route_edges(v)
        first = edges[0][0][0]
        origin[v] = first
        acc = 0.0
        prefix[(v, first)] = 0.0
        for key, t in edges:
            acc += t
            prefix[(v, key[1])] = acc
        window = bounds.window(v, first)
        lo.append(window[0])
        hi.append(window[1])
    vehicles = contracted.vehicles
    dep_col = dict(zip(vehicles, range(len(vehicles))))

    shared = [(key, vs) for key, vs in
              sorted(contracted.vehicles_by_edge().items()) if len(vs) >= 2]
    names = [f"dep_{v}" for v in vehicles]
    obj = [0.0] * len(vehicles)
    l_col, f_col = {}, {}
    for key, vs in shared:
        label = str(key)
        cost = contracted.edge_cost(key)
        for v in vs:
            l_col[(v, key)] = len(names)
            names.append(f"l_{v}_{label}")
            obj.append(params.sigma_l * cost)
        for a, v in enumerate(vs):
            for u in vs[a + 1:]:
                if (u, v, key) not in pruned_set:
                    f_col[(u, v, key)] = len(names)
                    names.append(f"f_{u}_{v}_{label}")
                    obj.append(params.sigma_f * cost)
    n_dep = len(vehicles)
    n_bin = len(names) - n_dep
    model.add_vars(names, lo + [0.0] * n_bin, hi + [1.0] * n_bin,
                   np.array([mip.CONTINUOUS_CODE] * n_dep
                            + [mip.BINARY_CODE] * n_bin))
    model.set_objective(np.array(obj), sense="max")

    rows = _RowBlock()
    lam = params.max_platoon
    for key, vs in shared:
        tail, label = key[0], str(key)
        for a, v in enumerate(vs):
            for u in vs[a + 1:]:
                fc = f_col.get((u, v, key))
                if fc is None:
                    continue
                m_uv = big_m[(u, v, key)]
                const = prefix[(u, tail)] - prefix[(v, tail)]
                cols = [dep_col[u], dep_col[v], fc]
                rows.add(cols, [1.0, -1.0, 0.0 + m_uv], mip.LE,
                         m_uv - const, f"meet_ub_{u}_{v}_{label}")
                rows.add(cols, [1.0, -1.0, 0.0 - m_uv], mip.GE,
                         -m_uv - const, f"meet_lb_{u}_{v}_{label}")
        for v in vs:
            lead = l_col[(v, key)]
            follows = [f_col[(v, w, key)] for w in vs
                       if w < v and (v, w, key) in f_col]
            rows.add(follows + [lead], [1.0] * (len(follows) + 1), mip.LE,
                     1.0, f"lead_xor_follow_{v}_{label}")
            followers = [f_col[(u, v, key)] for u in vs
                         if u > v and (u, v, key) in f_col] + [lead]
            ones = [1.0] * (len(followers) - 1)
            rows.add(followers, ones + [-(lam - 1.0)], mip.LE, 0.0,
                     f"cap_{v}_{label}")
            rows.add(followers, ones + [-1.0], mip.GE, 0.0,
                     f"nonempty_{v}_{label}")
    handle = SpModelHandle(model, dep_col, f_col, l_col, big_m, pruned,
                           contracted, bounds, params.sigma_l, params.sigma_f,
                           params.max_platoon, prefix, origin)
    _partition_rows(handle, opts, rows)
    rows.append_to(model)
    return handle


class _RowBlock:
    """Rows gathered one by one for one ``LinearModel.add_rows`` call."""

    def __init__(self):
        self.lengths, self.cols, self.vals = [], [], []
        self.senses, self.rhs, self.names = [], [], []

    def add(self, cols, vals, sense, rhs, name) -> None:
        self.lengths.append(len(cols))
        self.cols += cols
        self.vals += vals
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.names.append(name)

    def append_to(self, model: mip.LinearModel) -> int:
        """Append the rows to ``model``; returns their number."""
        if self.names:
            model.add_rows(mip.row_pointers(self.lengths), self.cols,
                           self.vals, self.senses, self.rhs, self.names)
        return len(self.names)


def add_partition_rows(handle: SpModelHandle, opts: CutOptions) -> int:
    """Append the star-partition rows and the size facets that ``opts``
    asks for to the model of ``handle``, shared edge by shared edge in key
    order, each row over the follower columns the model holds (a row left
    without any is dropped).  Returns the number of rows appended."""
    rows = _RowBlock()
    _partition_rows(handle, opts, rows)
    return rows.append_to(handle.model)


def _partition_rows(handle: SpModelHandle, opts: CutOptions,
                    rows: _RowBlock) -> None:
    """The rows of ``add_partition_rows``, added to ``rows``."""
    if not (opts.star_partition or opts.size_facets):
        return
    from . import cuts as _cuts
    f_col = handle.f_col
    for key, vs in sorted(handle.contracted.vehicles_by_edge().items()):
        if len(vs) < 2:
            continue
        families = []
        if opts.star_partition:
            families.append(("star", _cuts.star_partition_constraints(vs)))
        if opts.size_facets:
            families.append(("facet", _cuts.platoon_size_facets(
                vs, handle.max_platoon)))
        for tag, family in families:
            name = f"{tag}_{key}"
            for coeffs, sense, rhs in family:
                held = [(f_col[(u, v, key)], c) for (u, v), c in coeffs.items()
                        if (u, v, key) in f_col]
                if held:
                    cols, vals = zip(*held)
                    rows.add(list(cols), list(vals), sense, rhs, name)


@dataclass
class PlatoonConfiguration:
    """Realized platoons per edge plus the departure times that admit them."""
    platoons: dict[tuple, list[tuple]]   # edge key -> [(leader, followers)]
    departures: dict[int, float]

    def size(self, v, edge_key) -> int:
        for leader, followers in self.platoons.get(edge_key, []):
            if v == leader or v in followers:
                return 1 + len(followers)
        return 1

    def platoon_sets(self, edge_key) -> set:
        return {frozenset((leader,) + tuple(followers))
                for leader, followers in self.platoons.get(edge_key, [])}

    def savings(self, edge_costs, sigma_l, sigma_f) -> float:
        total = 0.0
        for key, plist in self.platoons.items():
            for leader, followers in plist:
                if followers:
                    total += (sigma_l + sigma_f * len(followers)) * edge_costs[key]
        return total


def solo_schedule(handle: SpModelHandle) -> np.ndarray:
    """Model-space values of the schedule with no platoons: every vehicle
    leaves at the start of its window and drives alone.  Always feasible
    (the big-M values cover every pair of window times), with zero savings,
    so it is an incumbent that lets a timed-out solve end ``feasible``."""
    x = np.zeros(handle.model.num_vars)
    cols = list(handle.dep_col.values())
    x[cols] = handle.model.lb[cols]
    return x


def extract_platoons(handle: SpModelHandle, sol) -> PlatoonConfiguration:
    """Decode leader/follower variables, auditing the structure rules."""
    if sol.x is None:
        raise InconsistentPlatoon("no solution to extract")
    x = sol.x
    lam = handle.max_platoon
    by_edge = handle.contracted.vehicles_by_edge()
    links: dict[tuple, list[tuple]] = {}     # edge key -> [(follower, leader)]
    for (u, v, k), col in handle.f_col.items():
        if x[col] < 0.5:
            continue
        links.setdefault(k, []).append((u, v))
    platoons: dict[tuple, list[tuple]] = {}
    for key, vs in sorted(by_edge.items()):
        if len(vs) < 2:
            platoons[key] = [(v, ()) for v in vs]
            continue
        leaders = [v for v in vs if (v, key) in handle.l_col
                   and x[handle.l_col[(v, key)]] > 0.5]
        follow_of: dict[int, int] = {}
        for u, v in links.get(key, ()):
            if u in follow_of:
                raise InconsistentPlatoon(f"{u} follows two vehicles on {key}")
            follow_of[u] = v
        plist = []
        used = set()
        for v in sorted(leaders):
            if v in follow_of:
                raise InconsistentPlatoon(f"leader {v} also follows on {key}")
            followers = tuple(sorted(u for u, w in follow_of.items() if w == v))
            if not followers:
                raise InconsistentPlatoon(f"leader {v} has no follower on {key}")
            if 1 + len(followers) > lam:
                raise InconsistentPlatoon(f"platoon of {v} exceeds size cap")
            entry = handle.entry_time(x, v, key)
            for u in followers:
                if abs(handle.entry_time(x, u, key) - entry) > EQUAL_ENTRY_TOL:
                    raise InconsistentPlatoon(
                        f"{u} and {v} platoon on {key} with unequal entry")
            plist.append((v, followers))
            used.add(v)
            used.update(followers)
        for u, w in follow_of.items():
            if w not in leaders:
                raise InconsistentPlatoon(f"{u} follows non-leader {w} on {key}")
        for v in vs:
            if v not in used:
                plist.append((v, ()))
        platoons[key] = sorted(plist)
    deps = {v: float(x[handle.dep_col[v]]) for v in handle.contracted.vehicles}
    return PlatoonConfiguration(platoons, deps)


def expand_platoons(config: PlatoonConfiguration,
                    contracted: ContractedRoutes) -> PlatoonConfiguration:
    """Map a configuration on contracted edges back to the original edges."""
    out: dict[tuple, list[tuple]] = {}
    for key, plist in config.platoons.items():
        for orig in contracted.cedges[key].original:
            out[orig] = list(plist)
    return PlatoonConfiguration(out, dict(config.departures))


def components(contracted: ContractedRoutes, big_m: dict) -> list[list[int]]:
    """The vehicle sets, sorted, of two or more vehicles linked directly or
    through others by pairs that can still meet (the keys of ``big_m``),
    by smallest vehicle.  A vehicle in no such pair drives alone."""
    parent = {v: v for v in contracted.vehicles}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, _key in big_m:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in contracted.vehicles:
        groups.setdefault(find(v), []).append(v)
    return [vs for vs in groups.values() if len(vs) > 1]


def component_key(contracted: ContractedRoutes, vehicles) -> tuple:
    """All that the model of component ``vehicles`` depends on, within one
    instance: each vehicle's route as runs of original edges."""
    return tuple((v, tuple(s.original for s in contracted.routes[v]))
                 for v in vehicles)


def _restricted(contracted: ContractedRoutes, keep: set) -> ContractedRoutes:
    """The routes of the vehicles in ``keep``, each edge carrying only
    them."""
    cedges: dict[tuple, CEdge] = {}

    def edge(s: CEdge) -> CEdge:
        if s.key not in cedges:
            inside = s.vehicles & keep
            cedges[s.key] = s if inside == s.vehicles else replace(
                s, vehicles=inside)
        return cedges[s.key]

    return ContractedRoutes({v: [edge(s) for s in segs]
                             for v, segs in contracted.routes.items()
                             if v in keep})


def earliest_departures(contracted: ContractedRoutes, platoons: dict,
                        bounds: TimeBounds) -> dict[int, float]:
    """Departures realizing ``platoons`` (contracted edge key -> ``[(leader,
    followers)]``): the vehicles that platoons tie together leave at the
    earliest common shift their windows allow, a lone vehicle at its window
    start."""
    entry: dict[tuple, float] = {}      # (v, edge key) -> time after departure
    for v in contracted.vehicles:
        acc = 0.0
        for s in contracted.routes[v]:
            entry[(v, s.key)] = acc
            acc += s.time
    links: dict[int, list[tuple]] = {v: [] for v in contracted.vehicles}
    for key, plist in platoons.items():
        for leader, followers in plist:
            for u in followers:
                gap = entry[(leader, key)] - entry[(u, key)]
                links[leader].append((u, gap))
                links[u].append((leader, -gap))
    departures: dict[int, float] = {}
    for v in contracted.vehicles:
        if v in departures:
            continue
        offset = {v: 0.0}               # member -> departure after v's
        group = [v]
        for w in group:
            for u, gap in links[w]:
                if u not in offset:
                    offset[u] = offset[w] + gap
                    group.append(u)
        start = {w: bounds.lower[(w, contracted.routes[w][0].tail)]
                 for w in group}
        first = max(group, key=lambda w: start[w] - offset[w])
        for w in group:
            departures[w] = start[first] + (offset[w] - offset[first])
    return {v: departures[v] for v in contracted.vehicles}


@dataclass
class Schedule:
    """The model of the components a ``solve_schedule`` call solved, its
    answer, and the whole assignment's platoons on the original edges."""
    handle: SpModelHandle
    solution: mip.MipSolution
    platoons: PlatoonConfiguration


def solve_schedule(routes, inst, cuts: str, *, merge_edges: bool = True,
                   rel_gap: float = mip.DEFAULT_REL_GAP,
                   time_limit_s: float | None = None,
                   cut_log: list | None = None,
                   solved: dict | None = None) -> Schedule:
    """Schedule fixed routes: contract them (unless ``merge_edges`` is
    False), bound their times, and build one model, with the rows of cut
    mode ``cuts`` (see ``CUT_MODES``), of the ``components`` that
    ``solved`` does not hold; it has no columns when all are known, and is
    then not solved (its solution is ``optimal`` with no values).  Solve
    it from the no-platoon incumbent, so a solve stopped by
    ``time_limit_s`` ends ``feasible``.  ``inst`` supplies the missions and
    the savings parameters.  ``cut_log`` receives ``(bound before, cut)``
    for each disjunctive cut the root rounds add.

    ``solved`` maps a ``component_key`` to the component's platoons with
    followers, as ``(original-edge run, (leader, followers))`` pairs; a
    solve that ends ``optimal`` adds its components.  One map serves one
    instance, cut mode, gap and ``merge_edges``.  Platoons are listed by
    sorted contracted key, then original edge, and departures are
    ``earliest_departures``, so the schedule does not depend on which
    components were known."""
    cut_options, disjunctive = cut_mode(cuts)
    if merge_edges:
        contracted = contract(routes, routes.edge_times, routes.edge_costs)
    else:
        contracted = uncontracted(routes)
    bounds = time_bounds(contracted, inst.missions)
    big_m, pruned = platoonable_and_bigM(contracted, bounds)
    reused, new = [], []
    for vs in components(contracted, big_m):
        key = component_key(contracted, vs)
        known = None if solved is None else solved.get(key)
        if known is None:
            new.append((key, vs))
        else:
            reused.extend(known)
    keep = {v for _key, vs in new for v in vs}
    # the pairs of kept vehicles; both of a pair that can meet are in one
    # component, so its first vehicle decides
    pairs = ({p: m for p, m in big_m.items() if p[0] in keep},
             [p for p in pruned if p[0] in keep and p[1] in keep])
    handle = build_sp(_restricted(contracted, keep), inst, bounds, cut_options,
                      pairs)
    if new:
        hook = None
        if disjunctive:
            from . import cuts as _cuts
            hook = _cuts.make_disjunctive_hook(handle, log=cut_log)
        sol = mip.solve_mip(handle.model, rel_gap=rel_gap,
                            time_limit_s=time_limit_s, root_cut_hook=hook,
                            initial_solution=solo_schedule(handle))
    else:
        sol = mip.MipSolution("optimal", 0.0, np.zeros(0), 0.0, 0.0, 0, 0.0)
    config = extract_platoons(handle, sol)
    fresh = [(handle.contracted.cedges[key].original, p)
             for key, plist in config.platoons.items() for p in plist if p[1]]
    if solved is not None and sol.status == "optimal":
        for key, vs in new:
            solved[key] = tuple(f for f in fresh if f[1][0] in vs)
    platooned: dict[tuple, list] = {}   # original-edge run -> its platoons
    for run, p in reused + fresh:
        platooned.setdefault(run, []).append(p)
    by_key: dict[tuple, list[tuple]] = {}
    for key in sorted(contracted.cedges):
        s = contracted.cedges[key]
        plist = platooned.get(s.original, [])
        members = {v for leader, followers in plist
                   for v in (leader, *followers)}
        by_key[key] = sorted(plist + [(v, ()) for v in s.vehicles
                                      if v not in members])
    config = PlatoonConfiguration(
        by_key, earliest_departures(contracted, by_key, bounds))
    return Schedule(handle, sol, expand_platoons(config, contracted))


def total_fuel(routes, platoons: PlatoonConfiguration, edge_costs: dict,
               params) -> float:
    """Total fuel: raw route cost minus realized platooning savings."""
    base = sum(edge_costs[e] for v in routes.vehicles for e in routes.edges(v))
    return base - platoons.savings(edge_costs, params.sigma_l, params.sigma_f)
