"""Scheduling problem: phase two of each heuristic iteration.

Given fixed routes, splits them into runs, the maximal stretches of a
route whose edges carry one vehicle set, each keyed ``(tail, head, run)``
with ``run`` its tuple of original edges (``contract`` gives the
``RunView`` of an assignment, the one description of routes here).  It
bounds each vehicle's arrival time at every node it visits, prunes vehicle
pairs whose time windows cannot overlap, and builds the
departure-time/platooning MILP (maximizing fuel savings) over the runs.  A
vehicle reaches a node at its departure time plus the travel time to the
node (summed once per route, by ``time_bounds``), so the only continuous
decision per vehicle is its departure time.

Besides the paper's rows, the model holds departure-window rows in every
cut mode but ``none`` (``window_rows``): a platooning pair must enter its
edge together, so each follower column implies a window for both
departures, which bounds them and rules out pairs of columns whose
windows are apart.  They close most searches at the root.

The model splits into independent components (``components``), each
depending on its vehicles' runs alone.  ``solve_schedule`` finds them on
the shared runs, takes those solved before from a map, schedules a new
one of two or three vehicles in closed form (``closed_form``), and models
each new one of four or more vehicles on its own, over the view of its
vehicles' runs.  This is the one place where the scheduling problem is
decomposed: each model is one component, and ``mip.solve_mip`` searches
it on one tree.  Platoons are keyed by run from the model to the
schedule; only the returned schedule lists them by original edge.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, combinations, groupby
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
    window: bool = True         # the rows of :func:`window_rows`


# Cut mode -> (star-partition rows, size facets, departure-window rows,
# disjunctive root cuts).  Only "none" builds the paper's bare model.
CUT_MODES = {
    "none": (False, False, False, False),
    "star": (True, False, True, False),
    "star+disj": (True, False, True, True),
    "star+disj+facets": (True, True, True, True),
}
DEFAULT_CUT_MODE = "star"


def cut_mode(mode: str) -> tuple[CutOptions, bool]:
    """Model options of a cut mode, and whether it separates disjunctive
    cuts at the root; raises ValueError on an unknown mode."""
    if mode not in CUT_MODES:
        raise ValueError(f"unknown cut mode {mode!r}; "
                         f"expected one of {', '.join(CUT_MODES)}")
    star, facets, window, disjunctive = CUT_MODES[mode]
    return CutOptions(star, facets, window), disjunctive


@dataclass
class TimeBounds:
    """Arrival windows at the nodes of each route; v reaches ``node`` at its
    departure from ``origin[v]`` plus ``offset[(v, node)]``."""
    lower: dict[tuple, float]   # (vehicle, node) -> earliest arrival
    upper: dict[tuple, float]   # (vehicle, node) -> latest arrival
    offset: dict[tuple, float]  # (vehicle, node) -> time after departure
    origin: dict[int, object]   # vehicle -> first node of its route

    def window(self, v, node) -> tuple[float, float]:
        return self.lower[(v, node)], self.upper[(v, node)]


def time_bounds(routes, missions) -> TimeBounds:
    """Prefix/suffix time sums along each route, which the model, the cuts
    and the departures read.  ``routes`` may be a raw assignment or a
    ``RunView``; it only needs ``vehicles`` and ``route_edges(v) ->
    [(edge_key, time)]``."""
    by_id = {m.id: m for m in missions}
    lower, upper, offset, origin = {}, {}, {}, {}
    for v in routes.vehicles:
        m = by_id[v]
        edges = routes.route_edges(v)
        if not edges:
            continue
        nodes = [edges[0][0][0]] + [key[1] for key, _ in edges]
        times = [t for _, t in edges]
        origin[v] = nodes[0]
        total = sum(times)
        for node, acc in zip(nodes, accumulate(times, initial=0.0)):
            key = (v, node)
            offset[key] = acc
            lower[key] = lo = m.t_earliest + acc
            upper[key] = hi = m.t_latest - (total - acc)
            if lo > hi + 1e-9:
                raise InfeasibleRoute(f"vehicle {v}: window closes at node {node}")
    return TimeBounds(lower, upper, offset, origin)


def platoonable_and_bigM(routes, bounds: TimeBounds):
    """Big-M values for pairs that can still meet; the rest are pruned.

    A pair is pruned only when its entry windows at the shared edge tail are
    strictly disjoint, i.e. simultaneous entry is impossible.
    """
    big_m: dict[tuple, float] = {}
    pruned: list[tuple] = []
    for key, vs in sorted(routes.vehicles_by_edge().items()):
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


class RunView:
    """Routes as runs, the one description of routes in scheduling.  A run
    is keyed ``(tail, head, run)``, with ``run`` its tuple of original
    edges; its travel time and fuel cost are those of its edges summed
    from left to right.  ``route_runs`` maps each vehicle to its route as
    runs (``contract`` builds it from routes; ``restricted`` keeps some
    vehicles' routes), and ``cedges`` maps every run key to the vehicles
    of ``route_runs`` that drive it, in vehicle order.  Routes are simple
    paths, so every vehicle on a run drives all of it.
    ``vehicles_by_edge`` holds the shared runs only."""

    def __init__(self, runs: dict, times: dict, costs: dict):
        self.route_runs = runs
        self.times, self.costs = times, costs
        self.vehicles = sorted(runs)
        self.cedges: dict[tuple, list] = {}     # run key -> its vehicles
        for v in self.vehicles:
            for run in runs[v]:
                self.cedges.setdefault((run[0][0], run[-1][1], run),
                                       []).append(v)

    def runs(self, v) -> tuple:
        return self.route_runs[v]

    def restricted(self, vehicles) -> RunView:
        """The view of the routes of ``vehicles`` alone."""
        return RunView({v: self.route_runs[v] for v in vehicles}, self.times,
                       self.costs)

    def route_edges(self, v):
        times = self.times
        return [((run[0][0], run[-1][1], run),
                 reduce(add, map(times.__getitem__, run)))
                for run in self.route_runs[v]]

    def vehicles_by_edge(self) -> dict[tuple, list[int]]:
        return {key: vs for key, vs in self.cedges.items() if len(vs) > 1}

    def edge_cost(self, key) -> float:
        return reduce(add, map(self.costs.__getitem__, key[2]))

    @cached_property
    def labels(self) -> dict[tuple, str]:
        """Each run's name in a model: ``(tail, head, i)``, with ``i``
        numbering the runs of the view that join the same two nodes, in
        the order of their edges."""
        serial: dict[tuple, int] = {}
        labels = {}
        for run in sorted(key[2] for key in self.cedges):
            ends = (run[0][0], run[-1][1])
            serial[ends] = i = serial.get(ends, -1) + 1
            labels[(*ends, run)] = str((*ends, i))
        return labels


def contract(routes, times: dict, costs: dict) -> RunView:
    """The runs of ``routes``: one walk along each route groups its
    consecutive edges by the vehicles that drive them."""
    edges = {v: routes.edges(v) for v in routes.vehicles}
    on_edge: dict[tuple, list] = {}
    for v, es in edges.items():
        for e in es:
            on_edge.setdefault(e, []).append(v)
    return RunView({v: tuple(tuple(run) for _vs, run
                             in groupby(es, on_edge.__getitem__))
                    for v, es in edges.items()}, times, costs)


@dataclass
class SpModelHandle:
    model: mip.LinearModel
    dep_col: dict[int, int]                 # vehicle -> departure column
    f_col: dict[tuple, int]                 # (u, v, run key) -> column
    l_col: dict[tuple, int]                 # (v, run key) -> column
    big_m: dict[tuple, float]
    pruned: list[tuple]
    contracted: RunView
    bounds: TimeBounds
    max_platoon: int

    def time_value(self, x, v, node) -> float:
        """Time of v at ``node`` under solution vector x."""
        return float(x[self.dep_col[v]]) + self.bounds.offset[(v, node)]


def build_sp(contracted: RunView, params, bounds: TimeBounds,
             cut_options: CutOptions | None = None) -> SpModelHandle:
    """Assemble the scheduling MILP (a maximization of fuel savings).

    ``params`` carries sigma_l, sigma_f and max_platoon attributes (a
    ``ProblemInstance`` does).  Columns: each vehicle's departure, then for
    each shared run in key order its vehicles' leader columns and the
    follower column of each pair that can still meet
    (``platoonable_and_bigM``).  Rows, shared run by shared run: the two
    big-M rows of each such pair, then for each vehicle its
    lead-or-follow, size-cap and nonempty-platoon rows; then the rows of
    :func:`partition_rows`, and the departure-window rows of
    :func:`window_rows` unless ``cut_options.window`` is off.  Windows and
    times after departure come from ``bounds``, which the handle keeps.
    Columns and rows are named by the runs' ``labels``.
    """
    opts = cut_options or CutOptions()
    big_m, pruned = platoonable_and_bigM(contracted, bounds)
    pruned_set = set(pruned)

    model = mip.LinearModel("sp")
    vehicles = contracted.vehicles
    lo = [bounds.lower[(v, bounds.origin[v])] for v in vehicles]
    hi = [bounds.upper[(v, bounds.origin[v])] for v in vehicles]
    dep_col = dict(zip(vehicles, range(len(vehicles))))

    shared = sorted(contracted.vehicles_by_edge().items())
    labels = contracted.labels
    names = [f"dep_{v}" for v in vehicles]
    obj = [0.0] * len(vehicles)
    l_col, f_col = {}, {}
    for key, vs in shared:
        label = labels[key]
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

    rows = RowBlock()
    lam, offset = params.max_platoon, bounds.offset
    for key, vs in shared:
        tail, label = key[0], labels[key]
        for a, v in enumerate(vs):
            for u in vs[a + 1:]:
                fc = f_col.get((u, v, key))
                if fc is None:
                    continue
                m_uv = big_m[(u, v, key)]
                const = offset[(u, tail)] - offset[(v, tail)]
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
                           contracted, bounds, params.max_platoon)
    partition_rows(handle, opts, rows)
    if opts.window:
        window_rows(handle, rows)
    rows.append_to(model)
    return handle


class RowBlock:
    """Rows gathered one by one for one ``add_rows`` call of a
    ``mip.LinearModel`` or a ``mip.Relaxation``."""

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

    def append_to(self, model) -> int:
        """Append the rows to ``model``; returns their number."""
        if self.names:
            model.add_rows(mip.row_pointers(self.lengths), self.cols,
                           self.vals, self.senses, self.rhs, self.names)
        return len(self.names)


def partition_rows(handle: SpModelHandle, opts: CutOptions,
                   rows: RowBlock) -> None:
    """Add to ``rows`` the star-partition rows and the size facets that
    ``opts`` asks for, shared run by shared run in key order, each row
    over the follower columns the model of ``handle`` holds (a row left
    without any is dropped)."""
    if not (opts.star_partition or opts.size_facets):
        return
    from . import cuts as _cuts
    f_col, labels = handle.f_col, handle.contracted.labels
    for key, vs in sorted(handle.contracted.vehicles_by_edge().items()):
        families = []
        if opts.star_partition:
            families.append(("star", _cuts.star_partition_constraints(vs)))
        if opts.size_facets:
            families.append(("facet", _cuts.platoon_size_facets(
                vs, handle.max_platoon)))
        for tag, family in families:
            name = f"{tag}_{labels[key]}"
            for coeffs, sense, rhs in family:
                held = [(f_col[(u, v, key)], c) for (u, v), c in coeffs.items()
                        if (u, v, key) in f_col]
                if held:
                    cols, vals = zip(*held)
                    rows.add(list(cols), list(vals), sense, rhs, name)


def window_rows(handle: SpModelHandle, rows: RowBlock) -> None:
    """Add to ``rows`` the departure-window rows of the model of
    ``handle`` (implied bounds and conflicts from probing).

    ``f = 1`` on the follower column of pair (u, v) of an edge makes u and
    v enter it together, so ``dep_u = dep_v - c`` with ``c = offset[u,
    tail] - offset[v, tail]``: it confines ``dep_u`` to ``[a_u, b_u] =
    [max(lo_u, lo_v - c), min(hi_u, hi_v - c)]`` and ``dep_v`` to ``[a_v,
    b_v] = [max(lo_v, lo_u + c), min(hi_v, hi_u + c)]``, where ``[lo_w,
    hi_w]`` is the departure window of w.  A column whose window is empty
    on either side gets no row: ``platoonable_and_bigM`` keeps a pair only
    when the windows meet within ``PRUNE_TOL``, so it implies nothing
    beyond that tolerance.

    Implied bounds, follower column by follower column in column order,
    for u, then v: ``dep_w + (hi_w - b_w) f <= hi_w`` where ``b_w`` lies
    more than ``PRUNE_TOL`` below ``hi_w``, then ``dep_w - (a_w - lo_w) f
    >= lo_w`` where ``a_w`` lies more than ``PRUNE_TOL`` above ``lo_w``.

    Conflicts, vehicle by vehicle in order: two follower columns that hold
    the vehicle and imply windows for it more than ``PRUNE_TOL`` apart
    cannot both be 1.  Each such pair, in column order, gets the row
    ``f_p + f_q <= 1`` unless a ``lead_xor_follow`` row holds both (the
    vehicle follows on one edge in both) or an earlier vehicle gave the
    pair its row.

    Each row holds, within ``PRUNE_TOL``, at every integer point of the
    model without them."""
    bounds, labels = handle.bounds, handle.contracted.labels
    offset = bounds.offset
    own = {v: bounds.window(v, bounds.origin[v]) for v in handle.dep_col}
    by_vehicle: dict[int, list[tuple]] = {v: [] for v in handle.dep_col}
    for (u, v, key), col in handle.f_col.items():
        c = offset[(u, key[0])] - offset[(v, key[0])]
        (lo_u, hi_u), (lo_v, hi_v) = own[u], own[v]
        # (vehicle, implied window, edge it follows on)
        sides = ((u, max(lo_u, lo_v - c), min(hi_u, hi_v - c), key),
                 (v, max(lo_v, lo_u + c), min(hi_v, hi_u + c), None))
        if any(a > b for _w, a, b, _e in sides):
            continue
        label = f"{u}_{v}_{labels[key]}"
        for w, a, b, follows in sides:
            lo, hi = own[w]
            dep = handle.dep_col[w]
            if hi - b > PRUNE_TOL:
                rows.add([dep, col], [1.0, hi - b], mip.LE, hi,
                         f"win_ub_{w}_{label}")
            if a - lo > PRUNE_TOL:
                rows.add([dep, col], [1.0, lo - a], mip.GE, lo,
                         f"win_lb_{w}_{label}")
            by_vehicle[w].append((col, a, b, follows))

    done: set[tuple] = set()        # column pairs given their row
    for w in sorted(by_vehicle):
        for (p, a_p, b_p, e_p), (q, a_q, b_q, e_q) in \
                combinations(by_vehicle[w], 2):
            one_row = e_p is not None and e_p == e_q
            apart = b_p < a_q - PRUNE_TOL or b_q < a_p - PRUNE_TOL
            if apart and not one_row and (p, q) not in done:
                done.add((p, q))
                rows.add([p, q], [1.0, 1.0], mip.LE, 1.0,
                         f"win_pair_{w}_{p}_{q}")


@dataclass
class PlatoonConfiguration:
    """Realized platoons per run or per original edge, plus the departure
    times that admit them."""
    platoons: dict[tuple, list[tuple]]   # key -> [(leader, followers)]
    departures: dict[int, float]

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
    """Decode leader/follower variables, auditing the structure rules:
    the platoons on every run of ``handle``'s view, by run key."""
    if sol.x is None:
        raise InconsistentPlatoon("no solution to extract")
    x = sol.x
    lam = handle.max_platoon
    links: dict[tuple, list[tuple]] = {}     # run key -> [(follower, leader)]
    for (u, v, k), col in handle.f_col.items():
        if x[col] < 0.5:
            continue
        links.setdefault(k, []).append((u, v))
    platoons: dict[tuple, list[tuple]] = {}
    for key, vs in sorted(handle.contracted.cedges.items()):
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
            tail = key[0]
            entry = handle.time_value(x, v, tail)
            for u in followers:
                if abs(handle.time_value(x, u, tail) - entry) > EQUAL_ENTRY_TOL:
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
                    contracted: RunView) -> PlatoonConfiguration:
    """Map a configuration on the runs of ``contracted`` back to the
    original edges, in the order of its runs, each run's edges in route
    order.  A run key holds its edges (``key[2]``), so the view itself is
    not read."""
    out: dict[tuple, list[tuple]] = {}
    for key, plist in config.platoons.items():
        for orig in key[2]:
            out[orig] = list(plist)
    return PlatoonConfiguration(out, dict(config.departures))


def components(contracted: RunView, big_m: dict) -> list[list[int]]:
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


def component_key(routes, vehicles) -> tuple:
    """All that the model of component ``vehicles`` depends on, within one
    instance: each vehicle's route as runs of original edges, read from
    the ``RunView`` ``routes``."""
    return tuple((v, routes.runs(v)) for v in vehicles)


def closed_form(routes, bounds: TimeBounds, params,
                meet: dict) -> tuple[float, list[tuple]] | None:
    """The optimal savings and platoons of a component of two or three
    vehicles, whose pairs ``x < y`` can still meet on the runs ``meet[(x,
    y)]`` (a pair absent from ``meet`` never can), or None when tolerances
    make two of three pairs meet on a run without the third: the model
    then takes the component.

    On run ``key`` x and y enter together only when ``dep_y - dep_x =
    offset[x, tail] - offset[y, tail]``; each pair's differences are
    grouped as equal within ``PRUNE_TOL``, from the smallest.  A schedule
    fixes the difference of no pair, of one (a group: its runs), or of
    all three (a group of each of two pairs, whose sum or difference gives
    the third, which then meets where its difference lies within
    ``PRUNE_TOL`` of that); with all fixed, the three departure windows
    must meet within ``PRUNE_TOL`` at those differences.  On each run the
    pairs that meet form one platoon led by its lowest vehicle, all three
    up to ``max_platoon``, and save ``(sigma_l + sigma_f * followers) *
    cost``, summed in key order.  The first schedule of the largest
    savings wins, in the order of its listing ``[(key, (leader,
    followers))]`` by key, which it returns with the savings: on a pair,
    the group holding the lowest key."""
    offset = bounds.offset
    gap_at: dict[tuple, float] = {}         # (x, y, key) -> difference
    groups = []                             # (pair, first difference, keys)
    for (x, y), keys in meet.items():
        first = None
        for gap, key in sorted((offset[(x, k[0])] - offset[(y, k[0])], k)
                               for k in keys):
            gap_at[(x, y, key)] = gap
            if first is None or gap - first > PRUNE_TOL:
                first = gap
                groups.append(((x, y), gap, set()))
            groups[-1][2].add(key)
    vs = sorted({v for pair in meet for v in pair})
    window = [bounds.window(v, bounds.origin[v]) for v in vs]
    runs = sorted({key for keys in meet.values() for key in keys})
    cands = [[(key, (x, (y,))) for key in sorted(ks)]
             for (x, y), _gap, ks in groups]
    for (p, gap_p, ks_p), (q, gap_q, ks_q) in combinations(groups, 2):
        if p == q:
            continue
        shift = {p[0]: 0.0, p[1]: gap_p}    # departure after p[0]'s
        if q[0] in shift:
            shift[q[1]] = shift[q[0]] + gap_q
        else:
            shift[q[0]] = shift[q[1]] - gap_q
        s = [shift[v] for v in vs]
        if max(lo - d for (lo, _hi), d in zip(window, s)) > \
                min(hi - d for (_lo, hi), d in zip(window, s)) + PRUNE_TOL:
            continue
        (r,) = set(combinations(vs, 2)) - {p, q}
        gap_r = shift[r[1]] - shift[r[0]]
        plist = []
        for key in runs:
            met = [pair for pair, ks in ((p, ks_p), (q, ks_q)) if key in ks]
            if abs(gap_at.get((*r, key), np.inf) - gap_r) <= PRUNE_TOL:
                met.append(r)
            if len(met) == 1:
                plist.append((key, (met[0][0], (met[0][1],))))
            elif len(met) == 3:
                plist.append((key, (vs[0], tuple(vs[1:params.max_platoon]))))
            elif met:
                return None
        cands.append(plist)
    cost = {key: routes.edge_cost(key) for key in runs}
    best, best_plist = 0.0, []
    for plist in sorted(cands):
        savings = sum((params.sigma_l + params.sigma_f * len(p[1])) * cost[key]
                      for key, p in plist)
        if savings > best:
            best, best_plist = savings, plist
    return best, best_plist


def earliest_departures(contracted: RunView, platoons: dict,
                        bounds: TimeBounds) -> dict[int, float]:
    """Departures of the vehicles of ``contracted`` realizing ``platoons``
    (run key -> ``[(leader, followers)]``): the vehicles that platoons tie
    together leave at the earliest common shift their windows allow, a
    lone vehicle at its window start.  Times and windows come from
    ``bounds``."""
    offset = bounds.offset
    links: dict[int, list[tuple]] = {v: [] for v in contracted.vehicles}
    for key, plist in platoons.items():
        for leader, followers in plist:
            for u in followers:
                gap = offset[(leader, key[0])] - offset[(u, key[0])]
                links[leader].append((u, gap))
                links[u].append((leader, -gap))
    departures: dict[int, float] = {}
    for v in contracted.vehicles:
        if v in departures:
            continue
        shift = {v: 0.0}                # member -> departure after v's
        group = [v]
        for w in group:
            for u, gap in links[w]:
                if u not in shift:
                    shift[u] = shift[w] + gap
                    group.append(u)
        start = {w: bounds.lower[(w, bounds.origin[w])] for w in group}
        first = max(group, key=lambda w: start[w] - shift[w])
        for w in group:
            departures[w] = start[first] + (shift[w] - shift[first])
    return {v: departures[v] for v in contracted.vehicles}


@dataclass
class Schedule:
    """What a ``solve_schedule`` call scheduled: the handles of the models
    of the new components that no closed form took, one per component (an
    empty tuple without one), the answer over all its new components (the
    models' answers summed, with the savings of the components scheduled in
    closed form added), the whole assignment's platoons on the original
    edges, and every vehicle's time bounds.  ``milp``, ``closed`` and
    ``reused`` count the components that a model took, that
    ``closed_form`` scheduled, and that ``solved`` held.  ``view`` holds
    the whole assignment's runs, and ``contracted``, the view of the
    ``new`` components' vehicles (those in closed form included), is
    restricted from it on first read."""
    handles: tuple[SpModelHandle, ...]
    solution: mip.MipSolution
    platoons: PlatoonConfiguration
    bounds: TimeBounds
    closed: int
    reused: int
    view: RunView
    new: list

    @property
    def milp(self) -> int:
        return len(self.handles)

    @cached_property
    def contracted(self) -> RunView:
        return self.view.restricted(self.new)


def _summed(sols: list, savings: float) -> mip.MipSolution:
    """The answer over the models' solutions ``sols`` and the components
    of ``savings`` in closed form: the objective, the bound and the root
    bound are the sums (None when one is None) plus ``savings``, ``nodes``,
    ``cuts_added`` and the time are sums, the gap is ``mip.relative_gap``
    of the sums, the point is the models' points one after the other, and
    the status is ``optimal`` unless a model's is not: then it is the
    first such model's."""
    def total(values):
        return None if None in values else math.fsum([savings, *values])

    objective = total([s.objective for s in sols])
    bound = total([s.bound for s in sols])
    status = next((s.status for s in sols if s.status != "optimal"),
                  "optimal")
    return mip.MipSolution(
        status, objective,
        None if objective is None else np.concatenate(
            [np.zeros(0), *(s.x for s in sols)]),
        bound, None if None in (objective, bound)
        else mip.relative_gap(objective, bound),
        sum(s.nodes for s in sols), math.fsum(s.wall_time for s in sols),
        sum(s.cuts_added for s in sols),
        total([s.root_bound for s in sols]))


def solve_schedule(routes, inst, cuts: str, *,
                   rel_gap: float = mip.DEFAULT_REL_GAP,
                   time_limit_s: float | None = None,
                   cut_log: list | None = None,
                   solved: dict | None = None) -> Schedule:
    """Schedule fixed routes: bound every vehicle on its runs (the
    ``RunView`` of ``contract``), find the ``components`` on the shared
    runs, and schedule those that ``solved`` does not hold: each of two or
    three vehicles in closed form (``closed_form``), each other one in a
    model of its own over the view of its vehicles' runs, with the rows of
    cut mode ``cuts`` (see ``CUT_MODES``), solved from the no-platoon
    incumbent, so a solve stopped by the time limit ends ``feasible``.
    The models are solved in the order of their components' smallest
    vehicles; ``time_limit_s``, counted from the first model's build,
    bounds their builds and solves together, each solve getting what is
    left of it.  A model's search and its ``rel_gap`` pruning thus see its
    own component alone.  The returned solution sums the models'
    solutions and the closed forms' savings (``_summed``).  ``inst``
    supplies the missions and the savings parameters.

    ``cut_log`` receives ``(bound before, cut)`` for each disjunctive cut
    the models' root rounds add, model by model: a model's root bounds
    are shifted by the closed forms' savings, the final root bounds of
    the models solved before it and the first root bounds of those solved
    after it, so the entries read as one chain of root bounds of the
    returned solution, ending at its ``root_bound``.

    ``solved`` maps a ``component_key`` to the component's platoons with
    followers, as ``(run key, (leader, followers))`` pairs; each closed
    form, and each model whose solve ends ``optimal``, adds its component.
    One map serves one instance, cut mode and gap.  Platoons are listed run
    by run in key order, then by original edge, and departures are
    ``earliest_departures``, so the schedule does not depend on which
    components were known."""
    cut_options, disjunctive = cut_mode(cuts)
    view = contract(routes, routes.edge_times, routes.edge_costs)
    bounds = time_bounds(view, inst.missions)
    big_m, _pruned = platoonable_and_bigM(view, bounds)
    reused, new, n_reused = [], [], 0
    for vs in components(view, big_m):
        key = component_key(view, vs)
        known = None if solved is None else solved.get(key)
        if known is None:
            new.append((key, vs))
        else:
            reused.extend(known)
            n_reused += 1
    # the runs on which each pair of a new component of two or three
    # vehicles can meet, one map per component, reached by its vehicles
    meets: dict[int, dict] = {}
    for _key, vs in new:
        if len(vs) < 4:
            meets.update(dict.fromkeys(vs, {}))
    for u, v, key in big_m:
        if v in meets:
            meets[v].setdefault((v, u), []).append(key)
    fresh, closed_savings, milp = [], 0.0, []
    for key, vs in new:
        got = None if len(vs) > 3 else closed_form(view, bounds, inst,
                                                    meets[vs[0]])
        if got is None:
            milp.append((key, vs))
            continue
        closed_savings += got[0]
        fresh += got[1]
        if solved is not None:
            solved[key] = tuple(got[1])

    handles, sols, logs = [], [], []
    deadline = None if time_limit_s is None else \
        time.perf_counter() + time_limit_s
    for key, vs in milp:
        handle = build_sp(view.restricted(vs), inst, bounds, cut_options)
        hook, log = None, []
        if disjunctive:
            from . import cuts as _cuts
            hook = _cuts.make_disjunctive_hook(handle, log=log)
        left = None if deadline is None else max(
            0.0, deadline - time.perf_counter())
        sol = mip.solve_mip(handle.model, rel_gap=rel_gap,
                            time_limit_s=left, root_cut_hook=hook,
                            initial_solution=solo_schedule(handle))
        found = [(k, p) for k, plist in
                 extract_platoons(handle, sol).platoons.items()
                 for p in plist if p[1]]
        if solved is not None and sol.status == "optimal":
            solved[key] = tuple(found)
        fresh += found
        handles.append(handle)
        sols.append(sol)
        logs.append(log)
    if cut_log is not None:
        final = [s.root_bound for s in sols]
        first = [log[0][0] if log else b for log, b in zip(logs, final)]
        for i, log in enumerate(logs):
            shift = math.fsum([closed_savings, *final[:i], *first[i + 1:]])
            cut_log.extend((before + shift, cut) for before, cut in log)
    by_key: dict[tuple, list[tuple]] = {}   # run key -> its platoons
    for key, p in reused + fresh:
        by_key.setdefault(key, []).append(p)
    for key, plist in by_key.items():
        members = {v for leader, followers in plist
                   for v in (leader, *followers)}
        plist += [(v, ()) for v in view.cedges[key] if v not in members]
        plist.sort()
    on_runs = PlatoonConfiguration(
        {key: by_key.get(key) or [(v, ()) for v in view.cedges[key]]
         for key in sorted(view.cedges)},
        earliest_departures(view, dict(sorted(by_key.items())), bounds))
    return Schedule(tuple(handles), _summed(sols, closed_savings),
                    expand_platoons(on_runs, view), bounds,
                    len(new) - len(milp), n_reused, view,
                    sorted(v for _key, vs in new for v in vs))


def total_fuel(routes, platoons: PlatoonConfiguration, edge_costs: dict,
               params) -> float:
    """Total fuel: raw route cost minus realized platooning savings."""
    base = sum(edge_costs[e] for v in routes.vehicles for e in routes.edges(v))
    return base - platoons.savings(edge_costs, params.sigma_l, params.sigma_f)
