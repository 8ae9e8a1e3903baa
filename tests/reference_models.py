"""The routing and scheduling MILPs built one column and one row at a time,
each row a coefficient dict passed to ``LinearModel.add_constraint``: the
reference of the row blocks that ``routing.build_rdp``,
``scheduling.build_sp``, ``scheduling.partition_rows`` and
``scheduling.window_rows`` append.

``build_sp`` here also keeps the explicit formulation with one time column
per vehicle and route node (``keep_time_vars``), chained along each route by
equality rows; the program substitutes those columns out.  Its names
carry each run's label, counted here (``run_labels``).

``merged_runs`` contracts routes into runs by repeated pairwise merging,
the reference of ``scheduling.contract``'s one walk, and ``uncontracted``
gives the routes without contraction, each original edge a run of its
own, on which the scheduling optimum must be the one of the runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import reference_paths
from platoonopt import cuts, mip, netmodel, routing, scheduling
from platoonopt.scheduling import platoonable_and_bigM


def candidate_edge_set(net, m, sigma_f: float) -> set:
    """``netmodel.candidate_edge_set`` as a loop over the network's edges,
    adding each edge that passes in the network's edge order."""
    dist_o = reference_paths.dijkstra(net, m.origin, "length")
    if m.dest not in dist_o:
        raise netmodel.Unreachable(m.origin, m.dest)
    dist_d = reference_paths.dijkstra(net, m.dest, "length", reverse=True)
    bound = dist_o[m.dest] / (1.0 - sigma_f)
    tol = netmodel.REL_TOL * max(1.0, bound)
    out = set()
    for key, e in net.edges.items():
        i, j = key
        if i in dist_o and j in dist_d:
            if dist_o[i] + e.length + dist_d[j] <= bound + tol:
                out.add(key)
    return out


def merged_runs(routes) -> dict[int, tuple]:
    """Each vehicle's route as runs, contracted by repeated pairwise
    merging of two consecutive segments of one vehicle set, rescanning
    from the start after each merge."""
    veh_sets = {e: frozenset(vs)
                for e, vs in routes.vehicles_by_edge().items()}

    class Seg:
        def __init__(self, vehicles, original):
            self.vehicles, self.original = vehicles, original

    seg_by_edge = {e: Seg(veh_sets[e], (e,)) for e in routes.all_edges()}
    work = {v: [seg_by_edge[e] for e in routes.edges(v)]
            for v in routes.vehicles}
    changed = True
    while changed:
        changed = False
        for v in sorted(work):
            segs = work[v]
            for s1, s2 in zip(segs, segs[1:]):
                if s1.vehicles == s2.vehicles:
                    merged = Seg(s1.vehicles, s1.original + s2.original)
                    for u in sorted(s1.vehicles):
                        pos = work[u].index(s1)
                        assert work[u][pos + 1] is s2
                        work[u][pos:pos + 2] = [merged]
                    changed = True
                    break
            if changed:
                break
    return {v: tuple(s.original for s in work[v]) for v in sorted(work)}


def uncontracted(routes) -> scheduling.RunView:
    """The runs of raw routes without merging: each edge a run."""
    return scheduling.RunView({v: tuple((e,) for e in routes.edges(v))
                               for v in routes.vehicles},
                              routes.edge_times, routes.edge_costs)


def run_labels(routes) -> dict[tuple, str]:
    """Each run key of ``routes`` (a ``scheduling.RunView``) with its name
    in a model, ``(tail, head, i)``: ``i`` runs of ``routes`` join the same
    two nodes and have edges that sort first."""
    keys = list(routes.cedges)
    return {k: str((k[0], k[1], sum(o[:2] == k[:2] and o[2] < k[2]
                                    for o in keys)))
            for k in keys}


def build_rdp(inst, costs, full: bool = False) -> routing.RdpModelHandle:
    """The routing model priced at ``costs``: platoon columns and per-edge
    rows for the edges in two or more vehicles' candidate sets, or, when
    ``full``, the paper's model, with them for every candidate edge."""
    net = inst.network
    cand = {m.id: candidate_edge_set(net, m, inst.sigma_f)
            for m in inst.missions}
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
    platooned = [e for e, vs in edge_vehicles.items()
                 if full or len(vs) >= 2]
    for e in platooned:
        y_col[e] = model.add_var(f"y_{e[0]}_{e[1]}", kind=mip.BINARY)
        yp_col[e] = model.add_var(f"yp_{e[0]}_{e[1]}", kind=mip.BINARY)
        w_col[e] = model.add_var(f"w_{e[0]}_{e[1]}", lb=0.0)

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

    for e in platooned:
        vs = edge_vehicles[e]
        col = {("x", v): x_col[(v, e)] for v in vs}
        col.update(y=y_col[e], yp=yp_col[e], w=w_col[e])
        for coeffs, sense, rhs, name in hull_inequalities(e, vs):
            model.add_constraint({col[k]: c for k, c in coeffs.items()},
                                 sense, rhs, name=name)

    pairs = routing.CandidatePairs(inst, cand)
    handle = routing.RdpModelHandle(model, x_col, y_col, yp_col, w_col, cand,
                                    edge_vehicles, inst, pairs,
                                    pairs.shared | full)
    if not full:
        routing.set_rdp_costs(handle, costs)
        return handle
    c = {x_col[key]: costs.cost(*key) for key in x_col}
    for e in platooned:
        if e not in costs.explored:
            c[yp_col[e]] = -inst.sigma_l * net.edge(*e).fuel
            c[w_col[e]] = -inst.sigma_f * net.edge(*e).fuel
    model.set_objective(c, sense="min")
    return handle


def hull_inequalities(edge, vehicles):
    """The per-edge routing rows, coefficients keyed by ('x', v), 'y',
    'yp' and 'w'."""
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


@dataclass
class ReferenceSp:
    """A scheduling model with its column maps; ``t_col`` is empty unless
    the time columns were kept."""
    model: mip.LinearModel
    dep_col: dict[int, int]
    f_col: dict[tuple, int]
    l_col: dict[tuple, int]
    t_col: dict[tuple, int] = field(default_factory=dict)
    prefix: dict[tuple, float] = field(default_factory=dict)
    origin: dict[int, object] = field(default_factory=dict)
    labels: dict[tuple, str] = field(default_factory=dict)


def build_sp(contracted, params, bounds, star_partition: bool = False,
             size_facets: bool = False, keep_time_vars: bool = False,
             window: bool = True) -> ReferenceSp:
    big_m, pruned = platoonable_and_bigM(contracted, bounds)
    pruned_set = set(pruned)
    labels = run_labels(contracted)

    model = mip.LinearModel("sp")
    dep_col, f_col, l_col, t_col = {}, {}, {}, {}
    prefix, origin = {}, {}

    for v in contracted.vehicles:
        edges = contracted.route_edges(v)
        first = edges[0][0][0]
        origin[v] = first
        acc = 0.0
        prefix[(v, first)] = 0.0
        for key, t in edges:
            acc += t
            prefix[(v, key[1])] = acc
        lo, hi = bounds.window(v, first)
        dep_col[v] = model.add_var(f"dep_{v}", lb=lo, ub=hi)

    if keep_time_vars:
        for v in contracted.vehicles:
            for (key, _t) in contracted.route_edges(v):
                for node in (key[0], key[1]):
                    if (v, node) not in t_col:
                        lo, hi = bounds.window(v, node)
                        t_col[(v, node)] = model.add_var(
                            f"t_{v}_{node}", lb=lo, ub=hi)
            first = origin[v]
            model.add_constraint({t_col[(v, first)]: 1.0, dep_col[v]: -1.0},
                                 "==", 0.0, name=f"dep_link_{v}")
            for (key, t) in contracted.route_edges(v):
                model.add_constraint({t_col[(v, key[1])]: 1.0,
                                      t_col[(v, key[0])]: -1.0}, "==", t,
                                     name=f"chain_{v}_{labels[key]}")

    by_edge = contracted.vehicles_by_edge()
    shared_edges = {k: vs for k, vs in sorted(by_edge.items())
                    if len(vs) >= 2}

    obj: dict[int, float] = {}
    for key, vs in shared_edges.items():
        cost = contracted.edge_cost(key)
        label = labels[key]
        for v in vs:
            l_col[(v, key)] = model.add_var(f"l_{v}_{label}", kind=mip.BINARY)
            obj[l_col[(v, key)]] = params.sigma_l * cost
        for a, v in enumerate(vs):
            for u in vs[a + 1:]:
                if (u, v, key) in pruned_set:
                    continue
                f_col[(u, v, key)] = model.add_var(f"f_{u}_{v}_{label}",
                                                   kind=mip.BINARY)
                obj[f_col[(u, v, key)]] = params.sigma_f * cost
    model.set_objective(obj, sense="max")

    def tail_expr(v, node):
        if keep_time_vars:
            return {t_col[(v, node)]: 1.0}, 0.0
        return {dep_col[v]: 1.0}, prefix[(v, node)]

    lam = params.max_platoon
    for key, vs in shared_edges.items():
        tail, label = key[0], labels[key]
        for a, v in enumerate(vs):
            for u in vs[a + 1:]:
                if (u, v, key) not in f_col:
                    continue
                m_uv = big_m[(u, v, key)]
                cu, ku = tail_expr(u, tail)
                cv, kv = tail_expr(v, tail)
                fc = f_col[(u, v, key)]
                row = dict(cu)
                for col, c in cv.items():
                    row[col] = row.get(col, 0.0) - c
                const = ku - kv
                up = dict(row)
                up[fc] = up.get(fc, 0.0) + m_uv
                model.add_constraint(up, "<=", m_uv - const,
                                     name=f"meet_ub_{u}_{v}_{label}")
                lo = dict(row)
                lo[fc] = lo.get(fc, 0.0) - m_uv
                model.add_constraint(lo, ">=", -m_uv - const,
                                     name=f"meet_lb_{u}_{v}_{label}")
        for v in vs:
            lead = l_col[(v, key)]
            follows = {f_col[(v, w, key)]: 1.0 for w in vs
                       if w < v and (v, w, key) in f_col}
            row = dict(follows)
            row[lead] = row.get(lead, 0.0) + 1.0
            model.add_constraint(row, "<=", 1.0,
                                 name=f"lead_xor_follow_{v}_{label}")
            followers = {f_col[(u, v, key)]: 1.0 for u in vs
                         if u > v and (u, v, key) in f_col}
            row = dict(followers)
            row[lead] = row.get(lead, 0.0) - (lam - 1.0)
            model.add_constraint(row, "<=", 0.0, name=f"cap_{v}_{label}")
            row = dict(followers)
            row[lead] = row.get(lead, 0.0) - 1.0
            model.add_constraint(row, ">=", 0.0,
                                 name=f"nonempty_{v}_{label}")

    ref = ReferenceSp(model, dep_col, f_col, l_col, t_col, prefix, origin,
                      labels)
    add_partition_rows(ref, contracted, params.max_platoon, star_partition,
                       size_facets)
    if window:
        add_window_rows(ref, bounds)
    return ref


def add_partition_rows(ref: ReferenceSp, contracted, max_platoon: int,
                       star_partition: bool, size_facets: bool) -> int:
    model, f_col = ref.model, ref.f_col
    before = model.num_constraints
    for key, vs in sorted(contracted.vehicles_by_edge().items()):
        if len(vs) < 2:
            continue
        families = []
        if star_partition:
            families.append(("star", cuts.star_partition_constraints(vs)))
        if size_facets:
            families.append(("facet", cuts.platoon_size_facets(
                vs, max_platoon)))
        for tag, rows in families:
            for coeffs, sense, rhs in rows:
                row = {f_col[(u, v, key)]: c for (u, v), c in coeffs.items()
                       if (u, v, key) in f_col}
                if row:
                    model.add_constraint(row, sense, rhs,
                                         name=f"{tag}_{ref.labels[key]}")
    return model.num_constraints - before


def add_window_rows(ref: ReferenceSp, bounds) -> int:
    """The departure-window rows, one dict at a time.  ``f = 1`` on pair
    (u, v) of an edge pins ``dep_u - dep_v`` to the difference of their
    times from departure to the edge's tail, so it confines each departure
    to its own window intersected with the other's, shifted.  First, by
    follower column: the bound each such window tightens (upper, then
    lower; u, then v).  Then, by vehicle: two follower columns whose
    windows for the vehicle are apart cannot both be 1; each such pair
    gets a row unless the vehicle follows on one edge in both (a
    ``lead_xor_follow`` row holds them) or the pair has its row already.
    Returns the number of rows added."""
    model = ref.model
    before = model.num_constraints
    tol = scheduling.PRUNE_TOL
    owns = {w: bounds.window(w, ref.origin[w]) for w in ref.dep_col}
    seen: dict[int, list] = {w: [] for w in ref.dep_col}
    for (u, v, key), col in sorted(ref.f_col.items(), key=lambda kv: kv[1]):
        shift = ref.prefix[(u, key[0])] - ref.prefix[(v, key[0])]
        (lo_u, hi_u), (lo_v, hi_v) = owns[u], owns[v]
        implied = {u: (max(lo_u, lo_v - shift), min(hi_u, hi_v - shift)),
                   v: (max(lo_v, lo_u + shift), min(hi_v, hi_u + shift))}
        if any(a > b for a, b in implied.values()):
            continue
        label = ref.labels[key]
        for w in (u, v):
            (a, b), (lo, hi) = implied[w], owns[w]
            if hi - b > tol:
                model.add_constraint({ref.dep_col[w]: 1.0, col: hi - b}, "<=",
                                     hi, name=f"win_ub_{w}_{u}_{v}_{label}")
            if a - lo > tol:
                model.add_constraint({ref.dep_col[w]: 1.0, col: -(a - lo)},
                                     ">=", lo,
                                     name=f"win_lb_{w}_{u}_{v}_{label}")
            seen[w].append((col, a, b, key if w == u else None))

    held: set = set()
    for w in sorted(seen):
        cols = seen[w]
        for i, p in enumerate(cols):
            for q in cols[i + 1:]:
                one_row = p[3] is not None and p[3] == q[3]
                apart = p[2] < q[1] - tol or q[2] < p[1] - tol
                if one_row or not apart or (p[0], q[0]) in held:
                    continue
                held.add((p[0], q[0]))
                model.add_constraint({p[0]: 1.0, q[0]: 1.0}, "<=", 1.0,
                                     name=f"win_pair_{w}_{p[0]}_{q[0]}")
    return model.num_constraints - before


def lift(ref: ReferenceSp, model: mip.LinearModel, x) -> np.ndarray:
    """A point of ``model`` (the substituted formulation) as a point of
    ``ref``'s model: shared columns matched by name, each time column at
    its vehicle's departure plus the travel time to its node."""
    out = np.zeros(ref.model.num_vars)
    col = {name: j for j, name in enumerate(ref.model.names)}
    for j, name in enumerate(model.names):
        out[col[name]] = x[j]
    for (v, node), j in ref.t_col.items():
        out[j] = out[ref.dep_col[v]] + ref.prefix[(v, node)]
    return out
