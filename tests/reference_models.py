"""The routing and scheduling MILPs built one column and one row at a time,
each row a coefficient dict passed to ``LinearModel.add_constraint``: the
reference of the row blocks that ``routing.build_rdp``,
``scheduling.build_sp`` and ``scheduling.add_partition_rows`` append.

``build_sp`` here also keeps the explicit formulation with one time column
per vehicle and route node (``keep_time_vars``), chained along each route by
equality rows; the program substitutes those columns out.  ``uncontracted``
gives the routes without contraction, one edge per original edge, on which
the scheduling optimum must be the one of the contracted routes."""

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


def uncontracted(routes) -> scheduling.ContractedRoutes:
    """Wrap raw routes in the contracted container without merging."""
    return scheduling._contracted({v: [(e,) for e in routes.edges(v)]
                                   for v in routes.vehicles},
                                  routes.edge_times, routes.edge_costs)


def build_rdp(inst, costs) -> routing.RdpModelHandle:
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
    for e in edge_vehicles:
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

    for e, vs in edge_vehicles.items():
        col = {("x", v): x_col[(v, e)] for v in vs}
        col.update(y=y_col[e], yp=yp_col[e], w=w_col[e])
        for coeffs, sense, rhs, name in hull_inequalities(e, vs):
            model.add_constraint({col[k]: c for k, c in coeffs.items()},
                                 sense, rhs, name=name)

    handle = routing.RdpModelHandle(model, x_col, y_col, yp_col, w_col, cand,
                                    edge_vehicles, inst,
                                    routing.CandidatePairs(inst, cand))
    routing.set_rdp_costs(handle, costs)
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


def build_sp(contracted, params, bounds, star_partition: bool = False,
             size_facets: bool = False,
             keep_time_vars: bool = False) -> ReferenceSp:
    big_m, pruned = platoonable_and_bigM(contracted, bounds)
    pruned_set = set(pruned)

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
                                     name=f"chain_{v}_{key}")

    by_edge = contracted.vehicles_by_edge()
    shared_edges = {k: vs for k, vs in sorted(by_edge.items())
                    if len(vs) >= 2}

    obj: dict[int, float] = {}
    for key, vs in shared_edges.items():
        cost = contracted.edge_cost(key)
        for v in vs:
            l_col[(v, key)] = model.add_var(f"l_{v}_{key}", kind=mip.BINARY)
            obj[l_col[(v, key)]] = params.sigma_l * cost
        for a, v in enumerate(vs):
            for u in vs[a + 1:]:
                if (u, v, key) in pruned_set:
                    continue
                f_col[(u, v, key)] = model.add_var(f"f_{u}_{v}_{key}",
                                                   kind=mip.BINARY)
                obj[f_col[(u, v, key)]] = params.sigma_f * cost
    model.set_objective(obj, sense="max")

    def tail_expr(v, node):
        if keep_time_vars:
            return {t_col[(v, node)]: 1.0}, 0.0
        return {dep_col[v]: 1.0}, prefix[(v, node)]

    lam = params.max_platoon
    for key, vs in shared_edges.items():
        tail = key[0]
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
                                     name=f"meet_ub_{u}_{v}_{key}")
                lo = dict(row)
                lo[fc] = lo.get(fc, 0.0) - m_uv
                model.add_constraint(lo, ">=", -m_uv - const,
                                     name=f"meet_lb_{u}_{v}_{key}")
        for v in vs:
            lead = l_col[(v, key)]
            follows = {f_col[(v, w, key)]: 1.0 for w in vs
                       if w < v and (v, w, key) in f_col}
            row = dict(follows)
            row[lead] = row.get(lead, 0.0) + 1.0
            model.add_constraint(row, "<=", 1.0,
                                 name=f"lead_xor_follow_{v}_{key}")
            followers = {f_col[(u, v, key)]: 1.0 for u in vs
                         if u > v and (u, v, key) in f_col}
            row = dict(followers)
            row[lead] = row.get(lead, 0.0) - (lam - 1.0)
            model.add_constraint(row, "<=", 0.0, name=f"cap_{v}_{key}")
            row = dict(followers)
            row[lead] = row.get(lead, 0.0) - 1.0
            model.add_constraint(row, ">=", 0.0, name=f"nonempty_{v}_{key}")

    ref = ReferenceSp(model, dep_col, f_col, l_col, t_col, prefix, origin)
    add_partition_rows(ref, contracted, params.max_platoon, star_partition,
                       size_facets)
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
                    model.add_constraint(row, sense, rhs, name=f"{tag}_{key}")
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
