"""Shared fixtures: tiny networks, the four-vehicle worked example,
hand-built instances with known optima, and the reference LP solve."""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

import reference_simplex

from platoonopt import mip, netmodel as nm, routing, scheduling as sched, simplex
from platoonopt.netmodel import Edge, Node, RoadNetwork, VehicleMission
from platoonopt.routing import RouteAssignment
from platoonopt.rshm import SavingsParams


@dataclass(frozen=True)
class Variable:
    """A read-only view of one column of a ``mip.LinearModel``."""
    name: str
    lb: float
    ub: float
    kind: str = mip.CONTINUOUS


def variables(model: mip.LinearModel) -> list[Variable]:
    """Each column of ``model`` as a :class:`Variable`."""
    return [Variable(*col) for col in zip(
        model.names, model.lb.tolist(), model.ub.tolist(),
        [mip.KINDS[k] for k in model.kind.tolist()])]


def add_cut(model: mip.LinearModel, cut: mip.Cut) -> int:
    """Append ``cut`` to ``model`` as one row, named ``cut_<tag>_<row>`` as
    ``solve_mip`` names the rows of its cuts; ``ModelError`` from
    ``Cut.validate`` first, with no row appended.  Returns the row."""
    cut.validate()
    return model.add_rows(
        [0, len(cut.coeffs)], list(cut.coeffs), list(cut.coeffs.values()),
        [cut.sense], [cut.rhs],
        [f"cut_{cut.tag}_{model.num_constraints}"])[0]


def extend_start(start, k: int):
    """Start for the LP of a model after ``k`` rows were appended, from
    ``start``, the ``basis`` of the LP before.  The appended rows join the
    basis; no column moves.  The reduced costs do not change, so an
    optimal start stays dual feasible, and a violated new row is repaired
    by the dual simplex."""
    return simplex.make_basis(start.col_status,
                              start.row_status + [simplex.BASIC] * k)


def make_net(coords, edge_spec, speed=80.0, rate=1.0):
    """coords: {id: (x, y)}; edge_spec: [(i, j, length)] (directed)."""
    nodes = [Node(i, x, y) for i, (x, y) in coords.items()]
    edges = [Edge(i, j, ln, ln / speed, rate * ln) for i, j, ln in edge_spec]
    return RoadNetwork(nodes, edges)


@pytest.fixture
def triangle_net():
    return make_net({1: (0, 0), 2: (10, 0), 3: (5, 1)},
                    [(1, 2, 10.0), (1, 3, 6.0), (3, 2, 6.0)])


@pytest.fixture
def two_node_net():
    return make_net({1: (0, 0), 2: (5, 0)}, [(1, 2, 5.0)])


def shared_edge_instance(edge_cost=10.0, sigma_l=0.02, sigma_f=0.1,
                         max_platoon=10, windows=None):
    """Two vehicles whose routes overlap on exactly one edge of the given
    cost; wide (or supplied) time windows."""
    lengths = {(1, 3): 4.0, (2, 3): 4.0, (3, 4): edge_cost,
               (4, 5): 4.0, (4, 6): 4.0}
    coords = {1: (0, 2), 2: (0, -2), 3: (4, 0), 4: (4 + edge_cost, 0),
              5: (8 + edge_cost, 2), 6: (8 + edge_cost, -2)}
    net = make_net(coords, [(i, j, ln) for (i, j), ln in lengths.items()])
    sp1 = (4.0 + edge_cost + 4.0) / 80.0
    if windows is None:
        windows = [(0.0, 2 * sp1 + 1.0), (0.0, 2 * sp1 + 1.0)]
    missions = [VehicleMission(1, 1, 5, windows[0][0], windows[0][1]),
                VehicleMission(2, 2, 6, windows[1][0], windows[1][1])]
    inst = nm.ProblemInstance(net, missions, sigma_l, sigma_f, max_platoon)
    inst.validate()
    return inst


def hull_rows(edge, vehicles):
    """The rows ``routing.build_rdp`` lays out for an edge in the candidate
    sets of ``vehicles``, read from its ``_hull_rows`` template: (coeffs,
    sense, rhs, name) with coefficient keys ('x', v), 'y', 'yp' and 'w'."""
    vehicles = sorted(vehicles)
    keys = [("x", v) for v in vehicles] + ["y", "yp", "w"]
    lengths, cols, vals, senses, names = routing._hull_rows(len(vehicles))
    ends = np.cumsum(lengths).tolist()
    cols, vals = cols.tolist(), vals.tolist()
    return [({keys[j]: c for j, c in zip(cols[e - n:e], vals[e - n:e])},
             sense, 0.0,
             f"{tag}_{edge}" if i is None else f"{tag}_{vehicles[i]}_{edge}")
            for n, e, sense, (tag, i) in zip(lengths.tolist(), ends, senses,
                                             names)]


def branching_sp_handle():
    """Scheduling model handle of a 6x6 two-cluster instance with 14
    vehicles on fuel-shortest routes, built without the departure-window
    rows, which would close it at the root: 72 columns, 161 rows, and one
    block of 33 columns that is fractional at the root and takes 11
    nodes."""
    grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=5)
    inst = nm.generate_two_cluster(grid, 14, seed=1)
    ra = routing.shortest_path_assignment(inst)
    contracted = sched.contract(ra, ra.edge_times, ra.edge_costs)
    bounds = sched.time_bounds(contracted, inst.missions)
    return sched.build_sp(contracted, SavingsParams.from_instance(inst),
                          bounds, sched.CutOptions(window=False))


def branching_sp_model():
    """The model of :func:`branching_sp_handle`."""
    return branching_sp_handle().model


def blocked_sp_handle(vehicles=None):
    """Scheduling model handle of an 8x8 two-cluster instance with 16
    vehicles on fuel-shortest routes (instance seed 9), built without the
    departure-window rows: 133 columns, and three blocks that are
    fractional at the root, of 28, 21 and 18 columns.  ``vehicles`` keeps
    those vehicles' routes alone: vehicles 1, 4, 8 and 12 give the block
    of 28 columns, whose search takes 37 nodes."""
    grid = nm.make_grid_network(8, 8, spacing_km=40, jitter=0.25, seed=5)
    inst = nm.generate_two_cluster(grid, 16, seed=9)
    ra = routing.shortest_path_assignment(inst)
    contracted = sched.contract(ra, ra.edge_times, ra.edge_costs)
    if vehicles is not None:
        contracted = contracted.restricted(vehicles)
    bounds = sched.time_bounds(contracted, inst.missions)
    return sched.build_sp(contracted, SavingsParams.from_instance(inst),
                          bounds, sched.CutOptions(window=False))


def blocked_sp_model():
    """The model of :func:`blocked_sp_handle`."""
    return blocked_sp_handle().model


@pytest.fixture
def appendix_example():
    """The worked four-vehicle example: routes, missions, their runs, the
    scheduling model, and the fractional point with f = 3/4."""
    A, B, C, D, E, F, G, H, I, J, K, L = range(1, 13)
    routes = {1: (A, B, C, D, E), 2: (F, C, D, G, H),
              3: (I, B, C, J), 4: (L, D, G, K)}
    edges = set()
    for r in routes.values():
        for i in range(len(r) - 1):
            edges.add((r[i], r[i + 1]))
    times = {e: (2.0 if e == (C, J) else 1.0) for e in edges}
    costs = {e: 1.0 for e in edges}
    ra = RouteAssignment(routes, times, costs)
    missions = [VehicleMission(1, A, E, 0, 8), VehicleMission(2, F, H, 1, 9),
                VehicleMission(3, I, J, 3, 8), VehicleMission(4, L, K, 2, 7)]
    params = SavingsParams(0.02, 0.1, 10)
    contracted = sched.contract(ra, times, costs)
    bounds = sched.time_bounds(contracted, missions)
    handle = sched.build_sp(contracted, params, bounds)

    x = np.zeros(handle.model.num_vars)
    for v, dep in ((1, 3.0), (2, 3.0), (3, 3.0), (4, 4.0)):
        x[handle.dep_col[v]] = dep

    def fcol(u, v, i, j):
        for (uu, vv, kk), col in handle.f_col.items():
            if (uu, vv) == (u, v) and kk[0] == i and kk[1] == j:
                return col
        raise KeyError((u, v, i, j))

    x[fcol(3, 1, B, C)] = 1.0
    x[fcol(4, 2, D, G)] = 1.0
    x[fcol(2, 1, C, D)] = 0.75
    point = mip.LpSolution("optimal", None, x)
    return {"assignment": ra, "missions": missions, "params": params,
            "contracted": contracted, "bounds": bounds, "handle": handle,
            "point": point, "times": times, "costs": costs,
            "nodes": dict(zip("ABCDEFGHIJKL", range(1, 13))), "fcol": fcol}


@pytest.fixture
def small_grid():
    return nm.make_grid_network(4, 4, spacing_km=30, jitter=0.25, seed=9)


@pytest.fixture
def medium_grid():
    return nm.make_grid_network(7, 7, spacing_km=40, jitter=0.25, seed=5)


def ranged_rows(senses, rhs):
    """Row bounds ``(rlo, rhi)`` of rows with these senses and right-hand
    sides: ``(-inf, b]`` for ``<=``, ``[b, inf)`` for ``>=``, ``[b, b]``
    for ``==``."""
    senses, rhs = np.asarray(senses, dtype=object), np.asarray(rhs, float)
    return (np.where(senses == "<=", -np.inf, rhs),
            np.where(senses == ">=", np.inf, rhs))


def reference_solve(a, rlo, rhi, c, lo, hi, start=None):
    """``reference_simplex.solve`` on  min c.x  s.t.  rlo <= A x <= rhi,
    lo <= x <= hi,  put into the equality form it needs: a column with only
    an upper bound negated, a free one split into its positive and negative
    parts, then one slack per row (``A x + s = rhi`` with ``s`` in
    ``[0, rhi - rlo]``, or ``A x - s = rlo`` with ``s >= 0`` when ``rhi``
    is infinite).  The objective is that of the LP as given; ``start`` is a
    ``(basis, vstatus)`` of an earlier reference result on the same form."""
    a = sp.csc_matrix(a, dtype=float)
    rlo, rhi, c, lo, hi = (np.asarray(v, dtype=float)
                           for v in (rlo, rhi, c, lo, hi))
    down = np.isneginf(lo)
    flip = np.where(down & np.isfinite(hi), -1.0, 1.0)
    split = np.flatnonzero(down & np.isposinf(hi))
    up = np.isfinite(rhi)
    full = sp.hstack([a @ sp.diags(flip), -a[:, split],
                      sp.diags(np.where(up, 1.0, -1.0))], format="csc")
    k, m = split.size, len(rhi)
    lo_f = np.concatenate([np.where(flip < 0, -hi, np.where(down, 0.0, lo)),
                           np.zeros(k + m)])
    hi_f = np.concatenate([np.where(flip < 0, np.inf, hi), np.full(k, np.inf),
                           np.where(up, rhi - rlo, np.inf)])
    c_f = np.concatenate([c * flip, -c[split], np.zeros(m)])
    return reference_simplex.solve(full, np.where(up, rhi, rlo), c_f, lo_f,
                                   hi_f, start=start)
