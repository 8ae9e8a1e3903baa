"""Cutting planes for the scheduling problem.

Two families: scenario-based disjunctive cuts separating fractional
follower variables whose big-M coupling is tight (active-set collection,
then a cut-generating LP), and star-partition inequalities describing the
per-edge platoon polytope (plus the optional size-capped facet family).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import mip, simplex
from .scheduling import SpModelHandle

FRAC_TOL = 1e-6
ACTIVE_TOL = 1e-7
MIN_VIOLATION = 1e-7
SIZE_FACET_CAP = 200


class AssemblyError(Exception):
    """Internal index-map inconsistency while assembling the cut LP."""


# ---------------------------------------------------------------------------
# Star-partition inequalities
# ---------------------------------------------------------------------------

def star_partition_constraints(vehicles):
    """Exact linear description of unbounded-size star partitions.

    Rows are (coeffs keyed by (u, v) with u > v, sense, rhs): one row for the
    largest-index vehicle, one row per (u, v) pair with v above the smallest
    index.
    """
    vs = sorted(vehicles)
    if len(vs) < 2:
        return []
    vmin, vmax = vs[0], vs[-1]
    rows = [({(vmax, v): 1.0 for v in vs[:-1]}, "<=", 1.0)]
    for v in vs:
        if v == vmin:
            continue
        below = {(v, w): 1.0 for w in vs if w < v}
        for u in vs:
            if u > v:
                row = {(u, v): 1.0}
                for k, c in below.items():
                    row[k] = row.get(k, 0.0) + c
                rows.append((row, "<=", 1.0))
    return rows


def platoon_size_facets(vehicles, max_platoon: int, cap: int = SIZE_FACET_CAP):
    """Size-cap facets: over any lambda+1 vehicles, at most lambda-1
    follower links.  The first ``cap`` subsets in lexicographic order."""
    vs = sorted(vehicles)
    subsets = itertools.combinations(vs, max_platoon + 1)
    return [({(u, v): 1.0 for u, v in itertools.combinations(us[::-1], 2)},
             "<=", float(max_platoon - 1))
            for us in itertools.islice(subsets, cap)]


# ---------------------------------------------------------------------------
# Disjunctive cuts
# ---------------------------------------------------------------------------

@dataclass
class ActiveSets:
    """Vehicles and constraints active at a fractional scheduling point."""
    v1: list[int]
    v2: list[int]
    star: tuple                      # (u*, v*, run key)
    f_star: float
    u1: list[int] = field(default_factory=list)   # departure lower bound tight
    u2: list[int] = field(default_factory=list)   # departure upper bound tight
    fset: list[tuple] = field(default_factory=list)  # (u, v, edge) with f = 1


@dataclass
class DisjunctiveCut:
    cut: mip.Cut
    violation: float
    active: ActiveSets
    alpha: np.ndarray
    beta0: np.ndarray
    beta1: np.ndarray
    gamma0: float
    gamma1: float


def _origin_window(handle: SpModelHandle, v):
    node = handle.bounds.origin[v]
    return handle.bounds.window(v, node), node


def collect_active_sets(point, handle: SpModelHandle) -> ActiveSets | None:
    """Active-set collection walking follower links with tight big-M rows.

    Returns None when no fractional follower variable has its big-M row
    tight, or when a chain search bottoms out without reaching a vehicle
    pinned at a departure bound (the input was then not an extreme point of
    the time-relaxation polytope).
    """
    x = point.x
    candidates = []
    for (u, v, key) in sorted(handle.f_col):
        f = float(x[handle.f_col[(u, v, key)]])
        if FRAC_TOL < f < 1.0 - FRAC_TOL:
            tu = handle.time_value(x, u, key[0])
            tv = handle.time_value(x, v, key[0])
            m_uv = handle.big_m[(u, v, key)]
            if abs(abs(tu - tv) - m_uv * (1.0 - f)) <= ACTIVE_TOL:
                candidates.append((u, v, key))
    if not candidates:
        return None

    u_star, v_star, key_star = candidates[0]
    f_star = float(x[handle.f_col[(u_star, v_star, key_star)]])
    vehicles = set(handle.contracted.vehicles)

    def origin_state(v):
        """Whether v leaves at the start, and at the end, of its window."""
        (lo, hi), node = _origin_window(handle, v)
        t = handle.time_value(x, v, node)
        return t <= lo + ACTIVE_TOL, t >= hi - ACTIVE_TOL

    # the pairs (u, v), u > v, that platoon at x on some shared edge
    platooned = {(u, v) for (u, v, _key), col in handle.f_col.items()
                 if x[col] > 1.0 - FRAC_TOL}

    def deep_search(veh_set: list[int]) -> int:
        """Add linked vehicles to ``veh_set`` until one is pinned at a
        window end (1), or none is left to add (0)."""
        while True:
            added = next((u for u in sorted(vehicles - set(veh_set))
                          if any((max(u, v), min(u, v)) in platooned
                                 for v in veh_set)), None)
            if added is None:
                return 0
            veh_set.append(added)
            if any(origin_state(added)):
                return 1

    v1, v2 = [u_star], [v_star]
    for veh_set, seed in ((v1, u_star), (v2, v_star)):
        if not any(origin_state(seed)) and deep_search(veh_set) == 0:
            return None

    state = [(u, origin_state(u)) for u in sorted(v1 + v2)]
    u1 = [u for u, (at_lo, _at_hi) in state if at_lo]
    u2 = [u for u, (_at_lo, at_hi) in state if at_hi]
    fset = []
    for group in (v1, v2):
        gs = sorted(group)
        for a, v in enumerate(gs):
            for u in gs[a + 1:]:
                for (key, _t) in handle.contracted.route_edges(u):
                    col = handle.f_col.get((u, v, key))
                    if col is not None and x[col] > 1.0 - FRAC_TOL:
                        fset.append((u, v, key))
    return ActiveSets(sorted(v1), sorted(v2), (u_star, v_star, key_star),
                      f_star, u1, u2, sorted(set(fset)))


class _CglpSystem:
    """The lifted inequality system A~ w + p~ f* >= b~ and its column map."""

    def __init__(self, active: ActiveSets, handle: SpModelHandle):
        members = sorted(set(active.v1) | set(active.v2))
        route = handle.contracted.route_edges
        self.omega = [("t", u, node) for u in members for node in
                      [handle.bounds.origin[u]] + [k[1] for k, _ in route(u)]]
        self.omega += [("f",) + tup for tup in active.fset]
        index = dict(zip(self.omega, range(len(self.omega))))
        self.rows: list[dict[int, float]] = []
        self.p: list[float] = []
        self.b: list[float] = []

        def var(kind, *args):
            key = (kind,) + args
            if key not in index:
                raise AssemblyError(f"missing omega column for {key}")
            return index[key]

        def add(coeffs, p_coef, rhs):
            self.rows.append(coeffs)
            self.p.append(p_coef)
            self.b.append(rhs)

        # Travel-time chaining along each member's route (both directions).
        for u in members:
            for (key, t) in handle.contracted.route_edges(u):
                i, j = key[0], key[1]
                add({var("t", u, j): 1.0, var("t", u, i): -1.0}, 0.0, t)
                add({var("t", u, j): -1.0, var("t", u, i): 1.0}, 0.0, -t)
        # Tight departure bounds.
        for u in active.u1:
            (lo, _hi), node = _origin_window(handle, u)
            add({var("t", u, node): 1.0}, 0.0, lo)
        for u in active.u2:
            (_lo, hi), node = _origin_window(handle, u)
            add({var("t", u, node): -1.0}, 0.0, -hi)
        # Both big-M rows for every pair platooned at the point.
        for (u, v, key) in active.fset:
            m_uv = handle.big_m[(u, v, key)]
            tail = key[0]
            fi = var("f", u, v, key)
            add({var("t", u, tail): -1.0, var("t", v, tail): 1.0, fi: -m_uv},
                0.0, -m_uv)
            add({var("t", u, tail): 1.0, var("t", v, tail): -1.0, fi: -m_uv},
                0.0, -m_uv)
        # Both big-M rows for the starred pair (f* lives in the p column).
        us, vs_, key_s = active.star
        m_s = handle.big_m[(us, vs_, key_s)]
        tail = key_s[0]
        add({var("t", us, tail): -1.0, var("t", vs_, tail): 1.0}, -m_s, -m_s)
        add({var("t", us, tail): 1.0, var("t", vs_, tail): -1.0}, -m_s, -m_s)
        # Departure windows for every member.
        for u in members:
            (lo, hi), node = _origin_window(handle, u)
            add({var("t", u, node): 1.0}, 0.0, lo)
            add({var("t", u, node): -1.0}, 0.0, -hi)
        # 0 <= f <= 1 for the platooned pairs and the starred pair.
        for tup in active.fset:
            fi = var("f", *tup)
            add({fi: 1.0}, 0.0, 0.0)
            add({fi: -1.0}, 0.0, -1.0)
        add({}, 1.0, 0.0)
        add({}, -1.0, -1.0)

    def omega_values(self, point, handle) -> np.ndarray:
        x = point.x
        out = np.zeros(len(self.omega))
        for k, key in enumerate(self.omega):
            if key[0] == "t":
                _, u, node = key
                out[k] = handle.time_value(x, u, node)
            else:
                out[k] = float(x[handle.f_col[key[1:]]])
        return out


def build_cglp(active: ActiveSets, point, handle: SpModelHandle):
    """Cut-generating LP whose optimum yields a disjunctive inequality.

    Returns ``(rows, c, lo, hi, system)``: the LP min ``c.y`` over ``rows``
    (a ``simplex.Matrix``) and the column bounds ``lo``/``hi``.  Its
    columns are the multipliers alpha (one per omega column of
    ``system``), beta0 and beta1 (one per row of ``system`` each), gamma0
    and gamma1, in that order.  Its rows are A~^T beta0 = alpha and
    A~^T beta1 = alpha, interleaved omega column by omega column, then the
    normalization row.  The block is assembled column by column, each
    column's rows in order.
    """
    sys_ = _CglpSystem(active, handle)
    omega_hat = sys_.omega_values(point, handle)
    f_hat = active.f_star
    n_omega, n_rows = len(sys_.omega), len(sys_.rows)
    norm = 2 * n_omega

    # The beta0 column of row r of A~ holds the row's entries k in rows 2k
    # (its beta1 column in rows 2k + 1), then 1 in the normalization row.
    entries = [sorted((k, c) for k, c in row.items() if c != 0.0)
               for row in sys_.rows]
    even = np.array([i for col in entries
                     for i in [2 * k for k, _c in col] + [norm]], dtype=np.int32)
    values = [v for col in entries for v in [c for _k, c in col] + [1.0]]
    counts = [len(col) + 1 for col in entries]
    n_cols = n_omega + 2 * n_rows + 2
    # alpha_k is -1 in rows 2k and 2k + 1; gamma0 and gamma1 are 1 in the
    # normalization row.
    data = np.concatenate([np.full(norm, -1.0), values, values, [1.0, 1.0]])
    indices = np.concatenate([np.arange(norm, dtype=np.int32), even,
                              even + (even != norm), [norm, norm]])
    ends = norm + np.cumsum(counts + counts)
    indptr = np.concatenate([np.arange(0, norm + 1, 2), ends,
                             ends[-1] + np.array([1, 2])])
    a = sp.csc_matrix((data, indices.astype(np.int32),
                       indptr.astype(np.int32)), shape=(norm + 1, n_cols))

    # Multiplier-sum normalization: the multiplier family is a cone, and the
    # gamma1 cap alone leaves rays with gamma1 = 0 unbounded, so pin the
    # total multiplier mass instead.
    rhs = np.zeros(norm + 1)
    rhs[norm] = 1.0
    b_vec, p_vec = np.array(sys_.b), np.array(sys_.p)
    c = np.concatenate([omega_hat, b_vec * (f_hat - 1.0),
                        (p_vec - b_vec) * f_hat, [f_hat, 1.0 - f_hat]])
    lo = np.concatenate([np.full(n_omega, -np.inf), np.zeros(n_cols - n_omega)])
    hi = np.full(n_cols, np.inf)
    hi[-1] = 1.0
    return simplex.Matrix(a, rhs, rhs), c + 0.0, lo, hi, sys_


def separate_disjunctive(point, handle: SpModelHandle
                         ) -> DisjunctiveCut | None:
    """End-to-end separation: active sets, CGLP, materialized cut.

    Returns None when no qualifying fractional tuple exists, the chain
    search fails, or the best inequality does not cut the point off by
    more than ``MIN_VIOLATION``.
    """
    active = collect_active_sets(point, handle)
    if active is None:
        return None
    rows, c, lo, hi, sys_ = build_cglp(active, point, handle)
    sol = simplex.solve(rows, c, lo, hi)
    if sol.status != "optimal":
        return None
    violation = -sol.objective
    if violation <= MIN_VIOLATION:
        return None

    n_omega, n_rows = len(sys_.omega), len(sys_.rows)
    alpha, beta0, beta1 = np.split(sol.x[:-2], [n_omega, n_omega + n_rows])
    gamma0, gamma1 = float(sol.x[-2]), float(sol.x[-1])
    b_vec = np.array(sys_.b)
    p_vec = np.array(sys_.p)
    f_coef = float(beta0 @ b_vec - beta1 @ b_vec + beta1 @ p_vec
                   + gamma0 - gamma1)
    const = float(-beta0 @ b_vec + gamma1)

    # alpha^T omega + f_coef * f* + const >= 0, mapped into model columns.
    coeffs: dict[int, float] = {}
    shift = const
    for k, key in enumerate(sys_.omega):
        a_k = alpha[k]
        if abs(a_k) < 1e-12:
            continue
        if key[0] == "t":
            _, u, node = key
            col = handle.dep_col[u]
            coeffs[col] = coeffs.get(col, 0.0) + a_k
            shift += a_k * handle.bounds.offset[(u, node)]
        else:
            col = handle.f_col[key[1:]]
            coeffs[col] = coeffs.get(col, 0.0) + a_k
    star_col = handle.f_col[active.star]
    if abs(f_coef) >= 1e-12:
        coeffs[star_col] = coeffs.get(star_col, 0.0) + f_coef
    if not coeffs:
        return None
    cut = mip.Cut(coeffs, ">=", -shift, tag="disjunctive")

    lhs = sum(c * point.x[j] for j, c in coeffs.items())
    achieved = cut.rhs - lhs
    if abs(achieved - violation) > 1e-6 * max(1.0, abs(violation)):
        raise AssemblyError("cut violation mismatch between spaces")
    return DisjunctiveCut(cut, violation, active, alpha, beta0, beta1,
                          gamma0, gamma1)


def make_disjunctive_hook(handle: SpModelHandle, log: list | None = None):
    """Root-cut hook for the MIP solver: one disjunctive cut per round.
    ``log`` receives ``(root bound before the cut, DisjunctiveCut)``."""

    def hook(lp_solution):
        found = separate_disjunctive(lp_solution, handle)
        if found is None:
            return []
        if log is not None:
            log.append((lp_solution.objective, found))
        return [found.cut]

    return hook


def bound_improvement_report(contracted, params, bounds) -> dict:
    """Root-relaxation bounds (maximization: lower is tighter) of the
    paper's model over the runs of ``contracted`` (a
    ``scheduling.RunView``), without the departure-window rows: plain,
    after ``solve_mip``'s root cut rounds with the disjunctive hook
    (``mip.Relaxation.cut_rounds``), and after the star rows as well,
    appended below the cuts and solved from the last basis with them
    basic, which HiGHS holds once it has the rows."""
    from . import scheduling as sched
    t0 = time.perf_counter()
    handle = sched.build_sp(contracted, params, bounds,
                            sched.CutOptions(window=False))
    rel = mip.Relaxation.of(handle.model)
    lp0 = rel.solve(rel.lo, rel.hi)
    log: list = []
    lp, _ = rel.cut_rounds(lp0, make_disjunctive_hook(handle, log))
    bd0 = lp0.objective
    bd1 = lp.objective if lp.status == "optimal" else bd0
    cut_time = time.perf_counter() - t0

    star = sched.RowBlock()
    sched.partition_rows(handle, sched.CutOptions(star_partition=True), star)
    n_star = star.append_to(rel)
    lp2 = rel.solve(rel.lo, rel.hi, rel.rows.held)
    bd2 = lp2.objective if lp2.status == "optimal" else bd1
    return {"lp_bound_plain": bd0, "lp_bound_disj": bd1,
            "lp_bound_disj_star": bd2, "n_disjunctive": len(log),
            "n_star_rows": n_star, "disj_cuts": [dc for _b, dc in log],
            "time_disj_cut_s": cut_time}
