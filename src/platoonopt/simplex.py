"""Bounded-variable revised simplex engine.

Solves  min c.x  s.t.  A x = b,  lo <= x <= hi  on sparse data.
The basis inverse is kept as a sparse LU factorization plus a product-form
eta file, refactorized every ``refresh`` pivots.  Pivoting is deterministic:
Dantzig pricing with lowest-index tie-breaking, falling back to Bland's rule
when stalling is detected.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-8
ETA_REFRESH = 64        # pivots between refactorizations
SAFE_ETA_REFRESH = 8    # the same, for the last rung of the recovery ladder
STALL_LIMIT = 60

AT_LOWER, AT_UPPER, IS_BASIC = 0, 1, 2


class NumericalFailure(Exception):
    """LP engine could not recover after refactorization retries."""


class _Factor:
    """Basis inverse: sparse LU of B0 plus eta updates (B = ... E2 E1 B0)."""

    def __init__(self, a_csc: sp.csc_matrix, basis: np.ndarray):
        if len(np.unique(basis)) != len(basis):
            raise NumericalFailure("duplicate column in basis")
        cols = a_csc[:, basis].tocsc()
        try:
            self.lu = spla.splu(cols)
        except RuntimeError as exc:  # singular basis
            raise NumericalFailure(f"singular basis: {exc}") from exc
        self.etas: list[tuple[int, np.ndarray]] = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        x = self.lu.solve(v)
        for r, d in self.etas:
            t = x[r] / d[r]
            x = x - d * t
            x[r] = t
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        y = v.copy()
        for r, d in reversed(self.etas):
            y[r] = (y[r] - (d @ y - d[r] * y[r])) / d[r]
        return self.lu.solve(y, trans="T")

    def push(self, r: int, d: np.ndarray) -> None:
        self.etas.append((r, d.copy()))

    @property
    def age(self) -> int:
        return len(self.etas)


class SimplexResult:
    """Outcome of one solve.  ``x`` and ``vstatus`` have one entry per
    column of ``A``; ``basis`` has one per row and may hold indices
    ``n..n+m-1``: the artificial column of row ``i`` (index ``n + i``) stays
    basic at zero when phase 1 ends degenerate.  ``(basis, vstatus)`` is a
    valid ``start`` for a later solve on the same ``A``."""
    __slots__ = ("status", "x", "basis", "vstatus", "objective", "iterations")

    def __init__(self, status, x, basis, vstatus, objective, iterations):
        self.status = status  # 'optimal' | 'infeasible' | 'unbounded'
        self.x = x
        self.basis = basis
        self.vstatus = vstatus
        self.objective = objective
        self.iterations = iterations


def solve(a_csc: sp.csc_matrix, b: np.ndarray, c: np.ndarray,
          lo: np.ndarray, hi: np.ndarray,
          start: tuple[np.ndarray, np.ndarray] | None = None,
          max_iter: int | None = None) -> SimplexResult:
    """Two-phase solve.  All lower bounds must be finite (callers split or
    shift free variables).  ``start`` is an optional (basis, vstatus) pair,
    as returned on an earlier result for the same ``A``, used for a
    phase-2-only warm start.  Its basis may hold artificial indices
    ``n..n+m-1``; those columns come back as identity columns fixed at
    zero.  A start of the wrong shape, one that is not primal feasible
    under the current bounds, or one whose phase 2 fails numerically is
    ignored, and the solve runs cold.

    Numerical failures climb a recovery ladder: the solve as asked, then a
    cold solve under Bland's rule, then a cold solve that refactorizes every
    ``SAFE_ETA_REFRESH`` pivots.
    """
    rungs = ((start, False, ETA_REFRESH), (None, True, ETA_REFRESH),
             (None, False, SAFE_ETA_REFRESH))
    for k, (warm, bland, refresh) in enumerate(rungs):
        try:
            return _solve_once(a_csc, b, c, lo, hi, warm, max_iter, bland,
                               refresh)
        except NumericalFailure:
            if k == len(rungs) - 1:
                raise
    raise NumericalFailure("unreachable")


def _solve_once(a_csc, b, c, lo, hi, start, max_iter, bland_everywhere,
                refresh):
    m, n = a_csc.shape
    if max_iter is None:
        max_iter = 50000 + 200 * m

    if m == 0:
        # Bound-only problem: each variable sits at whichever bound is better.
        x = np.where(c >= 0, lo, hi)
        if not np.all(np.isfinite(x)):
            return SimplexResult("unbounded", None, None, None, None, 0)
        vstatus = np.where(c >= 0, AT_LOWER, AT_UPPER).astype(np.int8)
        return SimplexResult("optimal", x, np.empty(0, dtype=np.int64),
                             vstatus, float(c @ x), 0)

    if start is not None:
        try:
            res = _try_warm(a_csc, b, c, lo, hi, start, max_iter,
                            bland_everywhere, refresh)
        except NumericalFailure:
            res = None
        if res is not None:
            return res

    # Phase 1: artificial column per row, structurals at their lower bound.
    vstatus = np.full(n, AT_LOWER, dtype=np.int8)
    x = lo.copy()
    resid = b - a_csc @ x
    sign = np.where(resid >= 0.0, 1.0, -1.0)
    art = sp.diags(sign).tocsc()
    a_ext = sp.hstack([a_csc, art], format="csc")
    lo_ext = np.concatenate([lo, np.zeros(m)])
    hi_ext = np.concatenate([hi, np.full(m, np.inf)])
    x_ext = np.concatenate([x, np.abs(resid)])
    vstatus_ext = np.concatenate([vstatus, np.full(m, IS_BASIC, dtype=np.int8)])
    basis = np.arange(n, n + m, dtype=np.int64)

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    state = _State(a_ext, b, lo_ext, hi_ext, basis, vstatus_ext, x_ext)
    it1 = _iterate(state, c1, max_iter, bland_everywhere, refresh)
    if it1 is None:
        raise NumericalFailure("phase 1 iteration limit")
    phase1_obj = float(c1 @ state.x)
    if phase1_obj > 1e-6:
        return SimplexResult("infeasible", None, None, None, None, it1)

    # Lock artificials at zero and optimize the true objective.
    state.hi[n:] = 0.0
    state.x[n:] = np.where(state.vstatus[n:] == IS_BASIC, state.x[n:], 0.0)
    c2 = np.concatenate([c, np.zeros(m)])
    it2 = _iterate(state, c2, max_iter, bland_everywhere, refresh)
    if it2 is None:
        raise NumericalFailure("phase 2 iteration limit")
    if state.unbounded:
        return SimplexResult("unbounded", None, None, None, None, it1 + it2)
    xs = state.x[:n]
    return SimplexResult("optimal", xs, state.basis.copy(), state.vstatus[:n].copy(),
                         float(c @ xs), it1 + it2)


def _try_warm(a_csc, b, c, lo, hi, start, max_iter, bland, refresh):
    """Phase-2-only attempt from a previous basis; None if the start does
    not fit ``A`` or is not primal feasible.  Each artificial index in the
    basis gets its identity column back, fixed at ``[0, 0]``, so it can
    only leave; the other artificials are not needed."""
    basis, vstatus = start
    m, n = a_csc.shape
    if len(basis) != m or len(vstatus) != n:
        return None
    if basis.min() < 0 or basis.max() >= n + m:
        return None
    if not np.array_equal(np.flatnonzero(vstatus == IS_BASIC),
                          np.sort(basis[basis < n])):
        return None
    vstatus = vstatus.copy()
    x = np.where(vstatus == AT_UPPER, hi, lo)
    # Clamp nonbasics whose stored bound side is infinite (bounds may differ
    # from the parent problem in branch and bound).
    bad = ~np.isfinite(x)
    x[bad & (vstatus == AT_UPPER)] = lo[bad & (vstatus == AT_UPPER)]
    vstatus[bad] = AT_LOWER
    if not np.all(np.isfinite(x[np.setdiff1d(np.arange(n), basis)])):
        return None
    # Artificial k (row art_rows[k]) becomes column n + k.
    basis = basis.copy()
    is_art = basis >= n
    art_rows = basis[is_art] - n
    k = len(art_rows)
    a = a_csc
    if k:
        art = sp.csc_matrix((np.ones(k), (art_rows, np.arange(k))), shape=(m, k))
        a = sp.hstack([a_csc, art], format="csc")
        basis[is_art] = n + np.arange(k)
    c_w = np.concatenate([c, np.zeros(k)])
    lo_w = np.concatenate([lo, np.zeros(k)])
    hi_w = np.concatenate([hi, np.zeros(k)])
    x = np.concatenate([x, np.zeros(k)])
    vstatus = np.concatenate([vstatus, np.full(k, IS_BASIC, dtype=np.int8)])
    x[basis] = 0.0
    try:
        factor = _Factor(a, basis)
    except NumericalFailure:
        return None
    xb = factor.ftran(b - a @ x)
    if np.any(xb < lo_w[basis] - FEAS_TOL) or np.any(xb > hi_w[basis] + FEAS_TOL):
        return None
    x[basis] = xb
    state = _State(a, b, lo_w, hi_w, basis, vstatus, x, factor=factor)
    it = _iterate(state, c_w, max_iter, bland, refresh)
    if it is None:
        raise NumericalFailure("warm phase 2 iteration limit")
    if state.unbounded:
        return SimplexResult("unbounded", None, None, None, None, it)
    out = state.basis.copy()
    still = out >= n
    out[still] = n + art_rows[out[still] - n]
    xs = state.x[:n]
    return SimplexResult("optimal", xs, out, state.vstatus[:n].copy(),
                         float(c @ xs), it)


class _State:
    def __init__(self, a_csc, b, lo, hi, basis, vstatus, x, factor=None):
        self.a = a_csc
        self.at = a_csc.T.tocsr()
        self.b = b
        self.lo = lo
        self.hi = hi
        self.basis = basis
        self.vstatus = vstatus
        self.x = x
        self.factor = factor or _Factor(a_csc, basis)
        self.unbounded = False

    def refresh(self):
        self.factor = _Factor(self.a, self.basis)
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.factor.ftran(self.b - self.a @ xn)

    def column(self, j):
        v = np.zeros(self.a.shape[0])
        s, e = self.a.indptr[j], self.a.indptr[j + 1]
        v[self.a.indices[s:e]] = self.a.data[s:e]
        return v


def _iterate(state, c, max_iter, bland_everywhere, refresh):
    """Run pivots until optimal/unbounded, refactorizing once more than
    ``refresh`` eta updates have piled up.  Returns iteration count, or None
    if the iteration limit was hit."""
    state.unbounded = False
    stall = 0
    for it in range(max_iter):
        if state.factor.age > refresh:
            state.refresh()
        y = state.factor.btran(c[state.basis])
        z = c - state.at @ y
        nb_low = (state.vstatus == AT_LOWER) & (z < -OPT_TOL)
        nb_up = (state.vstatus == AT_UPPER) & (z > OPT_TOL)
        cand = np.where(nb_low | nb_up)[0]
        if cand.size == 0:
            return it
        if bland_everywhere or stall > STALL_LIMIT:
            e = int(cand[0])
        else:
            e = int(cand[np.argmax(np.abs(z[cand]))])
        s = 1.0 if state.vstatus[e] == AT_LOWER else -1.0

        d = state.factor.ftran(state.column(e))
        xb = state.x[state.basis]
        span = state.hi[e] - state.lo[e]
        lob = state.lo[state.basis]
        hib = state.hi[state.basis]
        move = s * d
        lims = np.full(len(d), np.inf)
        dn = move > PIVOT_TOL
        lims[dn] = (xb[dn] - lob[dn]) / move[dn]
        up = (move < -PIVOT_TOL) & np.isfinite(hib)
        lims[up] = (hib[up] - xb[up]) / (-move[up])
        np.maximum(lims, 0.0, out=lims)
        lmin = lims.min() if len(lims) else np.inf
        best = span if np.isfinite(span) else np.inf
        leave = -1  # -1: bound flip
        if lmin < best - 1e-12:
            cand = np.where(lims <= lmin + 1e-12)[0]
            leave = int(cand[np.argmax(np.abs(d[cand]))])
            best = lims[leave]
        if not np.isfinite(best):
            state.unbounded = True
            return it
        delta = max(best, 0.0)
        stall = stall + 1 if delta < 1e-12 else 0

        if leave < 0:
            # Entering variable runs to its opposite bound.
            state.x[state.basis] = xb - move * delta
            state.x[e] = state.hi[e] if s > 0 else state.lo[e]
            state.vstatus[e] = AT_UPPER if s > 0 else AT_LOWER
            continue
        lvar = int(state.basis[leave])
        state.x[state.basis] = xb - move * delta
        state.x[lvar] = lob[leave] if move[leave] > 0 else hib[leave]
        state.vstatus[lvar] = AT_LOWER if move[leave] > 0 else AT_UPPER
        state.x[e] = (state.lo[e] if s > 0 else state.hi[e]) + s * delta
        state.basis[leave] = e
        state.vstatus[e] = IS_BASIC
        state.factor.push(leave, d)
    return None
