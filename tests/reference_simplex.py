"""Bounded-variable revised simplex engine.

Solves  min c.x  s.t.  A x = b,  lo <= x <= hi  on sparse data, where the
last ``m`` columns of ``A`` are the rows' slacks: column ``n - m + i`` has
its one nonzero in row ``i`` (an equality row's slack is fixed at zero).
A :class:`Matrix` holds ``A`` checked for that layout, with its transpose,
so a caller that solves many LPs on one ``A`` pays for both once.
A basis is a set of columns of ``A``; artificial columns exist only inside
a cold solve's phase 1.  The basis inverse is a sparse LU factorization of
the basis at the last refactorization times one dense low-rank term that
holds every pivot since (``_Factor``), refactorized every ``refresh``
pivots.  A cold solve runs the primal simplex in two phases from a crash
basis: each row starts basic in a singleton column (a slack, say) that can
absorb its residual within that column's bounds, and only the other rows
on an artificial column; an artificial still basic at the end gives way to
its row's slack.  A solve given an earlier basis, or one built from a
known point, re-optimizes from it: with the primal simplex (phase 2 only)
when the basis is primal feasible, or with the dual simplex when it is
dual feasible but not primal feasible, as after a branching bound or an
added cut.  Pivoting is deterministic: Dantzig pricing (primal) or the
largest bound violation (dual) with lowest-index tie-breaking, falling
back to Bland's rule when stalling is detected.  A fixed column
(``lo == hi``) never enters.
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
    """Basis inverse in block-LU form (Eldersveld & Saunders, 1992):
    B^-1 = (I - U V^T) B0^-1, a sparse LU of the basis B0 at the last
    refactorization times one rank-``k`` term for the ``k`` pivots since.
    Row ``i`` of ``ut`` holds column ``i`` of ``U`` and row ``i`` of ``vt``
    column ``i`` of ``V``.  Both buffers have ``size`` rows, one more than
    the pivots allowed between refactorizations, and ``refactor`` reuses
    them."""

    def __init__(self, a_csc: sp.csc_matrix, basis: np.ndarray, size: int):
        m = a_csc.shape[0]
        self.a = a_csc
        self.ut = np.empty((size, m))
        self.vt = np.empty((size, m))
        self.refactor(basis)

    def refactor(self, basis: np.ndarray) -> None:
        """Factorize ``B0 = A[:, basis]`` afresh and drop the updates."""
        if len(np.unique(basis)) != len(basis):
            raise NumericalFailure("duplicate column in basis")
        try:
            self.lu = spla.splu(self.a[:, basis].tocsc())
        except RuntimeError as exc:  # singular basis
            raise NumericalFailure(f"singular basis: {exc}") from exc
        self.k = 0

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """x = B^-1 v: one LU solve, then x -= U (V^T x)."""
        x = self.lu.solve(v)
        k = self.k
        if k:
            x -= (self.vt[:k] @ x) @ self.ut[:k]
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """y = B^-T v: y = v - V (U^T v), then one transposed LU solve."""
        k = self.k
        if k:
            v = v - (self.ut[:k] @ v) @ self.vt[:k]
        return self.lu.solve(v, trans="T")

    def push(self, r: int, d: np.ndarray) -> None:
        """Replace basis position ``r`` by the column whose ftran is ``d``.
        Folds the eta ``E = I - u e_r^T``, ``u = (d - e_r) / d[r]``, into
        ``I - U V^T`` as the new pair ``(u, w)``, ``w = e_r - V U[r, :]^T``."""
        k = self.k
        u, w = self.ut[k], self.vt[k]
        np.divide(d, d[r], out=u)
        u[r] = (d[r] - 1.0) / d[r]
        np.dot(self.ut[:k, r], self.vt[:k], out=w)
        np.negative(w, out=w)
        w[r] += 1.0
        self.k = k + 1

    @property
    def age(self) -> int:
        """Pivots since the last refactorization."""
        return self.k


class Matrix:
    """The constraint matrix ``A`` of an LP, checked once for the slack
    layout ``solve`` requires, with its transpose built on first use.  Pass
    one to ``solve`` for every LP on the same ``A``; a bare CSC matrix is
    wrapped, and so checked, on each call."""
    __slots__ = ("a", "_at")

    def __init__(self, a_csc: sp.csc_matrix):
        _check_slacks(a_csc)
        self.a = a_csc
        self._at = None

    @property
    def at(self) -> sp.csr_matrix:
        """``A^T`` in CSR form."""
        if self._at is None:
            self._at = self.a.T.tocsr()
        return self._at


class SimplexResult:
    """Outcome of one solve.  ``x`` and ``vstatus`` have one entry per
    column of ``A``; ``basis`` has one per row, each a column of ``A``
    (below ``n``): a row whose phase 1 ended degenerate is basic in its
    slack, at zero.  ``(basis, vstatus)`` is a valid ``start`` for a later
    solve on the same ``A``.  ``warm`` tells whether the result was reached
    from the given start (False when there was none or it was refused and
    the solve ran cold)."""
    __slots__ = ("status", "x", "basis", "vstatus", "objective", "iterations",
                 "warm")

    def __init__(self, status, x, basis, vstatus, objective, iterations,
                 warm=False):
        self.status = status  # 'optimal' | 'infeasible' | 'unbounded'
        self.x = x
        self.basis = basis
        self.vstatus = vstatus
        self.objective = objective
        self.iterations = iterations
        self.warm = warm


def solve(a: Matrix | sp.csc_matrix, b: np.ndarray, c: np.ndarray,
          lo: np.ndarray, hi: np.ndarray,
          start: tuple[np.ndarray, np.ndarray] | None = None,
          max_iter: int | None = None) -> SimplexResult:
    """Solve from ``start`` if it fits, else cold in two phases from a crash
    basis (see ``_solve_once``).  ``a`` is a :class:`Matrix` or a CSC
    matrix.  All lower bounds must be finite (callers split or shift free
    variables).  The last ``m`` columns of ``A`` must be the rows' slacks:
    column ``n - m + i`` has one nonzero, in row ``i``; ``ValueError``
    otherwise.  The result's basis holds no index ``>= n``, and a fixed
    column (``lo == hi``) never enters the basis.

    ``start`` is an optional (basis, vstatus) pair, as returned on an
    earlier result for the same ``A``; ``b``, ``c`` and the bounds may
    differ.  A start that is primal feasible under the current bounds runs
    primal phase 2.  One that is not, but is dual feasible once boxed
    nonbasics with a wrong-sign reduced cost sit at their other bound, runs
    the dual simplex and then phase 2.  A start of the wrong shape, one
    that is neither, or one whose warm run fails numerically or hits the
    iteration limit is ignored, and the solve runs cold.
    ``SimplexResult.warm`` tells which happened.

    Numerical failures climb a recovery ladder: the solve as asked, then a
    cold solve under Bland's rule, then a cold solve that refactorizes every
    ``SAFE_ETA_REFRESH`` pivots.
    """
    mat = a if isinstance(a, Matrix) else Matrix(a)
    rungs = ((start, False, ETA_REFRESH), (None, True, ETA_REFRESH),
             (None, False, SAFE_ETA_REFRESH))
    for k, (warm, bland, refresh) in enumerate(rungs):
        try:
            return _solve_once(mat, b, c, lo, hi, warm, max_iter, bland,
                               refresh)
        except NumericalFailure:
            if k == len(rungs) - 1:
                raise
    raise NumericalFailure("unreachable")


def _check_slacks(a_csc):
    """``ValueError`` unless column ``n - m + i`` of ``A`` has its one
    nonzero in row ``i``, for every row ``i``."""
    m, n = a_csc.shape
    ptr = a_csc.indptr[max(n - m, 0):]
    if (m > n or np.any(np.diff(ptr) != 1) or not np.all(a_csc.data[ptr[:-1]])
            or np.any(a_csc.indices[ptr[:-1]] != np.arange(m))):
        raise ValueError("the last m columns of A must be the rows' slacks")


def _solve_once(mat, b, c, lo, hi, start, max_iter, bland_everywhere,
                refresh):
    """One solve: from ``start`` when ``_try_warm`` accepts it, else cold.
    The cold path puts every structural at its lower bound and starts from
    the crash basis of ``_crash``: a row whose residual a singleton column
    absorbs within that column's bounds has that column basic, and every
    other row its artificial column.  Phase 1 minimizes the sum of the
    artificials, phase 2 the objective with the artificials fixed at
    zero.  An artificial still basic (at zero) after phase 2 is swapped for
    its row's slack, which is nonbasic at zero: both are multiples of the
    same unit column, so the point and the basis's rank do not change."""
    a_csc = mat.a
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
            res = _try_warm(mat, b, c, lo, hi, start, max_iter,
                            bland_everywhere, refresh)
        except NumericalFailure:
            res = None
        if res is not None:
            return res

    # Phase 1 from the crash basis; a crashed row's artificial is fixed at
    # zero.  Every basic column has one nonzero, in its own row, so the
    # basis is a permuted diagonal and cannot be singular.
    vstatus = np.full(n, AT_LOWER, dtype=np.int8)
    x = lo.copy()
    resid = b - a_csc @ x
    rows, cols, step = _crash(a_csc, resid, lo, hi)
    x[cols] += step
    resid[rows] = 0.0
    vstatus[cols] = IS_BASIC
    sign = np.where(resid >= 0.0, 1.0, -1.0)
    art = sp.diags(sign).tocsc()
    a_ext = sp.hstack([a_csc, art], format="csc")
    lo_ext = np.concatenate([lo, np.zeros(m)])
    hi_ext = np.concatenate([hi, np.full(m, np.inf)])
    hi_ext[n + rows] = 0.0
    x_ext = np.concatenate([x, np.abs(resid)])
    vstatus_ext = np.concatenate([vstatus, np.full(m, IS_BASIC, dtype=np.int8)])
    vstatus_ext[n + rows] = AT_LOWER
    basis = np.arange(n, n + m, dtype=np.int64)
    basis[rows] = cols

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    state = _State(a_ext, b, lo_ext, hi_ext, basis, vstatus_ext, x_ext,
                   _Factor(a_ext, basis, refresh + 1))
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
    state.basis[state.basis >= n] -= m   # artificial n + i -> slack n - m + i
    state.vstatus[state.basis] = IS_BASIC
    xs = state.x[:n]
    return SimplexResult("optimal", xs, state.basis, state.vstatus[:n].copy(),
                         float(c @ xs), it1 + it2)


def _crash(a_csc, resid, lo, hi):
    """Crash basis columns for the cold start, from the residual ``b - A lo``.
    A column with a single nonzero ``a[i, j]`` can take row ``i``'s residual
    when the value it then needs, ``lo[j] + resid[i] / a[i, j]``, lies within
    its bounds; each row takes the lowest-index such column.  Returns the
    crashed rows, their columns and each column's step above its lower
    bound."""
    single = np.flatnonzero(np.diff(a_csc.indptr) == 1)
    pos = a_csc.indptr[single]
    keep = np.abs(a_csc.data[pos]) > PIVOT_TOL    # no stored zeros
    single, pos = single[keep], pos[keep]
    coef = a_csc.data[pos]
    row = a_csc.indices[pos]
    step = resid[row] / coef
    fits = (step >= 0.0) & (step <= hi[single] - lo[single])
    rows, first = np.unique(row[fits], return_index=True)
    return rows, single[fits][first], step[fits][first]


def _try_warm(mat, b, c, lo, hi, start, max_iter, bland, refresh):
    """Re-optimize from a previous basis; None if the start does not fit
    ``A`` (an index ``>= n`` included) or is neither primal nor dual
    feasible.  A primal feasible start runs phase 2 alone; a dual feasible
    one runs the dual simplex first."""
    basis, vstatus = start
    m, n = mat.a.shape
    if len(basis) != m or len(vstatus) != n:
        return None
    if basis.min() < 0 or basis.max() >= n:
        return None
    if not np.array_equal(np.flatnonzero(vstatus == IS_BASIC), np.sort(basis)):
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
    basis = basis.copy()
    try:
        factor = _Factor(mat.a, basis, refresh + 1)
    except NumericalFailure:
        return None
    state = _State(mat.a, b, lo, hi, basis, vstatus, x, factor, at=mat.at)
    state.solve_basics()
    it = 0
    if state.violations().max(initial=0.0) > FEAS_TOL:
        if not _flip_to_dual_feasible(state, c):
            return None
        it = _dual_iterate(state, c, max_iter, bland, refresh)
        if it is None:
            raise NumericalFailure("dual simplex iteration limit")
        if state.infeasible:
            return SimplexResult("infeasible", None, None, None, None, it,
                                 warm=True)
    it2 = _iterate(state, c, max_iter, bland, refresh)
    if it2 is None:
        raise NumericalFailure("warm phase 2 iteration limit")
    if state.unbounded:
        return SimplexResult("unbounded", None, None, None, None, it + it2,
                             warm=True)
    return SimplexResult("optimal", state.x, state.basis, state.vstatus,
                         float(c @ state.x), it + it2, warm=True)


def _flip_to_dual_feasible(state, c):
    """Move each boxed nonbasic whose reduced cost has the wrong sign to its
    other bound.  False if an unboxed one has the wrong sign: the basis is
    then not dual feasible."""
    d = state.reduced_costs(c)
    low = (state.vstatus == AT_LOWER) & (d < -OPT_TOL)
    up = (state.vstatus == AT_UPPER) & (d > OPT_TOL)
    if np.any(low & ~np.isfinite(state.hi)):
        return False
    if not (low.any() or up.any()):
        return True
    state.vstatus[low] = AT_UPPER
    state.x[low] = state.hi[low]
    state.vstatus[up] = AT_LOWER
    state.x[up] = state.lo[up]
    state.solve_basics()
    return True


class _State:
    """A basis and its point during a solve.  ``at`` is ``A^T`` in CSR
    form, transposed here when not given."""

    def __init__(self, a_csc, b, lo, hi, basis, vstatus, x, factor, at=None):
        self.a = a_csc
        self.at = a_csc.T.tocsr() if at is None else at
        self.b = b
        self.lo = lo
        self.hi = hi
        self.basis = basis
        self.vstatus = vstatus
        self.x = x
        self.factor = factor
        self.unbounded = False
        self.infeasible = False

    def refresh(self):
        self.factor.refactor(self.basis)
        self.solve_basics()

    def solve_basics(self):
        """Basic values from the nonbasic ones: x_B = B^-1 (b - N x_N)."""
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.factor.ftran(self.b - self.a @ xn)

    def violations(self):
        """Distance of each basic value outside its bounds (<= 0 inside)."""
        xb = self.x[self.basis]
        return np.maximum(self.lo[self.basis] - xb, xb - self.hi[self.basis])

    def reduced_costs(self, c):
        return c - self.at @ self.factor.btran(c[self.basis])

    def column(self, j):
        v = np.zeros(self.a.shape[0])
        s, e = self.a.indptr[j], self.a.indptr[j + 1]
        v[self.a.indices[s:e]] = self.a.data[s:e]
        return v


def _iterate(state, c, max_iter, bland_everywhere, refresh):
    """Run pivots until optimal/unbounded, refactorizing once more than
    ``refresh`` eta updates have piled up.  A fixed column never enters.
    Returns iteration count, or None if the iteration limit was hit."""
    state.unbounded = False
    movable = state.lo < state.hi
    stall = 0
    for it in range(max_iter):
        if state.factor.age > refresh:
            state.refresh()
        z = state.reduced_costs(c)
        nb_low = (state.vstatus == AT_LOWER) & (z < -OPT_TOL)
        nb_up = (state.vstatus == AT_UPPER) & (z > OPT_TOL)
        cand = np.flatnonzero((nb_low | nb_up) & movable)
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


def _dual_iterate(state, c, max_iter, bland_everywhere, refresh):
    """Dual simplex from a dual feasible basis until every basic value is
    within its bounds.  The leaving row has the largest bound violation;
    the entering column passes a two-pass (Harris) ratio test that keeps
    reduced costs within ``OPT_TOL`` of their signs and prefers large
    pivots.  Returns the iteration count, or None at the iteration limit.
    A violated row that no nonbasic column can repair proves the LP
    infeasible and sets ``state.infeasible``."""
    state.infeasible = False
    m = state.a.shape[0]
    movable = state.lo < state.hi
    stall = 0
    for it in range(max_iter):
        if state.factor.age > refresh:
            state.refresh()
        viol = state.violations()
        bland = bland_everywhere or stall > STALL_LIMIT
        if bland:
            rows = np.flatnonzero(viol > FEAS_TOL)
            if rows.size == 0:
                return it
            r = int(rows[np.argmin(state.basis[rows])])
        else:
            r = int(np.argmax(viol))
            if viol[r] <= FEAS_TOL:
                return it
        p = int(state.basis[r])
        s = 1.0 if state.x[p] < state.lo[p] else -1.0   # +1: p rises to lo
        unit = np.zeros(m)
        unit[r] = 1.0
        alpha = state.at @ state.factor.btran(unit)      # row r of B^-1 A
        sig = np.where(state.vstatus == AT_LOWER, 1.0, -1.0)
        cand = np.flatnonzero((state.vstatus != IS_BASIC) & movable
                              & (s * sig * alpha < -PIVOT_TOL))
        if cand.size == 0:
            if state.factor.age:
                state.refresh()
                continue
            state.infeasible = True
            return it
        d = state.reduced_costs(c)
        dj = np.maximum(sig[cand] * d[cand], 0.0)
        aj = np.abs(alpha[cand])
        ratio = dj / aj
        if bland:
            ties = np.flatnonzero(ratio <= ratio.min() + 1e-12)
            pick = int(ties[0])
        else:
            ties = np.flatnonzero(ratio <= ((dj + OPT_TOL) / aj).min())
            pick = int(ties[np.argmax(aj[ties])])
        q = int(cand[pick])
        stall = stall + 1 if ratio[pick] < 1e-12 else 0

        col = state.factor.ftran(state.column(q))
        if abs(col[r] - alpha[q]) > 1e-6 * max(1.0, abs(col[r])):
            if state.factor.age:
                state.refresh()
                continue
            raise NumericalFailure("dual simplex pivot mismatch")
        target = state.lo[p] if s > 0 else state.hi[p]
        delta = (state.x[p] - target) / col[r]
        state.x[state.basis] -= col * delta
        state.x[q] += delta
        state.x[p] = target
        state.vstatus[p] = AT_LOWER if s > 0 else AT_UPPER
        state.basis[r] = q
        state.vstatus[q] = IS_BASIC
        state.factor.push(r, col)
    return None
