"""Generic MILP layer: model container, LP solve, branch and bound, export.

A :class:`LinearModel` keeps its columns as arrays (bounds, kinds and the
objective vector) and its rows as :class:`Constraint` dicts.  ``add_var``
appends a column and ``set_column`` is the one way to change one, so every
column a solve reads has passed the same checks.

Every LP relaxation runs on HiGHS's simplex behind ``simplex.solve``;
branch and bound, cut rounds and their warm starts stay here.  HiGHS gets
the model as it is: its rows as ranged rows, its columns with their own
bounds and costs (negated for a maximization).  A model compiles its rows
once, straight into one ``simplex.Matrix`` (:func:`compile_rows`: the
coefficients as one sparse matrix and the row bounds ``rlo``/``rhi``), and
compiles only the rows appended since at its next solve; the column arrays
are read afresh at every solve, so a model re-priced between solves re-uses
its rows and sends HiGHS only its changed costs.

Branch and bound uses best-bound node selection, most-fractional branching
(ties to the lowest variable index), and an optional root cut hook that is
called with every fractional root LP solution.  Cut rounds append their
rows to a block local to the solve, so the model is left as it was.  The
first root LP starts from a given basis, or else from a basis built at the
seeded incumbent (:func:`seed_start`), and cold only without either.  Each
root LP after a cut round restarts from the previous one's basis with the
new rows basic (:func:`extend_start`), and each node LP from its parent's
optimal basis, so the dual simplex repairs the violated cut or branching
bound.  The last root LP's rows serve the nodes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import simplex
from .simplex import NumericalFailure

INT_TOL = 1e-6
DEFAULT_REL_GAP = 1e-4
DEFAULT_CUT_ROUNDS = 20

CONTINUOUS, BINARY, INTEGER = "continuous", "binary", "integer"
KINDS = (CONTINUOUS, BINARY, INTEGER)       # a column's kind code indexes this
CONTINUOUS_CODE, BINARY_CODE = KINDS.index(CONTINUOUS), KINDS.index(BINARY)
LE, GE, EQ = "<=", ">=", "=="


class ModelError(Exception):
    """Model invariant violated."""


class IoError(Exception):
    """Model export failed."""


@dataclass(frozen=True)
class Variable:
    """A read-only view of one column of a :class:`LinearModel`."""
    name: str
    lb: float
    ub: float
    kind: str = CONTINUOUS


@dataclass
class Constraint:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str = ""


@dataclass
class Cut:
    """A valid inequality produced by a separation routine."""
    coeffs: dict[int, float]
    sense: str
    rhs: float
    tag: str = ""  # disjunctive | star_partition | size_facet | hull

    def validate(self) -> None:
        if not self.coeffs:
            raise ModelError("cut with empty support")
        for v in self.coeffs.values():
            if not np.isfinite(v):
                raise ModelError("cut with non-finite coefficient")
        if not np.isfinite(self.rhs):
            raise ModelError("cut with non-finite right-hand side")


class LinearModel:
    """Sparse MILP: columns with bounds, kinds and costs, linear rows, one
    objective.

    The columns are arrays, read through read-only views: ``lb``, ``ub``,
    ``kind`` (codes into ``KINDS``) and the objective vector ``c``, with
    the names in ``names``.  ``add_var`` appends a column and
    :meth:`set_column` changes one; both reject a NaN bound, ``lb = +inf``,
    ``ub = -inf`` and ``lb > ub``, and clip a binary column to [0, 1].
    The rows stay :class:`Constraint` dicts in ``constraints``."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.names: list[str] = []
        self._lb = np.empty(0)
        self._ub = np.empty(0)
        self._kind = np.empty(0, dtype=np.int8)
        self._c = np.empty(0)
        self.constraints: list[Constraint] = []
        self.obj_constant = 0.0
        self.obj_sense = "min"
        self._rows: simplex.Matrix | None = None    # see compiled_rows

    def _view(self, a: np.ndarray) -> np.ndarray:
        v = a[:len(self.names)]
        v.flags.writeable = False
        return v

    @property
    def lb(self) -> np.ndarray:
        return self._view(self._lb)

    @property
    def ub(self) -> np.ndarray:
        return self._view(self._ub)

    @property
    def kind(self) -> np.ndarray:
        return self._view(self._kind)

    @property
    def c(self) -> np.ndarray:
        """The objective coefficient of each column."""
        return self._view(self._c)

    @property
    def obj_coeffs(self) -> dict[int, float]:
        """The nonzero objective coefficients by column."""
        c = self.c
        nz = np.flatnonzero(c)
        return dict(zip(nz.tolist(), c[nz].tolist()))

    @property
    def variables(self) -> list[Variable]:
        """Each column as a read-only :class:`Variable`, built on each
        read."""
        return [Variable(*col) for col in zip(
            self.names, self.lb.tolist(), self.ub.tolist(),
            [KINDS[k] for k in self.kind.tolist()])]

    def add_var(self, name: str, lb: float = 0.0, ub: float = np.inf,
                kind: str = CONTINUOUS) -> int:
        lb, ub, code = _checked_column(name, lb, ub, kind)
        j = len(self.names)
        if j == len(self._lb):
            grow = max(8, j)
            self._lb = np.concatenate([self._lb, np.empty(grow)])
            self._ub = np.concatenate([self._ub, np.empty(grow)])
            self._kind = np.concatenate([self._kind,
                                         np.empty(grow, dtype=np.int8)])
            self._c = np.concatenate([self._c, np.zeros(grow)])
        self._lb[j], self._ub[j], self._kind[j] = lb, ub, code
        self.names.append(name)
        return j

    def set_column(self, j: int, lb: float | None = None,
                   ub: float | None = None, kind: str | None = None) -> None:
        """Change the bounds or the kind of column ``j``, with the checks
        of ``add_var``; an argument left None keeps its value."""
        if not 0 <= j < self.num_vars:
            raise ModelError(f"unknown column {j}")
        self._lb[j], self._ub[j], self._kind[j] = _checked_column(
            self.names[j], self._lb[j] if lb is None else lb,
            self._ub[j] if ub is None else ub,
            KINDS[self._kind[j]] if kind is None else kind)

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float,
                       name: str = "") -> int:
        self.constraints.append(_row(coeffs, sense, rhs, name, self.num_vars))
        return len(self.constraints) - 1

    def set_objective(self, coeffs, constant: float = 0.0,
                      sense: str = "min") -> None:
        """Objective ``coeffs``, a dict of column -> coefficient (the
        columns it leaves out cost 0) or a vector with one coefficient per
        column."""
        if sense not in ("min", "max"):
            raise ModelError(f"bad objective sense {sense!r}")
        if not math.isfinite(constant):
            raise ModelError(f"non-finite objective constant {constant}")
        nv = self.num_vars
        if isinstance(coeffs, dict):
            for j, v in coeffs.items():
                if j < 0 or j >= nv:
                    raise ModelError(f"objective references unknown column {j}")
                if not math.isfinite(v):
                    raise ModelError(f"non-finite objective coefficient {v}")
            c = np.zeros(nv)
            c[list(coeffs)] = list(coeffs.values())
        else:
            c = np.asarray(coeffs, dtype=float)
            if c.shape != (nv,):
                raise ModelError(f"objective of shape {c.shape} "
                                 f"for {nv} columns")
            finite = np.isfinite(c)
            if not finite.all():
                raise ModelError("non-finite objective coefficient "
                                 f"{c[np.argmin(finite)]}")
        self._c[:nv] = c + 0.0          # -0.0 becomes 0.0
        self.obj_constant = float(constant)
        self.obj_sense = sense

    def add_cut(self, cut: Cut) -> int:
        self.constraints.append(
            _cut_row(cut, self.num_vars, len(self.constraints)))
        return len(self.constraints) - 1

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def integer_indices(self) -> np.ndarray:
        return np.flatnonzero(self.kind != CONTINUOUS_CODE)

    def validate(self) -> None:
        """``ModelError`` naming the lowest-index column whose bounds
        ``add_var`` would reject, or a binary column outside [0, 1]."""
        lb, ub, kind = self.lb, self.ub, self.kind
        bad = ~(lb <= ub + 1e-15) | (lb == np.inf) | (ub == -np.inf) | (
            (kind == BINARY_CODE) & ((lb < -1e-15) | (ub > 1 + 1e-15)))
        if bad.any():
            j = int(np.argmax(bad))
            _checked_column(self.names[j], float(lb[j]), float(ub[j]),
                            CONTINUOUS)
            raise ModelError(f"binary {self.names[j]} has bounds outside [0,1]")

    def compiled_rows(self) -> simplex.Matrix:
        """The model's rows as one ``simplex.Matrix`` (see
        :func:`compile_rows`).  The rows appended since the last call are
        compiled below the rows before them into a new matrix; an unchanged
        model gets the same matrix back.  Rows are never edited in place,
        so only a change in the column count, or rows taken off the list,
        compiles every row afresh."""
        rows, nv, m = self._rows, self.num_vars, self.num_constraints
        if rows is None or rows.a.shape[1] != nv or rows.a.shape[0] > m:
            rows = compile_rows(self.constraints, nv)
        elif rows.a.shape[0] < m:
            rows = compile_rows(self.constraints[rows.a.shape[0]:], nv, rows)
        self._rows = rows
        return rows

    def copy(self) -> "LinearModel":
        m = LinearModel(self.name)
        m.names = list(self.names)
        m._lb, m._ub = self._lb.copy(), self._ub.copy()
        m._kind, m._c = self._kind.copy(), self._c.copy()
        m.constraints = [Constraint(dict(c.coeffs), c.sense, c.rhs, c.name)
                         for c in self.constraints]
        m.obj_constant = self.obj_constant
        m.obj_sense = self.obj_sense
        return m


def _checked_column(name: str, lb: float, ub: float,
                    kind: str) -> tuple[float, float, int]:
    """``(lb, ub, kind code)`` of a column, a binary one clipped to [0, 1];
    ``ModelError`` for an unknown kind or bounds that admit no value."""
    if kind not in KINDS:
        raise ModelError(f"variable {name}: unknown kind {kind!r}")
    if math.isnan(lb) or math.isnan(ub):
        raise ModelError(f"variable {name}: NaN bound")
    if lb == math.inf or ub == -math.inf:
        raise ModelError(f"variable {name}: infinite bound lb {lb}, ub {ub}")
    if kind == BINARY:
        lb = max(lb, 0.0)
        ub = min(ub, 1.0)
    if lb > ub + 1e-15:
        raise ModelError(f"variable {name}: lb {lb} > ub {ub}")
    return float(lb), float(ub), KINDS.index(kind)


def _row(coeffs: dict[int, float], sense: str, rhs: float, name: str,
         nv: int) -> Constraint:
    """A checked row over ``nv`` columns, zero coefficients dropped."""
    if sense not in (LE, GE, EQ):
        raise ModelError(f"bad sense {sense!r}")
    if not math.isfinite(rhs):
        raise ModelError(f"constraint {name!r} has non-finite rhs {rhs}")
    clean = {}
    for j, v in coeffs.items():
        if j < 0 or j >= nv:
            raise ModelError(f"constraint {name!r} references unknown column {j}")
        if not math.isfinite(v):
            raise ModelError(
                f"constraint {name!r} has non-finite coefficient {v}")
        if v != 0.0:
            clean[int(j)] = float(v)
    return Constraint(clean, sense, float(rhs), name)


def _cut_row(cut: Cut, nv: int, i: int) -> Constraint:
    """The checked row of ``cut`` as row ``i`` of a model."""
    cut.validate()
    return _row(cut.coeffs, cut.sense, cut.rhs, f"cut_{cut.tag}_{i}", nv)


@dataclass
class LpSolution:
    status: str                 # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray | None
    basis: object | None = None     # the HighsBasis HiGHS ended on

    def value(self, j: int) -> float:
        return float(self.x[j])


@dataclass
class MipSolution:
    # optimal | feasible | infeasible | unbounded | time_limit | node_limit.
    # A limit that stops the search with an incumbent gives feasible (gap
    # above rel_gap) or optimal; without one it gives time_limit or
    # node_limit.  unbounded: the root relaxation is unbounded, and so is
    # the MILP whenever it has a feasible point (rational data).
    status: str
    objective: float | None
    x: np.ndarray | None
    bound: float | None
    gap: float | None
    nodes: int
    wall_time: float
    cuts_added: int = 0
    root_bound: float | None = None
    # HighsBasis of the final root LP, cut rows included; a valid
    # ``root_start`` for a model with the same rows and columns
    root_basis: object | None = None

    def value(self, j: int) -> float:
        return float(self.x[j])


def compile_rows(constraints: list[Constraint], nv: int,
                 above: simplex.Matrix | None = None) -> simplex.Matrix:
    """``constraints`` over ``nv`` columns as one ``simplex.Matrix``: the
    coefficients as a CSR matrix ``a`` (each row's entries in the order of
    its coefficient dict) and ranged rows, ``(-inf, rhs]`` for ``<=``,
    ``[rhs, inf)`` for ``>=`` and ``[rhs, rhs]`` for ``==``.  With
    ``above``, the new matrix holds its rows and then these; ``above`` is
    left as it was, so a solve's cut rounds leave the model's rows alone."""
    cols, vals = [], []
    for con in constraints:
        cols.extend(con.coeffs)
        vals.extend(con.coeffs.values())
    indptr = np.zeros(len(constraints) + 1, dtype=np.int32)
    np.cumsum([len(con.coeffs) for con in constraints], out=indptr[1:])
    a = sp.csr_matrix((np.asarray(vals, dtype=float),
                       np.asarray(cols, dtype=np.int32), indptr),
                      shape=(len(constraints), nv))
    rlo = [-np.inf if con.sense == LE else con.rhs for con in constraints]
    rhi = [np.inf if con.sense == GE else con.rhs for con in constraints]
    if above is None:
        return simplex.Matrix(a, rlo, rhi)
    return simplex.Matrix(sp.vstack([above.a, a], format="csr"),
                          np.concatenate([above.rlo, rlo]),
                          np.concatenate([above.rhi, rhi]))


def _columns(model: LinearModel):
    """The model's column data for HiGHS: ``(c, lo, hi, sign)``, the
    objective negated for a maximization (``sign`` -1) and copies of the
    bounds."""
    sign = -1.0 if model.obj_sense == "max" else 1.0
    return sign * model.c, model.lb.copy(), model.ub.copy(), sign


def solve_lp(model: LinearModel, start=None) -> LpSolution:
    """Solve the LP relaxation (integrality ignored) to a basic solution.
    ``start`` is an optional ``basis`` of an earlier solution (see
    ``simplex.solve``)."""
    model.validate()
    c, lo, hi, sign = _columns(model)
    return _solve(model.compiled_rows(), c, lo, hi, sign, model.obj_constant,
                  start)


def _solve(rows: simplex.Matrix, c, lo, hi, sign: float,
           obj_constant: float, start=None) -> LpSolution:
    """Solve min ``c.x`` over ``rows`` and the column bounds ``lo``/``hi``,
    reporting ``sign * c.x + obj_constant``."""
    res = simplex.solve(rows, c, lo, hi, start=start)
    if res.status != "optimal":
        return LpSolution(res.status, None, None)
    return LpSolution("optimal", sign * res.objective + obj_constant, res.x,
                      basis=res.basis)


def seed_start(rows: simplex.Matrix, lo, hi, point):
    """Start for the LP of ``rows`` under column bounds ``lo``/``hi`` at
    ``point``, a feasible point of the model.  A column at a bound is
    nonbasic at that bound, and every row is basic.  A column strictly
    inside its bounds replaces its only row, which must be at a bound at
    the point and becomes nonbasic there.  None when there is no such
    start: a point outside its bounds or rows, or an interior column in
    several rows or sharing its row with another one.  ``simplex.solve``
    still checks the start and ignores one that does not fit."""
    tol = simplex.FEAS_TOL
    x = np.asarray(point, dtype=float)
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        return None
    at_lo = np.abs(x - lo) <= tol
    at_hi = ~at_lo & (np.abs(x - hi) <= tol)
    act = rows.a @ np.where(at_lo, lo, np.where(at_hi, hi, x))
    rlo, rhi = rows.rlo, rows.rhi
    if np.any(act < rlo - tol) or np.any(act > rhi + tol):
        return None
    cols = np.where(at_hi, simplex.UPPER, simplex.LOWER).tolist()
    row_status = [simplex.BASIC] * rows.a.shape[0]
    a = rows.csc
    for j in np.flatnonzero(~(at_lo | at_hi)).tolist():
        s, e = a.indptr[j], a.indptr[j + 1]
        if e - s != 1:
            return None
        i = a.indices[s]
        if row_status[i] != simplex.BASIC:
            return None
        if abs(act[i] - rlo[i]) <= tol:
            row_status[i] = simplex.LOWER
        elif abs(act[i] - rhi[i]) <= tol:
            row_status[i] = simplex.UPPER
        else:
            return None
        cols[j] = simplex.BASIC
    return simplex.make_basis(cols, row_status)


def extend_start(start, k: int):
    """Start for the LP of a model after ``k`` rows were appended, from
    ``start``, the ``basis`` of the LP before.  The appended rows join the
    basis; no column moves.  The reduced costs do not change, so an
    optimal start stays dual feasible, and a violated new row is repaired
    by the dual simplex."""
    return simplex.make_basis(start.col_status,
                              start.row_status + [simplex.BASIC] * k)


def _fractional(x, int_idx: np.ndarray) -> list[tuple[int, float]]:
    """``(j, x[j])`` for each column ``j`` of ``int_idx`` whose value is
    more than ``INT_TOL`` from an integer, in the order of ``int_idx``."""
    v = x[int_idx]
    frac = np.abs(v - np.floor(v + 0.5)) > INT_TOL
    return list(zip(int_idx[frac].tolist(), v[frac].tolist()))


def check_solution(model: LinearModel, x, tol: float = 1e-6) -> float:
    """Objective of ``x`` if it satisfies every bound, integrality
    requirement and row; raises ModelError otherwise.  The message names
    the lowest-index column out of its bounds or not integral (the bounds
    checked first), else the lowest-index violated row.  A NaN violates
    every bound, row and integrality requirement.  The objective adds the
    nonzero terms in column order, one by one, as a loop over them would."""
    x = np.asarray(x, dtype=float)
    nv = model.num_vars
    if len(x) < nv:
        raise ModelError(f"point has {len(x)} values for {nv} columns")
    xv = x[:nv]
    integral = model.kind != CONTINUOUS_CODE
    out = ~((xv >= model.lb - tol) & (xv <= model.ub + tol))
    bad = out | (integral & ~(np.abs(xv - np.round(xv)) <= tol))
    if bad.any():
        j = int(np.argmax(bad))
        what = "violates its bounds" if out[j] else "not integral"
        raise ModelError(f"value of {model.names[j]} {what}")
    rows = model.compiled_rows()
    lhs, rlo, rhi = rows.a @ xv, rows.rlo, rows.rhi
    ok = np.where(rlo == rhi, np.abs(lhs - rlo) <= tol,
                  (lhs >= rlo - tol) & (lhs <= rhi + tol))
    if not ok.all():
        i = int(np.argmin(ok))
        raise ModelError(f"row {model.constraints[i].name!r} violated")
    c = model.c
    nz = np.flatnonzero(c)
    terms = np.cumsum(c[nz] * xv[nz])       # added one by one, in order
    return (float(terms[-1]) if nz.size else 0.0) + model.obj_constant


def _check_limits(rel_gap: float, time_limit_s: float | None) -> None:
    if not (math.isfinite(rel_gap) and rel_gap >= 0.0):
        raise ValueError(f"rel_gap must be finite and >= 0, got {rel_gap}")
    if time_limit_s is not None and math.isnan(time_limit_s):
        raise ValueError("time_limit_s is NaN")


def solve_mip(model: LinearModel, rel_gap: float = DEFAULT_REL_GAP,
              time_limit_s: float | None = None,
              node_limit: int | None = None,
              root_cut_hook=None,
              cut_rounds: int = DEFAULT_CUT_ROUNDS,
              initial_solution=None, root_start=None) -> MipSolution:
    """Branch and bound with best-bound node selection.

    The LPs are solved on the model's compiled rows (compiled at the
    first solve and extended by the rows added since at each later one)
    with its current bounds and objective.
    ``root_cut_hook(lp_solution)`` may return a list of :class:`Cut`; it is
    invoked repeatedly on fractional root relaxations until it returns no
    cuts or ``cut_rounds`` rounds have run.  Cuts never fire below the root.
    They are appended to a block local to the solve, so neither the
    model's rows nor its compiled rows change.  Each root LP after a cut
    round restarts from the previous root basis with the cuts' rows basic
    (see :func:`extend_start`), and each node LP from its parent's optimal
    basis, the very ``HighsBasis`` of the parent's result, under the
    node's column bounds; both children of a node share that one start.
    HiGHS re-optimizes from such a start, and runs cold only when the
    start does not fit.
    ``initial_solution`` seeds the incumbent (it must be feasible); a root
    LP reported infeasible despite it raises ``NumericalFailure``.
    ``root_start`` warm-starts the first root LP: pass the ``root_basis`` of
    an earlier solve of a model that differs only in its objective.  Without
    one, the first root LP starts from ``initial_solution`` when
    :func:`seed_start` can turn it into a basis, so the simplex starts at
    the seed's vertex.  A start that does not fit is ignored (see
    ``simplex.solve``).  A node limit stops the search with status
    ``node_limit``, or ``feasible``/``optimal`` by the gap when an incumbent
    exists.  An unbounded root relaxation gives status ``unbounded``, with
    or without an incumbent.  ``ValueError`` for a ``rel_gap`` that is
    negative or not finite, or a NaN ``time_limit_s``.
    """
    _check_limits(rel_gap, time_limit_s)
    model.validate()
    t0 = time.perf_counter()
    int_idx = model.integer_indices()
    minimize = model.obj_sense == "min"
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
    wall = lambda: time.perf_counter() - t0

    incumbent = None
    incumbent_x = None
    if initial_solution is not None:
        incumbent = check_solution(model, initial_solution)
        incumbent_x = np.asarray(initial_solution, dtype=float)

    cuts_added = 0
    rows = model.compiled_rows()
    c, lo_col, hi_col, sign = _columns(model)

    def lp_solve(lo, hi, start):
        return _solve(rows, c, lo, hi, sign, model.obj_constant, start)

    start = root_start
    if start is None and incumbent_x is not None:
        start = seed_start(rows, lo_col, hi_col, incumbent_x)
    root = lp_solve(lo_col, hi_col, start)
    rounds = 0
    while (root.status == "optimal" and root_cut_hook is not None
           and rounds < cut_rounds and _fractional(root.x, int_idx)):
        cuts = root_cut_hook(root)
        if not cuts:
            break
        m = rows.a.shape[0]
        rows = compile_rows([_cut_row(cut, model.num_vars, m + i)
                             for i, cut in enumerate(cuts)],
                            model.num_vars, rows)
        cuts_added += len(cuts)
        rounds += 1
        root = lp_solve(lo_col, hi_col, extend_start(root.basis, len(cuts)))

    if root.status == "infeasible" and incumbent is not None:
        raise NumericalFailure("root LP reported infeasible, but the "
                               "initial solution is feasible")
    if root.status in ("infeasible", "unbounded"):
        return MipSolution(root.status, None, None, None, None, 1, wall(),
                           cuts_added)
    root_bound = root.objective
    root_basis = root.basis

    def slack(inc):
        return rel_gap * max(abs(inc), 1e-10)

    def cutoff(bound, inc):
        if inc is None:
            return False
        return (bound >= inc - slack(inc)) if minimize \
            else (bound <= inc + slack(inc))

    # The final root's rows serve every node; nodes only patch variable
    # bounds.  A child tightens the bound of a variable that is
    # fractional, hence basic, in its parent's LP: the parent's optimal
    # basis stays dual feasible but is primal infeasible, so the node LP
    # runs the dual simplex from it.
    def node_lp(overrides, start):
        lo = lo_col.copy()
        hi = hi_col.copy()
        for j, (l, u) in overrides.items():
            lo[j] = max(lo[j], l)
            hi[j] = min(hi[j], u)
            if lo[j] > hi[j] + 1e-15:
                return LpSolution("infeasible", None, None)
        return lp_solve(lo, hi, start)

    nodes = 1
    counter = 0
    heap: list = []
    pruned_bounds: list[float] = []

    def push(bound, overrides, start):
        nonlocal counter
        key = bound if minimize else -bound
        heapq.heappush(heap, (key, counter, bound, overrides, start))
        counter += 1

    frac = _fractional(root.x, int_idx)
    if not frac:
        if incumbent is None or better(root.objective, incumbent):
            incumbent, incumbent_x = root.objective, root.x.copy()
        return MipSolution("optimal", incumbent, incumbent_x, root.objective,
                           0.0, nodes, wall(), cuts_added, root_bound,
                           root_basis)
    if cutoff(root.objective, incumbent):
        return MipSolution("optimal", incumbent, incumbent_x, root.objective,
                           abs(incumbent - root.objective)
                           / max(abs(incumbent), 1e-10),
                           nodes, wall(), cuts_added, root_bound, root_basis)
    push(root.objective, {}, None)
    first = True

    status = "optimal"
    while heap:
        if time_limit_s is not None and wall() > time_limit_s:
            status = "time_limit"
            break
        if node_limit is not None and nodes >= node_limit:
            status = "node_limit"
            break
        key, cnt, bound, overrides, start = heapq.heappop(heap)
        if cutoff(bound, incumbent):
            pruned_bounds.append(bound)
            continue
        if first:
            lp = root
            first = False
        else:
            lp = node_lp(overrides, start)
            nodes += 1
        if lp.status != "optimal":
            continue
        if cutoff(lp.objective, incumbent):
            pruned_bounds.append(lp.objective)
            continue
        frac = _fractional(lp.x, int_idx)
        if not frac:
            if incumbent is None or better(lp.objective, incumbent):
                incumbent, incumbent_x = lp.objective, lp.x.copy()
            continue
        # Most fractional, ties to lowest index.
        jbest, fbest = -1, -1.0
        for j, xj in frac:
            f = xj - np.floor(xj)
            score = min(f, 1.0 - f)
            if score > fbest + 1e-12:
                jbest, fbest = j, score
        xj = lp.x[jbest]
        own = (float(lo_col[jbest]), float(hi_col[jbest]))
        down = dict(overrides)
        down[jbest] = (down.get(jbest, own)[0], float(np.floor(xj)))
        up = dict(overrides)
        up[jbest] = (float(np.ceil(xj)), up.get(jbest, own)[1])
        push(lp.objective, down, lp.basis)
        push(lp.objective, up, lp.basis)

    # Final bound: best over open and cutoff-pruned nodes plus the incumbent.
    open_bounds = [entry[2] for entry in heap] + pruned_bounds
    if incumbent is None:
        if open_bounds:
            bnd = min(open_bounds) if minimize else max(open_bounds)
        else:
            bnd = root_bound
        st = "infeasible" if status == "optimal" else status
        return MipSolution(st, None, None, bnd, None, nodes, wall(),
                           cuts_added, root_bound, root_basis)
    if open_bounds:
        bnd = min(open_bounds + [incumbent]) if minimize \
            else max(open_bounds + [incumbent])
    else:
        bnd = incumbent
    g = abs(incumbent - bnd) / max(abs(incumbent), 1e-10)
    st = "feasible" if (status != "optimal" and g > rel_gap) else "optimal"
    return MipSolution(st, incumbent, incumbent_x, bnd, g, nodes, wall(),
                       cuts_added, root_bound, root_basis)


# ---------------------------------------------------------------------------
# Model export
# ---------------------------------------------------------------------------

def _num(v: float) -> str:
    """Fixed-point decimal rendering, no exponents, trailing zeros trimmed."""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    s = f"{v:.12f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def _safe_names(names, prefix):
    out = []
    seen = set()
    for i, nm in enumerate(names):
        nm = (nm or "").strip().replace(" ", "_")
        if not nm or nm in seen or len(nm) > 60:
            nm = f"{prefix}{i}"
        seen.add(nm)
        out.append(nm)
    return out


def write_model(model: LinearModel, fmt: str, path: str) -> None:
    """Write the model as fixed-format MPS or CPLEX LP."""
    fmt = fmt.upper()
    if fmt not in ("MPS", "LP"):
        raise IoError(f"unknown format {fmt!r}")
    text = _to_mps(model) if fmt == "MPS" else _to_lp(model)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _to_mps(model: LinearModel) -> str:
    vnames = _safe_names(model.names, "X")
    cnames = _safe_names([con.name for con in model.constraints], "R")
    lbs, ubs, costs = model.lb.tolist(), model.ub.tolist(), model.c.tolist()
    kinds = [KINDS[k] for k in model.kind.tolist()]
    sense_code = {LE: "L", GE: "G", EQ: "E"}
    lines = [f"NAME          {model.name.upper()[:8] or 'MODEL'}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for i, con in enumerate(model.constraints):
        lines.append(f" {sense_code[con.sense]}  {cnames[i]}")
    lines.append("COLUMNS")
    col_rows: list[list[tuple[str, float]]] = [[] for _ in vnames]
    for i, con in enumerate(model.constraints):
        for j, v in sorted(con.coeffs.items()):
            col_rows[j].append((cnames[i], v))
    obj_sign = 1.0 if model.obj_sense == "min" else -1.0
    in_int = False
    marker = 0
    for j, oc in enumerate(costs):
        entries = []
        if oc:
            entries.append(("COST", obj_sign * oc))
        entries.extend(col_rows[j])
        if not entries:
            entries.append(("COST", 0.0))
        integral = kinds[j] != CONTINUOUS
        if integral and not in_int:
            lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTORG'")
            marker += 1
            in_int = True
        if not integral and in_int:
            lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")
            marker += 1
            in_int = False
        for k in range(0, len(entries), 2):
            pair = entries[k:k + 2]
            row = f"    {vnames[j]:<10}{pair[0][0]:<10}{_num(pair[0][1]):>12}"
            if len(pair) == 2:
                row += f"   {pair[1][0]:<10}{_num(pair[1][1]):>12}"
            lines.append(row)
    if in_int:
        lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")
    lines.append("RHS")
    for i, con in enumerate(model.constraints):
        if con.rhs != 0.0:
            lines.append(f"    RHS       {cnames[i]:<10}{_num(con.rhs):>12}")
    lines.append("BOUNDS")
    for nm, lb, ub, kind in zip(vnames, lbs, ubs, kinds):
        if kind == BINARY:
            lines.append(f" BV BND       {nm}")
            continue
        if lb == 0.0 and np.isinf(ub):
            continue
        if np.isinf(lb) and lb < 0:
            lines.append(f" MI BND       {nm}")
        elif lb != 0.0:
            code = "LI" if kind == INTEGER else "LO"
            lines.append(f" {code} BND       {nm:<10}{_num(lb):>12}")
        if np.isfinite(ub):
            code = "UI" if kind == INTEGER else "UP"
            lines.append(f" {code} BND       {nm:<10}{_num(ub):>12}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _expr(coeffs: dict[int, float], vnames) -> str:
    parts = []
    for j, v in sorted(coeffs.items()):
        sign = "-" if v < 0 else "+"
        parts.append(f"{sign} {_num(abs(v))} {vnames[j]}")
    if not parts:
        return "0"
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else s


def _to_lp(model: LinearModel) -> str:
    vnames = _safe_names(model.names, "x")
    cnames = _safe_names([con.name for con in model.constraints], "c")
    kinds = [KINDS[k] for k in model.kind.tolist()]
    lines = ["Minimize" if model.obj_sense == "min" else "Maximize"]
    lines.append(f" obj: {_expr(model.obj_coeffs, vnames)}")
    lines.append("Subject To")
    op = {LE: "<=", GE: ">=", EQ: "="}
    for i, con in enumerate(model.constraints):
        lines.append(f" {cnames[i]}: {_expr(con.coeffs, vnames)} "
                     f"{op[con.sense]} {_num(con.rhs)}")
    lines.append("Bounds")
    for nm, lb, ub, kind in zip(vnames, model.lb.tolist(), model.ub.tolist(),
                                kinds):
        if kind == BINARY:
            continue
        low = "-inf" if np.isinf(lb) else _num(lb)
        high = "+inf" if np.isinf(ub) else _num(ub)
        lines.append(f" {low} <= {nm} <= {high}")
    bins = [nm for nm, kind in zip(vnames, kinds) if kind == BINARY]
    if bins:
        lines.append("Binaries")
        lines.append(" " + " ".join(bins))
    gens = [nm for nm, kind in zip(vnames, kinds) if kind == INTEGER]
    if gens:
        lines.append("Generals")
        lines.append(" " + " ".join(gens))
    lines.append("End")
    return "\n".join(lines) + "\n"
