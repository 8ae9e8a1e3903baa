"""Generic MILP layer: model container, LP solve, branch and bound, export.

Every LP relaxation runs on HiGHS's simplex behind ``simplex.solve``;
branch and bound, cut rounds and their warm starts stay here.  The LPs are
solved on a standard form (:func:`_standard_form`) that gives every row a
slack column, last, so a basis is always a set of its columns and
appending rows moves none.  A model compiles its rows once
(:class:`CompiledRows`: the coefficients as one sparse matrix, the
right-hand sides and the senses) and compiles only the rows appended since
at its next solve; the column data (bounds, kinds, objective) is read
afresh at every solve, so a model re-priced between solves re-uses its
rows.  The standard-form matrix, with its slack columns and the HiGHS
instance that holds it, is kept with the rows for the last column layout
(which columns are negated or split), so a re-priced model sends HiGHS
only its changed costs.

Branch and bound uses best-bound node selection, most-fractional branching
(ties to the lowest variable index), and an optional root cut hook that is
called with every fractional root LP solution.  Cut rounds append their
rows to a standard form local to the solve, so the model is left as it
was.  The first root LP starts from a given basis, or else from a basis
built at the seeded incumbent (:func:`seed_start`), and cold only without
either.  Each root LP after a cut round restarts from the previous one's
basis with the new rows' slacks basic (:func:`extend_start`), and each node
LP from its parent's optimal basis, so the dual simplex repairs the
violated cut or branching bound.  The last root LP's standard form serves
the nodes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import simplex
from .simplex import NumericalFailure

INT_TOL = 1e-6
FEAS_TOL = 1e-7
DEFAULT_REL_GAP = 1e-4
DEFAULT_CUT_ROUNDS = 20

CONTINUOUS, BINARY, INTEGER = "continuous", "binary", "integer"
LE, GE, EQ = "<=", ">=", "=="


class ModelError(Exception):
    """Model invariant violated."""


class IoError(Exception):
    """Model export failed."""


@dataclass
class Variable:
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
    """Sparse MILP: variables with bounds/kinds, linear rows, one objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.obj_coeffs: dict[int, float] = {}
        self.obj_constant = 0.0
        self.obj_sense = "min"
        self._rows: CompiledRows | None = None     # see compiled_rows

    def add_var(self, name: str, lb: float = 0.0, ub: float = np.inf,
                kind: str = CONTINUOUS) -> int:
        if math.isnan(lb) or math.isnan(ub):
            raise ModelError(f"variable {name}: NaN bound")
        if kind == BINARY:
            lb = max(lb, 0.0)
            ub = min(ub, 1.0)
        if lb > ub + 1e-15:
            raise ModelError(f"variable {name}: lb {lb} > ub {ub}")
        self.variables.append(Variable(name, float(lb), float(ub), kind))
        return len(self.variables) - 1

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float,
                       name: str = "") -> int:
        self.constraints.append(_row(coeffs, sense, rhs, name, self.num_vars))
        return len(self.constraints) - 1

    def set_objective(self, coeffs: dict[int, float], constant: float = 0.0,
                      sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"bad objective sense {sense!r}")
        if not math.isfinite(constant):
            raise ModelError(f"non-finite objective constant {constant}")
        nv = len(self.variables)
        for j, v in coeffs.items():
            if j < 0 or j >= nv:
                raise ModelError(f"objective references unknown column {j}")
            if not math.isfinite(v):
                raise ModelError(f"non-finite objective coefficient {v}")
        self.obj_coeffs = {int(j): float(v) for j, v in coeffs.items() if v != 0.0}
        self.obj_constant = float(constant)
        self.obj_sense = sense

    def add_cut(self, cut: Cut) -> int:
        self.constraints.append(
            _cut_row(cut, self.num_vars, len(self.constraints)))
        return len(self.constraints) - 1

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def integer_indices(self) -> list[int]:
        return [j for j, v in enumerate(self.variables) if v.kind != CONTINUOUS]

    def validate(self) -> None:
        for j, v in enumerate(self.variables):
            if v.lb > v.ub + 1e-15:
                raise ModelError(f"variable {v.name}: lb > ub")
            if v.kind == BINARY and (v.lb < -1e-15 or v.ub > 1 + 1e-15):
                raise ModelError(f"binary {v.name} has bounds outside [0,1]")

    def compiled_rows(self) -> "CompiledRows":
        """The model's rows, compiled.  The rows appended since the last
        call are compiled and appended to the block; an unchanged model
        gets the same block back.  Rows are never edited in place, so only
        a change in the column count, or rows taken off the list, compiles
        every row afresh."""
        rows, nv, m = self._rows, self.num_vars, self.num_constraints
        if rows is None or rows.a.shape[1] != nv or rows.m > m:
            rows = CompiledRows.compile(self.constraints, nv)
        elif rows.m < m:
            rows = rows.extend(self.constraints[rows.m:])
        self._rows = rows
        return rows

    def copy(self) -> "LinearModel":
        m = LinearModel(self.name)
        m.variables = [Variable(v.name, v.lb, v.ub, v.kind) for v in self.variables]
        m.constraints = [Constraint(dict(c.coeffs), c.sense, c.rhs, c.name)
                         for c in self.constraints]
        m.obj_coeffs = dict(self.obj_coeffs)
        m.obj_constant = self.obj_constant
        m.obj_sense = self.obj_sense
        return m


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
    basis: np.ndarray | None = None
    vstatus: np.ndarray | None = None
    is_vertex: bool = False

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
    # (basis, vstatus) of the final root LP in standard form; a valid
    # ``root_start`` for a model with the same rows, columns and bounds
    root_basis: tuple | None = None

    def value(self, j: int) -> float:
        return float(self.x[j])


class CompiledRows:
    """Compiled rows: their coefficients over the model's own columns as
    one CSR matrix ``a`` (each row's entries in the order of its
    coefficient dict), the right-hand sides ``b`` and the senses.
    Immutable: :meth:`extend` returns a new block, so a solve's cut rounds
    leave the model's block as it was.  The standard-form matrix built
    from it is kept for the last column layout asked for (:meth:`matrix`).
    """
    __slots__ = ("a", "b", "senses", "_matrix")

    def __init__(self, a: sp.csr_matrix, b: np.ndarray, senses: np.ndarray):
        self.a = a
        self.b = b
        self.senses = senses
        self._matrix = None        # (layout key, simplex.Matrix)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @classmethod
    def compile(cls, constraints: list[Constraint],
                nv: int) -> "CompiledRows":
        cols, vals = [], []
        for con in constraints:
            cols.extend(con.coeffs)
            vals.extend(con.coeffs.values())
        indptr = np.zeros(len(constraints) + 1, dtype=np.int32)
        np.cumsum([len(con.coeffs) for con in constraints], out=indptr[1:])
        a = sp.csr_matrix((np.asarray(vals, dtype=float),
                           np.asarray(cols, dtype=np.int32), indptr),
                          shape=(len(constraints), nv))
        return cls(a, np.array([con.rhs for con in constraints], dtype=float),
                   np.array([con.sense for con in constraints], dtype=object))

    def extend(self, constraints: list[Constraint]) -> "CompiledRows":
        """This block with ``constraints`` appended below it."""
        new = CompiledRows.compile(constraints, self.a.shape[1])
        return CompiledRows(sp.vstack([self.a, new.a], format="csr"),
                     np.concatenate([self.b, new.b]),
                     np.concatenate([self.senses, new.senses]))

    def matrix(self, flip: np.ndarray, splits: np.ndarray) -> simplex.Matrix:
        """``[A F, -A[:, splits], S]`` in CSC form: the block with its
        columns scaled by ``flip`` (+1 or -1 each), the negated split
        columns, and one slack per row, +1 for ``<=`` and ``==`` and -1
        for ``>=``."""
        key = (np.flatnonzero(flip < 0).tobytes(), splits.tobytes())
        if self._matrix is None or self._matrix[0] != key:
            a = self.a.tocsc()
            m, nv = a.shape
            data = a.data * np.repeat(flip, np.diff(a.indptr))
            neg = a[:, splits]
            nnz = a.nnz + neg.nnz
            full = sp.csc_matrix(
                (np.concatenate([data, -neg.data,
                                 np.where(self.senses == GE, -1.0, 1.0)]),
                 np.concatenate([a.indices, neg.indices,
                                 np.arange(m, dtype=a.indices.dtype)]),
                 np.concatenate([a.indptr, a.nnz + neg.indptr[1:],
                                 nnz + np.arange(1, m + 1)])),
                shape=(m, nv + splits.size + m))
            self._matrix = (key, simplex.Matrix(full))
        return self._matrix[1]


def _columns(model: LinearModel):
    """The model's column data in standard form, slacks left out:
    ``(c, lo, hi, flip, splits, sign)``, the objective and bounds of its
    own columns and then of the negative parts of its split columns, the
    sign of each own column, the split columns, and the objective's sign
    (-1 for a maximization)."""
    nv = model.num_vars
    lo = np.array([v.lb for v in model.variables], dtype=float)
    hi = np.array([v.ub for v in model.variables], dtype=float)
    c = np.zeros(nv)
    for j, v in model.obj_coeffs.items():
        c[j] = v
    sign = 1.0
    if model.obj_sense == "max":
        c = -c
        sign = -1.0
    # lb = -inf with a finite ub: x -> -x.  Fully free: x -> x+ - x-.
    down = np.isneginf(lo)
    flip = np.where(down & np.isfinite(hi), -1.0, 1.0)
    splits = np.flatnonzero(down & np.isposinf(hi))
    k = splits.size
    c = np.concatenate([c * flip, -c[splits]])
    lo, hi = np.where(flip < 0, -hi, lo), np.where(flip < 0, np.inf, hi)
    lo[splits] = 0.0
    return (c, np.concatenate([lo, np.zeros(k)]),
            np.concatenate([hi, np.full(k, np.inf)]), flip, splits, sign)


class StandardForm(NamedTuple):
    """Equality form ``A x = b, lo <= x <= hi`` of a model's LP relaxation.

    The columns are the model's own, then the negative part of each free
    column, then one slack per row: the slack of row ``i`` is column
    ``n - m + i``.  A ``<=`` row's slack has coefficient +1 and a ``>=``
    row's -1, both in ``[0, inf)``; an ``==`` row's slack has +1 and is
    fixed at ``[0, 0]``.  This is the layout ``simplex.solve`` requires,
    and appending rows never moves a column.  A column with only an upper
    bound is negated (``flip`` is -1), a free one split (``splits``), so
    every column has a finite lower bound; ``sign`` is -1 for a
    maximization, whose ``c`` is negated.  ``matrix`` is ``a`` with the
    HiGHS instance that solves its LPs.
    """
    a: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    matrix: simplex.Matrix
    rows: CompiledRows
    flip: np.ndarray
    splits: np.ndarray
    sign: float

    @property
    def reformed(self) -> bool:
        """Whether any column was negated or split."""
        return bool(self.splits.size or np.any(self.flip < 0))

    def recover(self, x_int: np.ndarray) -> np.ndarray:
        """The model's columns of a standard-form point."""
        nv = len(self.flip)
        x = x_int[:nv] * self.flip
        x[self.splits] -= x_int[nv:nv + self.splits.size]
        return x

    def extend(self, constraints: list[Constraint]) -> "StandardForm":
        """The standard form after ``constraints`` are appended as rows."""
        n = len(self.c) - self.rows.m
        return _assemble(self.rows.extend(constraints), self.c[:n],
                         self.lo[:n], self.hi[:n], self.flip, self.splits,
                         self.sign)


def _assemble(rows: CompiledRows, c, lo, hi, flip, splits,
              sign) -> StandardForm:
    """The standard form of ``rows`` and the column data of
    :func:`_columns`."""
    matrix = rows.matrix(flip, splits)
    m = rows.m
    return StandardForm(
        matrix.a, rows.b, np.concatenate([c, np.zeros(m)]),
        np.concatenate([lo, np.zeros(m)]),
        np.concatenate([hi, np.where(rows.senses == EQ, 0.0, np.inf)]),
        matrix, rows, flip, splits, sign)


def _standard_form(model: LinearModel) -> StandardForm:
    """The model's standard form: its compiled rows (see
    :meth:`LinearModel.compiled_rows`) with its current column data."""
    return _assemble(model.compiled_rows(), *_columns(model))


def solve_lp(model: LinearModel, start=None) -> LpSolution:
    """Solve the LP relaxation (integrality ignored) to a basic solution.
    ``start`` is an optional (basis, vstatus) of the standard form (see
    ``simplex.solve``)."""
    model.validate()
    return _solve_standard(_standard_form(model), model.obj_constant,
                           start=start)


def _solve_standard(sf: StandardForm, obj_constant: float, lo=None, hi=None,
                    start=None) -> LpSolution:
    """Solve the standard form ``sf``, optionally under other column bounds
    ``lo``/``hi``, and map the answer back to the model's columns."""
    res = simplex.solve(sf.matrix, sf.b, sf.c,
                        sf.lo if lo is None else lo,
                        sf.hi if hi is None else hi, start=start)
    if res.status != "optimal":
        return LpSolution(res.status, None, None)
    return LpSolution("optimal", sf.sign * res.objective + obj_constant,
                      sf.recover(res.x), basis=res.basis, vstatus=res.vstatus,
                      is_vertex=not sf.reformed)


def seed_start(sf, point) -> tuple | None:
    """Start ``(basis, vstatus)`` for the standard form ``sf`` at ``point``,
    a feasible point of the model in its own columns.  A column at a bound
    is nonbasic at that bound, and every row is basic in its slack (an
    ``==`` row's fixed slack is basic at zero).  A column strictly inside
    its bounds replaces the slack of its only row, which must be zero at
    the point.  None when there is no such start: a model with negated or
    split columns, a point outside its bounds or rows, or an interior
    column in several rows or sharing its row with another one.
    ``simplex.solve`` still checks the start and ignores one that does not
    fit."""
    a, b, lo, hi = sf.a, sf.b, sf.lo, sf.hi
    if sf.reformed:
        return None
    m, n = a.shape
    nv = n - m
    x = np.asarray(point, dtype=float)
    lo_x, hi_x = lo[:nv], hi[:nv]
    if np.any(x < lo_x - FEAS_TOL) or np.any(x > hi_x + FEAS_TOL):
        return None
    at_lo = np.abs(x - lo_x) <= FEAS_TOL
    at_hi = ~at_lo & (np.abs(x - hi_x) <= FEAS_TOL)
    resid = b - a[:, :nv] @ np.where(at_lo, lo_x, np.where(at_hi, hi_x, x))
    # The slack of row i is column nv + i, with its one entry in row i.
    value = resid / a.data[a.indptr[nv:n]]
    if (np.any(value < lo[nv:] - FEAS_TOL)
            or np.any(value > hi[nv:] + FEAS_TOL)):
        return None
    basis = np.arange(nv, n, dtype=np.int64)
    vstatus = np.full(n, simplex.IS_BASIC, dtype=np.int8)
    vstatus[:nv] = np.where(at_hi, simplex.AT_UPPER, simplex.AT_LOWER)
    for j in np.flatnonzero(~(at_lo | at_hi)):
        s, e = a.indptr[j], a.indptr[j + 1]
        if e - s != 1:
            return None
        i = a.indices[s]
        if basis[i] < nv or abs(value[i]) > FEAS_TOL:
            return None
        vstatus[basis[i]] = simplex.AT_LOWER
        basis[i] = j
        vstatus[j] = simplex.IS_BASIC
    return basis, vstatus


def extend_start(start, k: int):
    """Start for the LP of a model after ``k`` rows were appended, from
    ``start``, the (basis, vstatus) of the LP before.  The appended rows'
    slacks are the last ``k`` columns of the new standard form and join the
    basis; no other column moves.  The reduced costs do not change, so an
    optimal start stays dual feasible, and a violated new row is repaired
    by the dual simplex."""
    basis, vstatus = start
    n = len(vstatus) + k
    return (np.concatenate([basis, np.arange(n - k, n, dtype=np.int64)]),
            np.concatenate([vstatus, np.full(k, simplex.IS_BASIC,
                                             dtype=np.int8)]))


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
    every bound, row and integrality requirement."""
    x = np.asarray(x, dtype=float)
    nv = model.num_vars
    if len(x) < nv:
        raise ModelError(f"point has {len(x)} values for {nv} columns")
    xv = x[:nv]
    lb = np.array([v.lb for v in model.variables], dtype=float)
    ub = np.array([v.ub for v in model.variables], dtype=float)
    integral = np.array([v.kind != CONTINUOUS for v in model.variables],
                        dtype=bool)
    out = ~((xv >= lb - tol) & (xv <= ub + tol))
    bad = out | (integral & ~(np.abs(xv - np.round(xv)) <= tol))
    if bad.any():
        j = int(np.argmax(bad))
        what = "violates its bounds" if out[j] else "not integral"
        raise ModelError(f"value of {model.variables[j].name} {what}")
    rows = model.compiled_rows()
    lhs, rhs, senses = rows.a @ xv, rows.b, rows.senses
    ok = np.where(senses == LE, lhs <= rhs + tol,
                  np.where(senses == GE, lhs >= rhs - tol,
                           np.abs(lhs - rhs) <= tol))
    if not ok.all():
        i = int(np.argmin(ok))
        raise ModelError(f"row {model.constraints[i].name!r} violated")
    return sum(c * x[j] for j, c in model.obj_coeffs.items()) + model.obj_constant


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

    The LPs are solved on the model's standard form: its compiled rows
    (compiled at the first solve and extended by the rows added since at
    each later one) with its current bounds and objective.
    ``root_cut_hook(lp_solution)`` may return a list of :class:`Cut`; it is
    invoked repeatedly on fractional root relaxations until it returns no
    cuts or ``cut_rounds`` rounds have run.  Cuts never fire below the root.
    They are appended to a standard form local to the solve, so neither
    the model's rows nor its compiled rows change.  Each root LP after a
    cut round restarts from the previous root basis with the cuts' slacks
    basic (see :func:`extend_start`), and each node LP from its parent's
    optimal basis under the node's column bounds; both children of a node
    share that one start.  HiGHS re-optimizes from such a start, and runs
    cold only when the start does not fit.
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
    int_idx = np.array(model.integer_indices(), dtype=np.int64)
    minimize = model.obj_sense == "min"
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
    wall = lambda: time.perf_counter() - t0

    incumbent = None
    incumbent_x = None
    if initial_solution is not None:
        incumbent = check_solution(model, initial_solution)
        incumbent_x = np.asarray(initial_solution, dtype=float)

    cuts_added = 0
    sf = _standard_form(model)
    start = root_start
    if start is None and incumbent_x is not None:
        start = seed_start(sf, incumbent_x)
    root = _solve_standard(sf, model.obj_constant, start=start)
    rounds = 0
    while (root.status == "optimal" and root_cut_hook is not None
           and rounds < cut_rounds and _fractional(root.x, int_idx)):
        cuts = root_cut_hook(root)
        if not cuts:
            break
        m = sf.rows.m
        sf = sf.extend([_cut_row(cut, model.num_vars, m + i)
                        for i, cut in enumerate(cuts)])
        cuts_added += len(cuts)
        rounds += 1
        root = _solve_standard(sf, model.obj_constant,
                               start=extend_start((root.basis, root.vstatus),
                                                  len(cuts)))

    if root.status == "infeasible" and incumbent is not None:
        raise NumericalFailure("root LP reported infeasible, but the "
                               "initial solution is feasible")
    if root.status in ("infeasible", "unbounded"):
        return MipSolution(root.status, None, None, None, None, 1, wall(),
                           cuts_added)
    root_bound = root.objective
    root_basis = (root.basis, root.vstatus) if root.basis is not None else None

    def slack(inc):
        return rel_gap * max(abs(inc), 1e-10)

    def cutoff(bound, inc):
        if inc is None:
            return False
        return (bound >= inc - slack(inc)) if minimize \
            else (bound <= inc + slack(inc))

    # The final root's standard form serves every node; nodes only patch
    # variable bounds.  A child tightens the bound of a variable that is
    # fractional, hence basic, in its parent's LP: the parent's optimal
    # basis stays dual feasible but is primal infeasible, so the node LP
    # runs the dual simplex from it.
    lo_std, hi_std = sf.lo, sf.hi

    def node_lp(overrides, start):
        lo = lo_std.copy()
        hi = hi_std.copy()
        for j, (l, u) in overrides.items():
            lo[j] = max(lo[j], l)
            hi[j] = min(hi[j], u)
            if lo[j] > hi[j] + 1e-15:
                return LpSolution("infeasible", None, None)
        return _solve_standard(sf, model.obj_constant, lo, hi, start=start)

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
        var = model.variables[jbest]
        down = dict(overrides)
        down[jbest] = (down.get(jbest, (var.lb, var.ub))[0],
                       float(np.floor(xj)))
        up = dict(overrides)
        up[jbest] = (float(np.ceil(xj)), up.get(jbest, (var.lb, var.ub))[1])
        start = (lp.basis, lp.vstatus)
        push(lp.objective, down, start)
        push(lp.objective, up, start)

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


def _safe_names(items, prefix):
    out = []
    seen = set()
    for i, it in enumerate(items):
        nm = (it.name or "").strip().replace(" ", "_")
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
    vnames = _safe_names(model.variables, "X")
    cnames = _safe_names(model.constraints, "R")
    sense_code = {LE: "L", GE: "G", EQ: "E"}
    lines = [f"NAME          {model.name.upper()[:8] or 'MODEL'}"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for i, con in enumerate(model.constraints):
        lines.append(f" {sense_code[con.sense]}  {cnames[i]}")
    lines.append("COLUMNS")
    col_rows: list[list[tuple[str, float]]] = [[] for _ in model.variables]
    for i, con in enumerate(model.constraints):
        for j, v in sorted(con.coeffs.items()):
            col_rows[j].append((cnames[i], v))
    obj_sign = 1.0 if model.obj_sense == "min" else -1.0
    in_int = False
    marker = 0
    for j, var in enumerate(model.variables):
        entries = []
        oc = model.obj_coeffs.get(j, 0.0)
        if oc:
            entries.append(("COST", obj_sign * oc))
        entries.extend(col_rows[j])
        if not entries:
            entries.append(("COST", 0.0))
        integral = var.kind != CONTINUOUS
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
    for j, var in enumerate(model.variables):
        nm = vnames[j]
        if var.kind == BINARY:
            lines.append(f" BV BND       {nm}")
            continue
        if var.lb == 0.0 and np.isinf(var.ub):
            continue
        if np.isinf(var.lb) and var.lb < 0:
            lines.append(f" MI BND       {nm}")
        elif var.lb != 0.0:
            code = "LI" if var.kind == INTEGER else "LO"
            lines.append(f" {code} BND       {nm:<10}{_num(var.lb):>12}")
        if np.isfinite(var.ub):
            code = "UI" if var.kind == INTEGER else "UP"
            lines.append(f" {code} BND       {nm:<10}{_num(var.ub):>12}")
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
    vnames = _safe_names(model.variables, "x")
    cnames = _safe_names(model.constraints, "c")
    lines = ["Minimize" if model.obj_sense == "min" else "Maximize"]
    lines.append(f" obj: {_expr(model.obj_coeffs, vnames)}")
    lines.append("Subject To")
    op = {LE: "<=", GE: ">=", EQ: "="}
    for i, con in enumerate(model.constraints):
        lines.append(f" {cnames[i]}: {_expr(con.coeffs, vnames)} "
                     f"{op[con.sense]} {_num(con.rhs)}")
    lines.append("Bounds")
    for j, var in enumerate(model.variables):
        if var.kind == BINARY:
            continue
        lb = "-inf" if np.isinf(var.lb) else _num(var.lb)
        ub = "+inf" if np.isinf(var.ub) else _num(var.ub)
        lines.append(f" {lb} <= {vnames[j]} <= {ub}")
    bins = [vnames[j] for j, v in enumerate(model.variables) if v.kind == BINARY]
    if bins:
        lines.append("Binaries")
        lines.append(" " + " ".join(bins))
    gens = [vnames[j] for j, v in enumerate(model.variables) if v.kind == INTEGER]
    if gens:
        lines.append("Generals")
        lines.append(" " + " ".join(gens))
    lines.append("End")
    return "\n".join(lines) + "\n"
