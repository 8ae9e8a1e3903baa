"""Generic MILP layer: model container, LP solve, branch and bound.

A :class:`LinearModel` keeps its columns as arrays (bounds, kinds and the
objective vector) and its rows as one sparse block in compressed rows (each
row's columns and coefficients, in the order given, and its bounds
``rlo``/``rhi``).  ``add_vars`` appends columns and ``set_column`` is the
one way to change one; ``add_rows`` appends rows.  Each checks what it
appends, so every column and row a solve reads has passed the same checks;
``add_var`` and ``add_constraint`` are their one-column and one-row calls.
``without`` copies a model without some of its columns and rows.

Every LP relaxation runs on HiGHS's simplex behind ``simplex.solve``;
branch and bound, cut rounds and their warm starts stay here.  HiGHS gets
the model as it is: its rows as ranged rows, its columns with their own
bounds and costs (negated for a maximization).  A model's rows are one
``simplex.Matrix`` over the row block (:meth:`LinearModel.compiled_rows`),
made again only when rows or columns were appended; the column arrays are
read afresh at every solve, so a model re-priced between solves re-uses
its rows and sends HiGHS only its changed costs.  Rows appended to a
model, or to a :class:`Relaxation`, go to the HiGHS instance of the rows
above them, which HiGHS keeps with its basis (see ``simplex.Matrix``); the
copy ``without`` makes takes over the instance, which deletes the rows and
columns left out and keeps what is left of the basis.  HiGHS instances are
reused once their matrices are dropped.

Branch and bound uses best-bound node selection, most-fractional branching
(ties to the lowest variable index), and an optional root cut hook that is
called with every fractional root LP solution.  A solve's LPs run on its
:class:`Relaxation`; the root cut rounds (:meth:`Relaxation.cut_rounds`,
which the scheduling bound report runs too) append their rows to it, so
the model is left as it was.  The final root LP is the search's first
node, pruned, kept or branched on as every node is, and one deadline,
counted from the solve's start, stops the cut rounds and the search
alike.  The first root LP starts from a given basis,
or else from a basis built at the seeded incumbent (:func:`seed_start`),
and cold only without either.  Each root LP after a cut round restarts
from the previous one's basis with the new rows basic, the basis HiGHS
holds once it has the rows, and each node LP from its parent's optimal
basis, so the dual simplex repairs the violated cut or branching bound.

The search runs on one tree over the whole model.  Independent parts are
split by the caller: ``scheduling.solve_schedule`` builds one model per
component.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from itertools import compress, count

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
SENSES = (LE, GE, EQ)


class ModelError(Exception):
    """Model invariant violated."""


@dataclass(frozen=True)
class Constraint:
    """A read-only view of one row of a :class:`LinearModel`."""
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
    tag: str = ""  # its row is cut_<tag>_<row>; cuts.py tags "disjunctive"

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
    the names in ``names``.  :meth:`add_vars` appends columns and
    :meth:`set_column` changes one; both reject a NaN bound, ``lb = +inf``,
    ``ub = -inf`` and ``lb > ub``, and clip a binary column to [0, 1].

    The rows are one block in compressed sparse rows, with the bounds
    ``rlo``/``rhi`` of each row (``(-inf, rhs]`` for ``<=``, ``[rhs, inf)``
    for ``>=``, ``[rhs, rhs]`` for ``==``) and the names in ``row_names``.
    :meth:`add_rows` appends rows; rows never change once appended.
    ``constraints`` reads them back as :class:`Constraint` views.  Each
    array has exactly one entry per column, row or coefficient; appending
    concatenates into new arrays, so an array read before keeps its size."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.names: list[str] = []
        self._lb = np.empty(0)
        self._ub = np.empty(0)
        self._kind = np.empty(0, dtype=np.int8)
        self._c = np.empty(0)
        self.row_names: list[str] = []
        self._indptr = np.zeros(1, dtype=np.int32)
        self._indices = np.empty(0, dtype=np.int32)
        self._data = np.empty(0)
        self._rlo = np.empty(0)
        self._rhi = np.empty(0)
        self.obj_constant = 0.0
        self.obj_sense = "min"
        self._rows: simplex.Matrix | None = None    # see compiled_rows

    @staticmethod
    def _view(a: np.ndarray) -> np.ndarray:
        v = a.view()
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
    def rlo(self) -> np.ndarray:
        return self._view(self._rlo)

    @property
    def rhi(self) -> np.ndarray:
        return self._view(self._rhi)

    @property
    def obj_coeffs(self) -> dict[int, float]:
        """The nonzero objective coefficients by column."""
        c = self.c
        nz = np.flatnonzero(c)
        return dict(zip(nz.tolist(), c[nz].tolist()))

    @property
    def constraints(self) -> list[Constraint]:
        """Each row as a read-only :class:`Constraint`, built on each read:
        its coefficients in the order they were given, its sense and
        right-hand side read off its bounds."""
        ptr = self._indptr.tolist()
        cols, vals = self._indices.tolist(), self._data.tolist()
        out = []
        for i, (lo, hi, name) in enumerate(zip(self._rlo.tolist(),
                                               self._rhi.tolist(),
                                               self.row_names)):
            s, e = ptr[i], ptr[i + 1]
            sense = LE if lo == -math.inf else GE if hi == math.inf else EQ
            out.append(Constraint(dict(zip(cols[s:e], vals[s:e])), sense,
                                  hi if sense == LE else lo, name))
        return out

    def add_vars(self, names, lb=0.0, ub=np.inf, kind=CONTINUOUS) -> range:
        """Append one column per name.  ``lb``, ``ub`` and ``kind`` are
        one value for every column or one per column; a kind is a name from
        ``KINDS`` or, in an integer array, its code.  ``ModelError`` for the
        first column ``add_var`` would reject, with its message; none is
        appended then.  Returns the new columns' indices."""
        names = list(names)
        n, j = len(names), self.num_vars
        lb, ub = (np.full(n, v, dtype=float) if np.ndim(v) == 0
                  else np.asarray(v, dtype=float) for v in (lb, ub))
        if isinstance(kind, str):
            code = np.full(n, _KIND_CODE.get(kind, -1), dtype=np.int8)
        elif isinstance(kind, np.ndarray) and kind.dtype.kind in "iu":
            code = np.where((kind >= 0) & (kind < len(KINDS)), kind,
                            -1).astype(np.int8)
        else:
            code = np.fromiter((_KIND_CODE.get(k, -1) for k in kind),
                               dtype=np.int8, count=n)
        binary = code == BINARY_CODE
        lo = np.where(binary, np.maximum(lb, 0.0), lb)
        hi = np.where(binary, np.minimum(ub, 1.0), ub)
        # false where _checked_column raises, NaN bounds included
        ok = (code >= 0) & (lo <= hi + 1e-15) & (lb < np.inf) & (ub > -np.inf)
        if not ok.all():
            i = int(np.argmin(ok))
            k = kind if isinstance(kind, str) else kind[i]
            if isinstance(k, np.integer):
                k = KINDS[k] if code[i] >= 0 else k.item()
            _checked_column(names[i], float(lb[i]), float(ub[i]), k)
        self._lb = np.concatenate([self._lb, lo])
        self._ub = np.concatenate([self._ub, hi])
        self._kind = np.concatenate([self._kind, code])
        self._c = np.concatenate([self._c, np.zeros(n)])
        self.names += names
        return range(j, j + n)

    def add_var(self, name: str, lb: float = 0.0, ub: float = np.inf,
                kind: str = CONTINUOUS) -> int:
        return self.add_vars([name], lb, ub, [kind])[0]

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

    def add_rows(self, indptr, indices, data, sense, rhs, names) -> range:
        """Append rows given in compressed sparse rows: row ``i`` has the
        coefficients ``data[indptr[i]:indptr[i + 1]]`` on the columns
        ``indices[indptr[i]:indptr[i + 1]]``, in that order.  ``sense`` and
        ``rhs`` are one value for every row or one per row; ``names`` has
        one per row.  Zero coefficients are dropped.  ``ModelError`` for
        the first row ``add_constraint`` would reject, with its message, or
        a row naming a column twice; none is appended then.  Returns the
        new rows' indices."""
        ptr, cols, vals, rlo, rhi = _checked_rows(
            indptr, indices, data, sense, rhs, names, self.num_vars)
        i, nnz = self.num_constraints, len(self._data)
        self._indices = np.concatenate([self._indices, cols])
        self._data = np.concatenate([self._data, vals])
        self._indptr = np.concatenate([self._indptr, ptr[1:] + nnz])
        self._rlo = np.concatenate([self._rlo, rlo])
        self._rhi = np.concatenate([self._rhi, rhi])
        self.row_names += names
        return range(i, i + len(names))

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float,
                       name: str = "") -> int:
        return self.add_rows([0, len(coeffs)], list(coeffs),
                             list(coeffs.values()), [sense], [rhs], [name])[0]

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
        self._c[:] = c + 0.0            # -0.0 becomes 0.0
        self.obj_constant = float(constant)
        self.obj_sense = sense

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_constraints(self) -> int:
        return len(self.row_names)

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
        """The model's rows as one ``simplex.Matrix``: the row block as a
        CSR matrix ``a`` over the model's columns (read-only views of the
        model's arrays) and the row bounds.  An unchanged model gets the
        same matrix back, with the HiGHS instance it holds; rows or
        columns appended since give a new one, which takes over the old
        one's instance when only rows were appended."""
        m, nv = self.num_constraints, self.num_vars
        old = self._rows
        if old is None or old.a.shape != (m, nv):
            self._rows = simplex.Matrix(
                self._csr(), self.rlo, self.rhi,
                old if old is not None and old.a.shape[1] == nv else None)
        return self._rows

    def _csr(self) -> sp.csr_matrix:
        """The row block over the columns, on read-only views."""
        return sp.csr_matrix((self._view(self._data),
                              self._view(self._indices),
                              self._view(self._indptr)),
                             shape=(self.num_constraints, self.num_vars))

    def without(self, cols, rows) -> "LinearModel":
        """A copy without the columns ``cols`` and the rows ``rows``
        (indices), the others kept in their order.  Its compiled rows take
        over this model's HiGHS instance, which deletes them (see
        ``simplex.Matrix``); this model's rows load again if it is solved
        again.  ``ModelError`` when a kept row holds a column of ``cols``."""
        m, nv = self.num_constraints, self.num_vars
        keep_row, keep_col = np.ones(m, dtype=bool), np.ones(nv, dtype=bool)
        keep_row[rows], keep_col[cols] = False, False
        lengths = np.diff(self._indptr)
        entry = np.repeat(keep_row, lengths)
        col = self._indices[entry]
        if not keep_col[col].all():
            j = int(col[np.argmin(keep_col[col])])
            raise ModelError(f"a kept row holds column {self.names[j]}")
        out = LinearModel(self.name)
        out.names = list(compress(self.names, keep_col))
        out.row_names = list(compress(self.row_names, keep_row))
        out._lb, out._ub, out._kind, out._c = (
            a[keep_col] for a in (self._lb, self._ub, self._kind, self._c))
        out._indptr = row_pointers(lengths[keep_row]).astype(np.int32)
        out._indices = (np.cumsum(keep_col, dtype=np.int32) - 1)[col]
        out._data = self._data[entry]
        out._rlo, out._rhi = self.rlo[keep_row], self.rhi[keep_row]
        out.obj_constant, out.obj_sense = self.obj_constant, self.obj_sense
        if self._rows is not None and self._rows.a.shape == (m, nv):
            out._rows = simplex.Matrix(
                out._csr(), out.rlo, out.rhi, self._rows,
                (np.flatnonzero(~keep_row), np.flatnonzero(~keep_col)))
        return out

    def copy(self) -> "LinearModel":
        m = LinearModel(self.name)
        m.names, m.row_names = list(self.names), list(self.row_names)
        (m._lb, m._ub, m._kind, m._c, m._indptr, m._indices, m._data,
         m._rlo, m._rhi) = (a.copy() for a in (
            self._lb, self._ub, self._kind, self._c, self._indptr,
            self._indices, self._data, self._rlo, self._rhi))
        m.obj_constant = self.obj_constant
        m.obj_sense = self.obj_sense
        return m


_KIND_CODE = {k: i for i, k in enumerate(KINDS)}


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


def _checked_rows(indptr, indices, data, sense, rhs, names, nv: int):
    """``(indptr, indices, data, rlo, rhi)`` of a block of rows over ``nv``
    columns (see ``LinearModel.add_rows``), zero coefficients dropped."""
    ptr = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(indices, dtype=np.int64)
    vals = np.asarray(data, dtype=float)
    m = len(ptr) - 1
    if m < 0:
        raise ModelError("row block without row pointers")
    rhs = np.full(m, rhs, dtype=float) if np.ndim(rhs) == 0 \
        else np.asarray(rhs, dtype=float)
    code = _sense_codes(sense, m)
    lengths = np.diff(ptr)
    if (m != len(names) or rhs.shape != (m,) or code.shape != (m,)
            or ptr[0] != 0 or ptr[-1] != len(cols) or len(vals) != len(cols)
            or (lengths < 0).any()):
        raise ModelError(f"row block of {len(names)} names, {len(ptr)} "
                         f"row pointers, {rhs.size} right-hand sides and "
                         f"{len(cols)} columns")
    row_of = np.repeat(np.arange(m), lengths)
    if not ((code >= 0).all() and np.isfinite(rhs).all()
            and np.isfinite(vals).all()
            and (cols.size == 0 or (cols.min() >= 0 and cols.max() < nv))):
        _raise_first_bad(ptr, cols, vals, sense, code, rhs, names, row_of, nv)
    key = np.sort(row_of * nv + cols)
    twice = np.flatnonzero(key[1:] == key[:-1])
    if twice.size:
        i, j = divmod(int(key[twice[0]]), nv)
        raise ModelError(f"constraint {names[i]!r} repeats column {j}")
    keep = vals != 0.0
    if not keep.all():
        ptr = row_pointers(np.bincount(row_of[keep], minlength=m))
        cols, vals = cols[keep], vals[keep]
    return (ptr.astype(np.int32), cols.astype(np.int32), vals,
            np.where(code == 0, -np.inf, rhs), np.where(code == 1, np.inf, rhs))


def _raise_first_bad(ptr, cols, vals, sense, code, rhs, names, row_of, nv):
    """``ModelError`` for the first bad row of a block, row by row in the
    order ``add_constraint`` checks one row: its sense, its right-hand
    side, then each coefficient's column and value."""
    bad_col = (cols < 0) | (cols >= nv)
    bad_entry = bad_col | ~np.isfinite(vals)
    bad = (code < 0) | ~np.isfinite(rhs)
    bad[row_of[bad_entry]] = True
    i = int(np.argmax(bad))
    name = names[i]
    if code[i] < 0:
        s = sense if isinstance(sense, str) else sense[i]
        if isinstance(s, np.generic):
            s = s.item()
        raise ModelError(f"bad sense {s!r}")
    if not math.isfinite(rhs[i]):
        raise ModelError(f"constraint {name!r} has non-finite rhs "
                         f"{float(rhs[i])}")
    k = ptr[i] + int(np.argmax(bad_entry[ptr[i]:ptr[i + 1]]))
    if bad_col[k]:
        raise ModelError(f"constraint {name!r} references unknown column "
                         f"{int(cols[k])}")
    raise ModelError(f"constraint {name!r} has non-finite coefficient "
                     f"{float(vals[k])}")


_SENSE_CODE = {s: i for i, s in enumerate(SENSES)}


def _sense_codes(sense, m: int) -> np.ndarray:
    """The index in ``SENSES`` of the sense of each of ``m`` rows (-1 for
    one that is not a sense): ``sense`` is one for every row or one per
    row."""
    if isinstance(sense, str):
        return np.full(m, _SENSE_CODE.get(sense, -1), dtype=np.int8)
    if isinstance(sense, np.ndarray) and sense.dtype.kind == "U":
        code = np.full(sense.shape, -1, dtype=np.int8)
        for i, s in enumerate(SENSES):
            code[sense == s] = i
        return code
    return np.array([_SENSE_CODE.get(s, -1) if isinstance(s, str) else -1
                     for s in sense], dtype=np.int8)


def row_pointers(lengths) -> np.ndarray:
    """The ``indptr`` of rows with these numbers of entries."""
    ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr


def _cut_rows(cuts: list[Cut], nv: int, first: int):
    """The arguments of ``add_rows`` for the rows of ``cuts`` as rows
    ``first``, ``first + 1``, ... of a model over ``nv`` columns; each cut
    is validated first."""
    for cut in cuts:
        cut.validate()
    return (row_pointers([len(cut.coeffs) for cut in cuts]), [j for cut in cuts for j in cut.coeffs],
            [v for cut in cuts for v in cut.coeffs.values()],
            [cut.sense for cut in cuts], [cut.rhs for cut in cuts],
            [f"cut_{cut.tag}_{first + i}" for i, cut in enumerate(cuts)])


@dataclass
class LpSolution:
    status: str                 # optimal | infeasible | unbounded
    objective: float | None
    x: np.ndarray | None
    basis: object | None = None     # the HighsBasis HiGHS ended on


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
    gap: float | None               # see relative_gap
    nodes: int
    wall_time: float
    cuts_added: int = 0
    root_bound: float | None = None
    # HighsBasis of the final root LP, cut rows included; a valid
    # ``root_start`` for a model with the same rows and columns
    root_basis: object | None = None


def _columns(model: LinearModel):
    """The model's column data for HiGHS: ``(c, lo, hi, sign)``, the
    objective negated for a maximization (``sign`` -1) and copies of the
    bounds."""
    sign = -1.0 if model.obj_sense == "max" else 1.0
    return sign * model.c, model.lb.copy(), model.ub.copy(), sign


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, made read-only: a ``simplex.Matrix`` keeps such arrays
    without a copy, and does not compare one passed again."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def solve_lp(model: LinearModel, start=None) -> LpSolution:
    """Solve the LP relaxation (integrality ignored) to a basic solution.
    ``start`` is an optional ``basis`` of an earlier solution (see
    ``simplex.solve``)."""
    model.validate()
    rel = Relaxation.of(model)
    return rel.solve(rel.lo, rel.hi, start)


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
        raise ModelError(f"row {model.row_names[i]!r} violated")
    return _objective(model.c, xv, model.obj_constant)


def _check_limits(rel_gap: float, time_limit_s: float | None,
                  node_limit: int | None) -> None:
    if not (math.isfinite(rel_gap) and rel_gap >= 0.0):
        raise ValueError(f"rel_gap must be finite and >= 0, got {rel_gap}")
    if time_limit_s is not None and not time_limit_s >= 0.0:
        raise ValueError(f"time_limit_s must be >= 0, got {time_limit_s}")
    if node_limit is not None and node_limit < 1:
        raise ValueError(f"node_limit must be >= 1, got {node_limit}")


def relative_gap(incumbent: float, bound: float) -> float:
    """``|incumbent - bound| / |incumbent|``: 0 when the two are equal, and
    inf when the incumbent is 0 and the bound is not."""
    if incumbent == bound:
        return 0.0
    if incumbent == 0.0:
        return math.inf
    return abs(incumbent - bound) / max(abs(incumbent), 1e-10)


def _objective(c, x, constant: float) -> float:
    """``c.x + constant``, the nonzero terms of ``c.x`` added one by one in
    column order, as a loop over them would."""
    nz = np.flatnonzero(c)
    terms = np.cumsum(c[nz] * x[nz])
    return (float(terms[-1]) if nz.size else 0.0) + constant


def _pruned(bound: float, incumbent, rel_gap: float, minimize: bool) -> bool:
    """Whether a node of this bound is pruned: there is an incumbent, and
    the bound is worse than it or within ``rel_gap * max(|incumbent|,
    1e-10)`` of it."""
    if incumbent is None:
        return False
    slack = rel_gap * max(abs(incumbent), 1e-10)
    return bound >= incumbent - slack if minimize \
        else bound <= incumbent + slack


@dataclass
class Relaxation:
    """The LP relaxation of a model: min ``c.x`` over ``rows`` and the
    column bounds ``lo``/``hi``, each solution reported as ``sign * c.x +
    offset``; ``int_idx`` are the integer columns."""
    rows: simplex.Matrix
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    int_idx: np.ndarray
    sign: float
    offset: float

    @classmethod
    def of(cls, model: LinearModel) -> "Relaxation":
        """The relaxation of ``model`` as HiGHS gets it: its compiled rows,
        its bounds, and its objective, negated for a maximization."""
        c, lo, hi, sign = _columns(model)
        return cls(model.compiled_rows(), *_frozen(c, lo, hi),
                   model.integer_indices(), sign, model.obj_constant)

    def solve(self, lo, hi, start=None) -> LpSolution:
        res = simplex.solve(self.rows, self.c, lo, hi, start=start)
        if res.status != "optimal":
            return LpSolution(res.status, None, None)
        return LpSolution("optimal", self.sign * res.objective + self.offset,
                          res.x, basis=res.basis)

    def add_rows(self, indptr, indices, data, sense, rhs, names) -> int:
        """Append rows, given and checked as ``LinearModel.add_rows`` takes
        them, below ``rows`` (compressed rows): a new ``simplex.Matrix``
        of the two blocks' arrays concatenated, on the HiGHS instance of
        the old one.  Returns their number."""
        a = self.rows.a
        ptr, cols, vals, rlo, rhi = _checked_rows(
            indptr, indices, data, sense, rhs, names, a.shape[1])
        self.rows = simplex.Matrix(
            sp.csr_matrix((np.concatenate([a.data, vals]),
                           np.concatenate([a.indices, cols]),
                           np.concatenate([a.indptr, ptr[1:] + a.indptr[-1]])),
                          shape=(a.shape[0] + len(rlo), a.shape[1])),
            np.concatenate([self.rows.rlo, rlo]),
            np.concatenate([self.rows.rhi, rhi]), self.rows)
        return len(rlo)

    def cut_rounds(self, root: LpSolution, hook,
                   deadline: float = math.inf) -> tuple[LpSolution, int]:
        """Root cut rounds from ``root``, the last LP solved on ``rows``:
        at most ``DEFAULT_CUT_ROUNDS`` times, while the LP is optimal and
        fractional, ``time.perf_counter()`` has not passed ``deadline`` and
        ``hook(lp)`` (if given) returns cuts, append their rows and solve
        again from the LP's basis with them basic, the one HiGHS holds
        (``rows.held``).  Returns the last LP and the number of cuts."""
        added = 0
        for _ in range(DEFAULT_CUT_ROUNDS):
            cuts = hook and root.status == "optimal" and \
                _fractional(root.x, self.int_idx) and \
                time.perf_counter() <= deadline and hook(root)
            if not cuts:
                break
            added += self.add_rows(*_cut_rows(cuts, len(self.c),
                                              self.rows.a.shape[0]))
            root = self.solve(self.lo, self.hi, self.rows.held)
        return root, added


def _node_lp(rel: Relaxation, overrides, start) -> LpSolution:
    """The LP of ``rel`` with the column bounds tightened by ``overrides``
    (column -> ``(lo, hi)``), from ``start``."""
    lo = rel.lo.copy()
    hi = rel.hi.copy()
    for j, (l, u) in overrides.items():
        lo[j] = max(lo[j], l)
        hi[j] = min(hi[j], u)
        if lo[j] > hi[j] + 1e-15:
            return LpSolution("infeasible", None, None)
    return rel.solve(*_frozen(lo, hi), start)


def _search(rel: Relaxation, root: LpSolution, incumbent, incumbent_x,
            minimize: bool, rel_gap: float, deadline: float, node_limit):
    """Best-bound branch and bound on ``rel`` from ``root``, its optimal
    LP without branching bounds, with most-fractional branching (ties to
    the lowest column).  An integral root that beats ``incumbent`` replaces
    it, even within ``rel_gap`` of it.  Then each node, the root first, is
    pruned if its LP is within ``rel_gap`` of the incumbent by
    :func:`_pruned` (before its integrality is read), kept as the
    incumbent if integral, else branched on.  A node LP restarts from the
    parent's ``HighsBasis``, which both children share.  Returns
    ``(status, incumbent, incumbent_x, bound, nodes)``: ``optimal`` when
    the tree is exhausted, else ``time_limit`` once ``time.perf_counter()``
    passes ``deadline``, or ``node_limit`` once ``nodes`` (the root and
    every node LP) reaches ``node_limit`` (None: no limit), neither before
    the root's step.  The bound is the best over the open nodes, the
    pruned ones and the incumbent, or, with none, the root's objective."""
    node_limit = math.inf if node_limit is None else node_limit
    nodes = 1
    order = count()     # ties in the heap go to the node pushed first
    heap: list = []
    pruned_bounds: list[float] = []

    # A child tightens the bound of a variable that is fractional, hence
    # basic, in its parent's LP: the parent's optimal basis stays dual
    # feasible but is primal infeasible, so the node LP runs the dual
    # simplex from it.
    def visit(lp: LpSolution, overrides: dict) -> None:
        nonlocal incumbent, incumbent_x
        if lp.status != "optimal":
            return
        if _pruned(lp.objective, incumbent, rel_gap, minimize):
            pruned_bounds.append(lp.objective)
            return
        frac = _fractional(lp.x, rel.int_idx)
        if not frac:    # not pruned, so better than the incumbent
            incumbent, incumbent_x = lp.objective, lp.x.copy()
            return
        # Most fractional, ties to lowest index.
        jbest, fbest = -1, -1.0
        for j, xj in frac:
            f = xj - np.floor(xj)
            score = min(f, 1.0 - f)
            if score > fbest + 1e-12:
                jbest, fbest = j, score
        xj = lp.x[jbest]
        lo, hi = overrides.get(jbest, (float(rel.lo[jbest]),
                                       float(rel.hi[jbest])))
        key = lp.objective if minimize else -lp.objective
        for child in ((lo, float(np.floor(xj))), (float(np.ceil(xj)), hi)):
            heapq.heappush(heap, (key, next(order), lp.objective,
                                  {**overrides, jbest: child}, lp.basis))

    # an integral root is optimal: it beats a worse seed even within rel_gap
    if not _fractional(root.x, rel.int_idx) and (
            incumbent is None or (root.objective < incumbent if minimize
                                  else root.objective > incumbent)):
        incumbent, incumbent_x = root.objective, root.x.copy()
    visit(root, {})
    status = "optimal"
    while heap:
        if time.perf_counter() > deadline:
            status = "time_limit"
            break
        if nodes >= node_limit:
            status = "node_limit"
            break
        _key, _cnt, bound, overrides, start = heapq.heappop(heap)
        if _pruned(bound, incumbent, rel_gap, minimize):
            pruned_bounds.append(bound)
            continue
        nodes += 1
        visit(_node_lp(rel, overrides, start), overrides)

    bounds = [entry[2] for entry in heap] + pruned_bounds
    if incumbent is not None:
        bounds.append(incumbent)
    return (status, incumbent, incumbent_x,
            (min if minimize else max)(bounds, default=root.objective), nodes)


def solve_mip(model: LinearModel, rel_gap: float = DEFAULT_REL_GAP,
              time_limit_s: float | None = None,
              node_limit: int | None = None,
              root_cut_hook=None,
              initial_solution=None, root_start=None) -> MipSolution:
    """Branch and bound with best-bound node selection on one tree.

    The LPs are solved on the model's compiled rows with its current
    bounds and objective.  ``root_cut_hook(lp_solution)`` may return a
    list of :class:`Cut`; :meth:`Relaxation.cut_rounds` calls it on the
    fractional root LPs.  Cuts never fire below the root.  They are
    appended to the solve's own relaxation, so neither the model's rows
    nor its compiled rows change.
    ``initial_solution`` seeds the incumbent (it must be feasible); a root
    LP reported infeasible despite it raises ``NumericalFailure``.
    ``root_start`` warm-starts the first root LP: pass the ``root_basis`` of
    an earlier solve of a model that differs only in its objective.  Without
    one, the first root LP starts from ``initial_solution`` when
    :func:`seed_start` can turn it into a basis, so the simplex starts at
    the seed's vertex.  A start that does not fit is ignored (see
    ``simplex.solve``).  :func:`_search` then runs from the final root LP,
    its first node, with the seed as its incumbent.  ``nodes`` counts the
    root and every node LP.

    A search that runs to its end is ``optimal``: for ``rel_gap`` at most
    1 the slack of :func:`_pruned` only grows as the incumbent improves, so
    every pruned bound ends within ``rel_gap`` of the final incumbent.
    One deadline, ``time_limit_s`` after the solve starts, stops the cut
    rounds and the search; the first root LP and the root's own step
    always run.  It and ``node_limit`` stop the search with the status
    ``optimal`` or ``feasible`` by the gap when there is an incumbent,
    and ``time_limit`` or ``node_limit`` otherwise.  A search that ends
    without an incumbent makes the model ``infeasible``.  An unbounded
    root relaxation gives status ``unbounded``, with or without an
    incumbent.  ``ValueError`` for a ``rel_gap`` that is negative or not
    finite, a ``time_limit_s`` that is negative or NaN, or a
    ``node_limit`` below 1.
    """
    _check_limits(rel_gap, time_limit_s, node_limit)
    model.validate()
    t0 = time.perf_counter()
    deadline = math.inf if time_limit_s is None else t0 + time_limit_s
    minimize = model.obj_sense == "min"
    wall = lambda: time.perf_counter() - t0

    incumbent = None
    incumbent_x = None
    if initial_solution is not None:
        incumbent = check_solution(model, initial_solution)
        incumbent_x = np.asarray(initial_solution, dtype=float)

    rel = Relaxation.of(model)
    start = root_start
    if start is None and incumbent_x is not None:
        start = seed_start(rel.rows, rel.lo, rel.hi, incumbent_x)
    root, cuts_added = rel.cut_rounds(rel.solve(rel.lo, rel.hi, start),
                                      root_cut_hook, deadline)

    if root.status == "infeasible" and incumbent is not None:
        raise NumericalFailure("root LP reported infeasible, but the "
                               "initial solution is feasible")
    if root.status in ("infeasible", "unbounded"):
        return MipSolution(root.status, None, None, None, None, 1, wall(),
                           cuts_added)

    status, incumbent, incumbent_x, bound, nodes = _search(
        rel, root, incumbent, incumbent_x, minimize, rel_gap, deadline,
        node_limit)
    if incumbent is None:
        return MipSolution("infeasible" if status == "optimal" else status,
                           None, None, bound, None, nodes, wall(),
                           cuts_added, root.objective, root.basis)
    gap = relative_gap(incumbent, bound)
    return MipSolution("feasible" if status != "optimal" and gap > rel_gap
                       else "optimal", incumbent, incumbent_x, bound, gap,
                       nodes, wall(), cuts_added, root.objective, root.basis)
