"""LP seam: every LP runs on HiGHS's dual revised simplex (Huangfu & Hall,
2018) through the extension scipy bundles; branch and bound stays in
``mip.py``.

Solves  min c.x  s.t.  rlo <= A x <= rhi,  lo <= x <= hi,  where a bound
may be infinite: a ``<=`` row has ``rlo = -inf``, a ``>=`` row
``rhi = +inf`` and an ``==`` row ``rlo = rhi``.  A :class:`Matrix` holds
``A`` and its row bounds, and one HiGHS instance loaded with them at its
first solve; each solve sends only the costs and column bounds that
changed since the last one.  A start is the ``HighsBasis`` of an earlier
result: a status for each column and each row.  The extension is loaded by
file path, so ``scipy.optimize`` is never imported.

Instances outlive their matrices.  A dropped matrix leaves its instance on
a short spare list, and the next matrix to solve takes it and replaces its
model.  A matrix made of another's rows with rows appended takes over the
other's instance, which gets only the new rows; HiGHS then holds the
other's last basis with the new rows basic, and a cut round restarts from
it without handing HiGHS a basis.  So does a matrix made of another's rows
and columns with some deleted: HiGHS deletes them from the instance and
keeps what is left of its basis, a start for the smaller LP.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse as sp

FEAS_TOL = 1e-7         # HiGHS's primal feasibility tolerance (its default)
_PERTURB = "dual_simplex_cost_perturbation_multiplier"     # 1.0 by default
HIGHS_MODULE = "scipy.optimize._highspy._core"
HIGHS_DIR = os.path.join(os.path.dirname(scipy.__file__), "optimize",
                         "_highspy")


class NumericalFailure(Exception):
    """HiGHS found no answer, from the given start or from scratch."""


class BackendMissing(ImportError):
    """The HiGHS extension is not where scipy ships it."""


def load_highs(directory: str = HIGHS_DIR):
    """The HiGHS extension ``_core`` of ``directory``, registered in
    ``sys.modules`` under its own name (one registered there is reused).
    ``BackendMissing`` names the path looked for if the file is missing."""
    paths = [os.path.join(directory, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise BackendMissing(f"HiGHS extension not found: {paths[0]} "
                             "(scipy >= 1.15 ships it)")
    if HIGHS_MODULE not in sys.modules:
        spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[HIGHS_MODULE] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[HIGHS_MODULE]
            raise
    return sys.modules[HIGHS_MODULE]


_hs = load_highs()
_MS = _hs.HighsModelStatus
_BS = _hs.HighsBasisStatus
BASIC, LOWER, UPPER = _BS.kBasic, _BS.kLower, _BS.kUpper
_EITHER = "unbounded or infeasible"
_ENDS = {_MS.kOptimal: "optimal", _MS.kInfeasible: "infeasible",
         _MS.kUnbounded: "unbounded", _MS.kUnboundedOrInfeasible: _EITHER}


# HiGHS instances of dropped matrices, the last one dropped taken first
_SPARE: deque = deque(maxlen=4)


def _instance():
    """A spare HiGHS instance, else a new one.  Every instance carries the
    same three options, set here; ``Matrix._run`` sets ``_PERTURB`` before
    each run."""
    if _SPARE:
        return _SPARE.pop()
    h = _hs._Highs()
    for name, value in (("output_flag", False), ("threads", 1),
                        ("presolve", "off")):
        h.setOptionValue(name, value)
    return h


def make_basis(col_status, row_status):
    """A ``HighsBasis`` with these statuses (``BASIC``, ``LOWER`` or
    ``UPPER`` each), one per column and one per row."""
    basis = _hs.HighsBasis()
    basis.valid, basis.alien = True, False
    basis.col_status, basis.row_status = list(col_status), list(row_status)
    return basis


@dataclass(slots=True)
class SimplexResult:
    """Outcome of one solve.  ``x`` has one entry per column; ``basis`` is
    the ``HighsBasis`` HiGHS ended on, a ``start`` for a later solve on the
    same :class:`Matrix`.  ``warm``: reached from the given start.
    ``iterations``: HiGHS's simplex iterations."""
    status: str             # optimal | infeasible | unbounded
    x: np.ndarray | None
    basis: object | None
    objective: float | None
    iterations: int
    warm: bool = False


class Matrix:
    """``A`` with its row bounds ``rlo`` and ``rhi``, and the HiGHS
    instance holding them with the column data of its last solve.  Pass one
    to ``solve`` for every LP on the same rows.  ``A`` is never changed, so
    its column-wise copy ``csc`` is built once, when first read.

    ``base`` is a matrix whose rows are the first rows of ``A``, over the
    same columns.  The new matrix takes over its instance, with the column
    data and the basis HiGHS holds, and sends HiGHS only the rows below
    (``addRows``, which makes them basic); ``base`` is left without one and
    loads its rows again if it is solved again.  With ``deleted``, a pair
    ``(rows, cols)`` of ascending index arrays, ``A`` is ``base.a`` without
    those rows and columns instead, and HiGHS deletes them (``deleteRows``,
    ``deleteCols``).  ``ValueError`` unless there is one bound of each
    kind per row, or for a ``base`` whose shape does not fit."""
    __slots__ = ("a", "rlo", "rhi", "_csc", "_h", "_c", "_lo", "_hi",
                 "_held")

    def __init__(self, a: sp.spmatrix, rlo, rhi, base: Matrix | None = None,
                 deleted: tuple | None = None):
        self._h = None
        self._held = None      # the HighsBasis HiGHS holds from its last run
        self.a = a
        self.rlo = np.asarray(rlo, dtype=float)
        self.rhi = np.asarray(rhi, dtype=float)
        if not self.rlo.shape == self.rhi.shape == (a.shape[0],):
            raise ValueError(f"need {a.shape[0]} row bounds of each kind")
        self._csc = a if a.format == "csc" else None
        if base is not None:
            self._take(base, deleted)

    def __del__(self, spare=_SPARE):
        """Leave the instance to a later matrix (``spare`` is bound here,
        so that it is still there while the interpreter exits)."""
        if self._h is not None:
            spare.append(self._h)

    def _take(self, base: Matrix, deleted) -> None:
        (m0, n0), (m, n) = base.a.shape, self.a.shape
        rows, cols = deleted or ((), ())
        if deleted is not None and (m0 - len(rows), n0 - len(cols)) != (m, n):
            raise ValueError(f"a {base.a.shape} matrix without {len(rows)} "
                             f"rows and {len(cols)} columns is not "
                             f"{self.a.shape}")
        if deleted is None and (n0 != n or m0 > m):
            raise ValueError(f"rows of a {base.a.shape} matrix cannot head "
                             f"a {self.a.shape} one")
        if base._h is None:
            return
        self._h, self._c, self._lo, self._hi, self._held = (
            base._h, base._c, base._lo, base._hi, base._held)
        base._h = base._held = None
        if deleted is not None:
            keep = np.ones(n0, dtype=bool)
            keep[cols] = False
            self._c, self._lo, self._hi = (_held(v[keep]) for v in
                                           (self._c, self._lo, self._hi))
            self._h.deleteRows(len(rows), np.asarray(rows, dtype=np.int32))
            self._h.deleteCols(len(cols), np.asarray(cols, dtype=np.int32))
        elif m > m0:
            new = sp.csr_matrix(self.a[m0:])
            self._h.addRows(m - m0, self.rlo[m0:], self.rhi[m0:], new.nnz,
                            new.indptr[:-1].astype(np.int32),
                            new.indices.astype(np.int32), new.data)
        else:
            return
        if self._held is not None:
            self._held = self._h.getBasis()

    @property
    def held(self):
        """The ``HighsBasis`` HiGHS holds, a start that costs no
        ``setBasis``: that of the last solve if it was optimal, with the
        rows appended since (see ``base``) basic, or without the rows and
        columns deleted since; else None."""
        return self._held

    @property
    def csc(self) -> sp.csc_matrix:
        """``A`` in compressed sparse columns."""
        if self._csc is None:
            self._csc = sp.csc_matrix(self.a)
        return self._csc

    def _load(self, c, lo, hi) -> None:
        """Bring HiGHS's LP to ``(c, lo, hi)``, sending what differs from
        the arrays of the last load, which the matrix holds (see
        ``_held``).  An array that is the one held is not compared."""
        c, lo, hi = _held(c), _held(lo), _held(hi)
        if self._h is None:
            self._h = _instance()
            a = self.csc
            m, n = a.shape
            self._h.passModel(
                n, m, a.nnz, int(_hs.MatrixFormat.kColwise),
                int(_hs.ObjSense.kMinimize), 0.0, c, lo, hi, self.rlo,
                self.rhi, a.indptr.astype(np.int32),
                a.indices.astype(np.int32), a.data,
                np.zeros(n, dtype=np.int32))        # every column continuous
        else:
            if c is not self._c:
                diff = np.flatnonzero(c != self._c)
                if diff.size:
                    self._h.changeColsCost(diff.size, diff.astype(np.int32),
                                           c[diff])
            if lo is not self._lo or hi is not self._hi:
                diff = np.flatnonzero((lo != self._lo) | (hi != self._hi))
                if diff.size:
                    self._h.changeColsBounds(diff.size,
                                             diff.astype(np.int32),
                                             lo[diff], hi[diff])
        self._c, self._lo, self._hi = c, lo, hi

    def _start(self, basis) -> bool:
        """Give HiGHS the basis; False if it does not fit.  Unless it is
        the basis HiGHS holds, the solver is cleared first, so that the run
        depends on the start alone and not on what earlier runs left."""
        if basis is self._held:
            return True
        self._h.clearSolver()
        return self._h.setBasis(basis) == _hs.HighsStatus.kOk

    def _run(self, c, lo, hi, warm: bool) -> SimplexResult | None:
        """One HiGHS run, from the basis it holds or from scratch; None when
        it ends without an answer.  A nonbasic column sits exactly at its
        nearer bound.  A run from a start goes without HiGHS's cost
        perturbation: on a degenerate start the perturbed costs of the basic
        columns make zero reduced costs of nonbasic rows dual infeasible,
        and each of those costs dual phase-1 iterations."""
        h = self._h
        self._held = None
        if not warm:
            h.clearSolver()
        h.setOptionValue(_PERTURB, 0.0 if warm else 1.0)
        h.run()
        status = _ENDS.get(h.getModelStatus())
        its = h.getInfoValue("simplex_iteration_count")[1]
        if status != "optimal":
            return status and SimplexResult(status, None, None, None, its,
                                            warm)
        x = np.array(h.getSolution().col_value)
        nonbasic = np.ones(len(x), dtype=bool)
        if h.getNumNz():
            # HiGHS drops entries of at most 1e-9 in size.  Without any left
            # every basic variable is a row, and HiGHS solves without
            # factorizing: getBasicVariables would crash.
            basic = h.getBasicVariables()[1]
            nonbasic[basic[basic >= 0]] = False      # row i is -1-i
        upper = nonbasic & (hi > lo) & (np.abs(x - hi) < np.abs(x - lo))
        bound = np.where(upper, hi, lo)
        x = np.where(nonbasic & np.isfinite(bound), bound, x)
        self._held = h.getBasis()
        return SimplexResult("optimal", x, self._held, float(c @ x), its,
                             warm)


def _held(v: np.ndarray) -> np.ndarray:
    """``v`` itself when it is read-only and owns its data, so that nothing
    can change it; else a read-only copy of it."""
    if v.flags.writeable or not v.flags.owndata:
        v = v.copy()
        v.flags.writeable = False
    return v


def solve(mat: Matrix, c, lo, hi, start=None) -> SimplexResult:
    """Solve from ``start``, the ``basis`` of an earlier result on the same
    rows (the costs and column bounds may differ) or ``mat.held``, else
    from scratch.  A start that does not fit, or whose run ends without an
    answer, is dropped for a run from scratch, and ``warm`` is False.  A
    solve without a start, or from a start other than ``mat.held``, never
    depends on the ones before it.  A run that cannot tell unbounded from
    infeasible is settled by a run with a zero objective.
    The matrix keeps ``c``, ``lo`` and ``hi`` for its next solve: an array
    that is read-only and owns its data as it is, any other as a copy.  A
    later solve compares each with the one kept, unless it is that very
    array, and sends HiGHS only the entries that differ.  Without columns
    the LP is optimal at ``x = ()`` when every row's range holds 0, and
    infeasible otherwise.  ``ValueError`` unless ``c``,
    ``lo`` and ``hi`` have one entry per column; ``NumericalFailure`` when
    the run from scratch ends without an answer."""
    c, lo, hi = (np.asarray(v, dtype=float) for v in (c, lo, hi))
    m, n = mat.a.shape
    if not c.shape == lo.shape == hi.shape == (n,):
        raise ValueError(f"need {n} costs and {n} bounds of each kind")
    if n == 0:
        if np.all(mat.rlo <= FEAS_TOL) and np.all(mat.rhi >= -FEAS_TOL):
            return SimplexResult("optimal", np.zeros(0),
                                 make_basis([], [BASIC] * m), 0.0, 0)
        return SimplexResult("infeasible", None, None, None, 0)
    mat._load(c, lo, hi)
    res = None
    if start is not None and mat._start(start):
        res = mat._run(c, lo, hi, warm=True)
    if res is None or res.status == _EITHER:
        res = mat._run(c, lo, hi, warm=False)
    if res is not None and res.status == _EITHER:
        zero = np.zeros_like(c)
        mat._load(zero, lo, hi)
        feas = mat._run(zero, lo, hi, warm=False)
        res = feas and SimplexResult(
            "unbounded" if feas.status == "optimal" else feas.status,
            None, None, None, res.iterations + feas.iterations)
    if res is None:
        raise NumericalFailure(f"HiGHS ended {mat._h.getModelStatus()}")
    return res
