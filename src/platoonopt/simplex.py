"""LP seam: every LP runs on HiGHS's dual revised simplex (Huangfu & Hall,
2018) through the extension scipy bundles; branch and bound stays in
``mip.py``.

Solves  min c.x  s.t.  A x = b,  lo <= x <= hi,  where the last ``m``
columns of ``A`` are the rows' slacks: column ``n - m + i`` has its one
nonzero in row ``i`` (an equality row's slack is fixed at zero).  A basis
is ``m`` columns of ``A``.  A :class:`Matrix` holds ``A`` and one HiGHS
instance loaded with it as ``m`` equality rows; each solve sends only the
costs and bounds that changed since the last one (the whole LP again when
``b`` did).  The extension is loaded by file path, so ``scipy.optimize``
is never imported.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse as sp

AT_LOWER, AT_UPPER, IS_BASIC = 0, 1, 2
FEAS_TOL = 1e-7         # HiGHS's primal feasibility tolerance (its default)
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
_BASIS_STATUS = (_hs.HighsBasisStatus.kLower,   # by AT_LOWER, AT_UPPER,
                 _hs.HighsBasisStatus.kUpper,   # IS_BASIC
                 _hs.HighsBasisStatus.kBasic)
_EITHER = "unbounded or infeasible"
_ENDS = {_MS.kOptimal: "optimal", _MS.kInfeasible: "infeasible",
         _MS.kUnbounded: "unbounded", _MS.kUnboundedOrInfeasible: _EITHER}


@dataclass(slots=True)
class SimplexResult:
    """Outcome of one solve.  ``x`` and ``vstatus`` have one entry per
    column of ``A``, ``basis`` one column per row; ``(basis, vstatus)`` is
    a ``start`` for a later solve on the same ``A``.  ``warm``: reached from
    the given start.  ``iterations``: HiGHS's simplex iterations."""
    status: str             # optimal | infeasible | unbounded
    x: np.ndarray | None
    basis: np.ndarray | None
    vstatus: np.ndarray | None
    objective: float | None
    iterations: int
    warm: bool = False


class Matrix:
    """``A``, checked once for the slack layout, and the HiGHS instance
    holding it with the data of its last solve.  Pass one to ``solve`` for
    every LP on the same ``A``; a bare CSC matrix is loaded on each call."""
    __slots__ = ("a", "_h", "_b", "_c", "_lo", "_hi", "_held")

    def __init__(self, a_csc: sp.csc_matrix):
        _check_slacks(a_csc)
        self.a = a_csc
        self._h = None
        self._held = None      # (basis, vstatus) HiGHS holds from its last run

    def _load(self, b, c, lo, hi) -> None:
        """Bring HiGHS's LP to ``(b, c, lo, hi)``, sending what differs."""
        if self._h is None:
            self._h = _hs._Highs()
            for name, value in (("output_flag", False), ("threads", 1),
                                ("presolve", "off")):
                self._h.setOptionValue(name, value)
            self._b = None
        if not np.array_equal(b, self._b):
            a = self.a
            m, n = a.shape
            self._h.passModel(
                n, m, a.nnz, int(_hs.MatrixFormat.kColwise),
                int(_hs.ObjSense.kMinimize), 0.0, c, lo, hi, b, b,
                a.indptr.astype(np.int32), a.indices.astype(np.int32), a.data,
                np.zeros(n, dtype=np.int32))        # every column continuous
            self._b, self._c, self._lo, self._hi = b.copy(), c, lo, hi
            self._held = None
        diff = np.flatnonzero(c != self._c)
        if diff.size:
            self._h.changeColsCost(diff.size, diff.astype(np.int32), c[diff])
        diff = np.flatnonzero((lo != self._lo) | (hi != self._hi))
        if diff.size:
            self._h.changeColsBounds(diff.size, diff.astype(np.int32),
                                     lo[diff], hi[diff])
        self._c, self._lo, self._hi = c.copy(), lo.copy(), hi.copy()

    def _start(self, basis, vstatus) -> bool:
        """Give HiGHS the basis; False if it does not fit ``A``."""
        held = self._held
        if held is not None and basis is held[0] and vstatus is held[1]:
            return True
        m, n = self.a.shape
        if len(basis) != m or len(vstatus) != n or not np.array_equal(
                np.flatnonzero(vstatus == IS_BASIC), np.sort(basis)):
            return False
        hb = _hs.HighsBasis()
        hb.valid, hb.alien = True, False    # m basic columns: a proper shape
        hb.col_status = [_BASIS_STATUS[k] for k in vstatus.tolist()]
        hb.row_status = [_BASIS_STATUS[AT_LOWER]] * m
        return self._h.setBasis(hb) == _hs.HighsStatus.kOk

    def _run(self, c, lo, hi, warm: bool) -> SimplexResult | None:
        """One HiGHS run, from the basis it holds or from scratch; None when
        it ends without an answer.  A nonbasic column sits exactly at its
        nearer bound.  A row whose own logical HiGHS keeps basic is basic in
        its slack instead: both span the row's unit column."""
        h = self._h
        self._held = None
        if not warm:
            h.clearSolver()
        h.run()
        status = _ENDS.get(h.getModelStatus())
        its = h.getInfoValue("simplex_iteration_count")[1]
        if status != "optimal":
            return status and SimplexResult(status, None, None, None, None,
                                            its, warm)
        m, n = self.a.shape
        x = np.array(h.getSolution().col_value)
        basis = h.getBasicVariables()[1].astype(np.int64)
        basis = np.where(basis >= 0, basis, n - m - 1 - basis)  # row -1-i
        nonbasic = np.ones(n, dtype=bool)
        nonbasic[basis] = False
        upper = nonbasic & (hi > lo) & (np.abs(x - hi) < np.abs(x - lo))
        bound = np.where(upper, hi, lo)
        x = np.where(nonbasic & np.isfinite(bound), bound, x)
        vstatus = np.where(upper, AT_UPPER, AT_LOWER).astype(np.int8)
        vstatus[basis] = IS_BASIC
        self._held = (basis, vstatus)
        return SimplexResult("optimal", x, basis, vstatus, float(c @ x), its,
                             warm)


def solve(a: Matrix | sp.csc_matrix, b, c, lo, hi,
          start: tuple[np.ndarray, np.ndarray] | None = None) -> SimplexResult:
    """Solve from ``start``, a (basis, vstatus) pair from an earlier result
    on the same ``A`` (``b``, ``c`` and the bounds may differ), else from
    scratch.  ``ValueError`` unless the last ``m`` columns of ``A`` are the
    rows' slacks; lower bounds must be finite.  A start that does not fit,
    or whose run ends without an answer, is dropped for a run from scratch,
    and ``warm`` is False; a solve without a start never depends on the
    ones before it.  A run that cannot tell unbounded from infeasible is
    settled by a run with a zero objective.  ``NumericalFailure`` when the
    run from scratch ends without an answer."""
    mat = a if isinstance(a, Matrix) else Matrix(a)
    b, c, lo, hi = (np.asarray(v, dtype=float) for v in (b, c, lo, hi))
    mat._load(b, c, lo, hi)
    res = None
    if start is not None and mat._start(*start):
        res = mat._run(c, lo, hi, warm=True)
    if res is None or res.status == _EITHER:
        res = mat._run(c, lo, hi, warm=False)
    if res is not None and res.status == _EITHER:
        zero = np.zeros_like(c)
        mat._load(b, zero, lo, hi)
        feas = mat._run(zero, lo, hi, warm=False)
        res = feas and SimplexResult(
            "unbounded" if feas.status == "optimal" else feas.status,
            None, None, None, None, res.iterations + feas.iterations)
    if res is None:
        raise NumericalFailure(f"HiGHS ended {mat._h.getModelStatus()}")
    return res


def _check_slacks(a_csc):
    """``ValueError`` unless column ``n - m + i`` of ``A`` has its one
    nonzero in row ``i``, for every row ``i``."""
    m, n = a_csc.shape
    ptr = a_csc.indptr[max(n - m, 0):]
    if (m > n or np.any(np.diff(ptr) != 1) or not np.all(a_csc.data[ptr[:-1]])
            or np.any(a_csc.indices[ptr[:-1]] != np.arange(m))):
        raise ValueError("the last m columns of A must be the rows' slacks")
