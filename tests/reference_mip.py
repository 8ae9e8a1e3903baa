"""A second MILP backend for the tests: HiGHS's own MIP solver, run on a
``mip.LinearModel`` passed to it as it is, or on a model file HiGHS reads.

HiGHS is loaded the way ``simplex.load_highs`` loads it.  Its MIP solver
writes to fd 1 below Python even with its output off, so every read and
run here sends fd 1 to the null device.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np

from platoonopt import mip, simplex

_hs = simplex.load_highs()
_STATUS = {_hs.HighsModelStatus.kOptimal: "optimal",
           _hs.HighsModelStatus.kInfeasible: "infeasible",
           _hs.HighsModelStatus.kUnbounded: "unbounded"}


@contextlib.contextmanager
def _quiet():
    """fd 1 on the null device for the duration."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def _highs():
    h = _hs._Highs()
    for name, value in (("output_flag", False), ("threads", 1),
                        ("mip_rel_gap", 0.0), ("mip_abs_gap", 0.0)):
        h.setOptionValue(name, value)
    return h


def load(model: mip.LinearModel):
    """A HiGHS instance holding ``model``: its columns, rows, objective
    sense and constant, and its integer columns."""
    a = model.compiled_rows().csc
    m, n = a.shape
    h = _highs()
    sense = _hs.ObjSense.kMaximize if model.obj_sense == "max" \
        else _hs.ObjSense.kMinimize
    h.passModel(n, m, a.nnz, int(_hs.MatrixFormat.kColwise), int(sense),
                model.obj_constant, model.c.copy(), model.lb.copy(),
                model.ub.copy(), model.rlo.copy(), model.rhi.copy(),
                a.indptr.astype(np.int32), a.indices.astype(np.int32),
                a.data.copy(),
                (model.kind != mip.CONTINUOUS_CODE).astype(np.int32))
    return h


def read(path: str):
    """A HiGHS instance holding the model of the file at ``path``;
    ``ValueError`` when HiGHS rejects the file.  HiGHS warns, and reads on,
    when it drops coefficients of at most 1e-9 in size."""
    h = _highs()
    with _quiet():
        ok = h.readModel(str(path))
    if ok == _hs.HighsStatus.kError:
        raise ValueError(f"HiGHS cannot read {path}: {ok}")
    return h


def solve(h, relax: bool = False) -> tuple[str, float | None]:
    """``(status, objective)`` of HiGHS's run on the model it holds, its
    integer columns made continuous when ``relax``; the objective is None
    unless the status is optimal."""
    if relax:
        n = h.getNumCol()
        h.changeColsIntegrality(n, np.arange(n, dtype=np.int32),
                                np.zeros(n, dtype=np.uint8))
    with _quiet():
        h.run()
    status = _STATUS.get(h.getModelStatus(), str(h.getModelStatus()))
    if status != "optimal":
        return status, None
    return status, h.getInfo().objective_function_value


def solve_milp(model: mip.LinearModel) -> tuple[str, float | None]:
    """``(status, objective)`` of ``model`` by HiGHS's MIP solver."""
    return solve(load(model))
