"""Model export: a ``mip.LinearModel`` as free-format MPS or CPLEX LP
text, rows listed from its ``constraints`` view, the objective with its
constant.  Every field is separated by whitespace, so a name of any
length stays one field, and every number is written by ``repr``, so it
reads back exactly."""

from __future__ import annotations

import numpy as np

from .mip import (BINARY, CONTINUOUS, EQ, GE, INTEGER, KINDS, LE,
                  LinearModel)

OBJECTIVE_ROW = "COST"


class IoError(Exception):
    """Model export failed."""


def _num(v: float) -> str:
    return repr(float(v))


def _safe_names(names, prefix, reserved=()):
    """One name per entry of ``names``, blanks made ``_``: the name itself,
    or ``prefix`` and its index (then ``_`` until unused) when it is empty,
    longer than 60 characters, reserved or taken by an earlier entry."""
    names = [(nm or "").strip().replace(" ", "_") for nm in names]
    used = set(reserved)
    keep = []
    for nm in names:
        ok = bool(nm) and len(nm) <= 60 and nm not in used
        keep.append(ok)
        if ok:
            used.add(nm)
    out = []
    for i, (nm, ok) in enumerate(zip(names, keep)):
        if not ok:
            nm = f"{prefix}{i}"
            while nm in used:
                nm += "_"
            used.add(nm)
        out.append(nm)
    return out


def write_model(model: LinearModel, fmt: str, path: str) -> None:
    """Write the model as free-format MPS or CPLEX LP."""
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
    rows = model.constraints
    cnames = _safe_names(model.row_names, "R", reserved=(OBJECTIVE_ROW,))
    lbs, ubs, costs = model.lb.tolist(), model.ub.tolist(), model.c.tolist()
    kinds = [KINDS[k] for k in model.kind.tolist()]
    sense_code = {LE: "L", GE: "G", EQ: "E"}
    lines = [f"NAME {model.name.upper()[:8] or 'MODEL'}"]
    lines.append("ROWS")
    lines.append(f" N {OBJECTIVE_ROW}")
    for i, con in enumerate(rows):
        lines.append(f" {sense_code[con.sense]} {cnames[i]}")
    lines.append("COLUMNS")
    col_rows: list[list[tuple[str, float]]] = [[] for _ in vnames]
    for i, con in enumerate(rows):
        for j, v in sorted(con.coeffs.items()):
            col_rows[j].append((cnames[i], v))
    obj_sign = 1.0 if model.obj_sense == "min" else -1.0
    in_int = False
    marker = 0
    for j, oc in enumerate(costs):
        entries = []
        if oc:
            entries.append((OBJECTIVE_ROW, obj_sign * oc))
        entries.extend(col_rows[j])
        if not entries:
            entries.append((OBJECTIVE_ROW, 0.0))
        integral = kinds[j] != CONTINUOUS
        if integral != in_int:
            tag = "INTORG" if integral else "INTEND"
            lines.append(f"    MARKER{marker:04d} 'MARKER' '{tag}'")
            marker += 1
            in_int = integral
        for row, v in entries:
            lines.append(f"    {vnames[j]} {row} {_num(v)}")
    if in_int:
        lines.append(f"    MARKER{marker:04d} 'MARKER' 'INTEND'")
    lines.append("RHS")
    if model.obj_constant:
        # HiGHS reads the objective row's right-hand side as minus the
        # objective constant
        lines.append(f"    RHS {OBJECTIVE_ROW} "
                     f"{_num(-obj_sign * model.obj_constant)}")
    for i, con in enumerate(rows):
        if con.rhs != 0.0:
            lines.append(f"    RHS {cnames[i]} {_num(con.rhs)}")
    lines.append("BOUNDS")
    for nm, lb, ub, kind in zip(vnames, lbs, ubs, kinds):
        if kind == BINARY:
            lines.append(f" BV BND {nm}")
            continue
        if lb == 0.0 and np.isinf(ub):
            continue
        if np.isinf(lb) and lb < 0:
            lines.append(f" MI BND {nm}")
        elif lb != 0.0:
            code = "LI" if kind == INTEGER else "LO"
            lines.append(f" {code} BND {nm} {_num(lb)}")
        if np.isfinite(ub):
            code = "UI" if kind == INTEGER else "UP"
            lines.append(f" {code} BND {nm} {_num(ub)}")
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
    cnames = _safe_names(model.row_names, "c")
    kinds = [KINDS[k] for k in model.kind.tolist()]
    lines = ["Minimize" if model.obj_sense == "min" else "Maximize"]
    objective = _expr(model.obj_coeffs, vnames)
    if model.obj_constant:
        c = model.obj_constant
        objective += f" {'-' if c < 0 else '+'} {_num(abs(c))}"
    lines.append(f" obj: {objective}")
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
