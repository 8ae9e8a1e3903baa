"""The cut-generating LP built as a ``mip.LinearModel``, one column and one
row at a time, and disjunctive separation on it: the reference of the
sparse block that ``cuts.build_cglp`` assembles.  Also the bound report
with a cut loop of its own over a model it appends the cuts to: the
reference of ``cuts.bound_improvement_report``, which runs
``mip.Relaxation.cut_rounds``."""

from __future__ import annotations

import numpy as np

from platoonopt import mip, scheduling as sched
from platoonopt.cuts import AssemblyError, DisjunctiveCut, _CglpSystem
from platoonopt.cuts import MIN_VIOLATION, collect_active_sets
from platoonopt.cuts import separate_disjunctive

from conftest import add_cut, extend_start


def cglp_model(active, point, handle):
    """Returns (model, system, column layout) where the layout maps the CGLP
    columns back to multipliers (alpha, beta0, beta1, gamma0, gamma1)."""
    sys_ = _CglpSystem(active, handle)
    omega_hat = sys_.omega_values(point, handle)
    f_hat = active.f_star
    n_omega = len(sys_.omega)
    n_rows = len(sys_.rows)

    m = mip.LinearModel("cglp")
    a_cols = [m.add_var(f"alpha_{k}", lb=-np.inf, ub=np.inf)
              for k in range(n_omega)]
    b0_cols = [m.add_var(f"beta0_{r}", lb=0.0) for r in range(n_rows)]
    b1_cols = [m.add_var(f"beta1_{r}", lb=0.0) for r in range(n_rows)]
    g0 = m.add_var("gamma0", lb=0.0)
    g1 = m.add_var("gamma1", lb=0.0, ub=1.0)

    # A~^T beta0 = alpha and A~^T beta1 = alpha.
    col_rows: dict[int, list[tuple[int, float]]] = {k: [] for k in range(n_omega)}
    for r, row in enumerate(sys_.rows):
        for k, c in row.items():
            col_rows[k].append((r, c))
    for k in range(n_omega):
        for beta_cols in (b0_cols, b1_cols):
            coeffs = {beta_cols[r]: c for r, c in col_rows[k]}
            coeffs[a_cols[k]] = coeffs.get(a_cols[k], 0.0) - 1.0
            m.add_constraint(coeffs, "==", 0.0)

    norm = {c: 1.0 for c in b0_cols + b1_cols}
    norm[g0] = 1.0
    norm[g1] = 1.0
    m.add_constraint(norm, "==", 1.0, name="normalization")

    obj: dict[int, float] = {}
    for k in range(n_omega):
        if omega_hat[k] != 0.0:
            obj[a_cols[k]] = omega_hat[k]
    for r in range(n_rows):
        b_r, p_r = sys_.b[r], sys_.p[r]
        c0 = b_r * (f_hat - 1.0)
        if c0 != 0.0:
            obj[b0_cols[r]] = c0
        c1 = (p_r - b_r) * f_hat
        if c1 != 0.0:
            obj[b1_cols[r]] = c1
    obj[g0] = f_hat
    obj[g1] = 1.0 - f_hat
    m.set_objective(obj, sense="min")
    layout = {"alpha": a_cols, "beta0": b0_cols, "beta1": b1_cols,
              "gamma0": g0, "gamma1": g1}
    return m, sys_, layout


def separate(point, handle):
    """``cuts.separate_disjunctive`` with the CGLP of :func:`cglp_model`,
    solved by ``mip.solve_lp``."""
    active = collect_active_sets(point, handle)
    if active is None:
        return None
    model, sys_, layout = cglp_model(active, point, handle)
    sol = mip.solve_lp(model)
    if sol.status != "optimal":
        return None
    violation = -sol.objective
    if violation <= MIN_VIOLATION:
        return None

    alpha = np.array([sol.x[c] for c in layout["alpha"]])
    beta0 = np.array([sol.x[c] for c in layout["beta0"]])
    beta1 = np.array([sol.x[c] for c in layout["beta1"]])
    gamma0 = float(sol.x[layout["gamma0"]])
    gamma1 = float(sol.x[layout["gamma1"]])
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


def bound_improvement_report(contracted, params, bounds) -> dict:
    """``cuts.bound_improvement_report`` as a loop of its own: each cut is
    added to the model and the LP solved from the last basis with the cut
    basic, then the star rows are added the same way.  Cold LP first; the
    loop separates even at an integral LP, where no cut is found.  The
    model is the paper's, without the departure-window rows."""
    handle = sched.build_sp(contracted, params, bounds,
                            sched.CutOptions(window=False))
    lp0 = mip.solve_lp(handle.model)
    disj = []
    lp = lp0
    for _ in range(mip.DEFAULT_CUT_ROUNDS):
        if lp.status != "optimal":
            break
        found = separate_disjunctive(lp, handle)
        if found is None:
            break
        disj.append(found)
        add_cut(handle.model, found.cut)
        lp = mip.solve_lp(handle.model, start=extend_start(lp.basis, 1))
    bd1 = lp.objective if lp.status == "optimal" else lp0.objective
    star = sched.RowBlock()
    sched.partition_rows(handle, sched.CutOptions(star_partition=True), star)
    n_star = star.append_to(handle.model)
    start = extend_start(lp.basis, n_star) if lp.status == "optimal" \
        else None
    lp2 = mip.solve_lp(handle.model, start=start)
    return {"lp_bound_plain": lp0.objective, "lp_bound_disj": bd1,
            "lp_bound_disj_star": lp2.objective if lp2.status == "optimal"
            else bd1,
            "n_disjunctive": len(disj), "n_star_rows": n_star,
            "disj_cuts": disj}
