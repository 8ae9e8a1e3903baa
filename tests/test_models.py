"""The routing and scheduling models that ``build_rdp``, ``build_sp`` and
``partition_rows`` append as row blocks, against the same models built
one row dict at a time (``reference_models``): HiGHS gets the same bytes,
and the exports and row views agree.  Also the checks of the block entry
points, instance validation and candidate edge sets against the loops they
replace."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import reference_models
from platoonopt import (export, mip, netmodel as nm, routing, rshm,
                        scheduling as sched)
from platoonopt.rshm import RshmOptions, SavingsParams

from conftest import hull_rows, variables


def _highs_input(model):
    """Everything HiGHS gets from a model, as bytes: the CSC arrays of its
    rows as ``passModel`` receives them, the row bounds, the costs, the
    column bounds and the kinds."""
    rows = model.compiled_rows()
    a = rows.csc
    c, lo, hi, _sign = mip._columns(model)
    return {"indptr": a.indptr.astype(np.int32).tobytes(),
            "indices": a.indices.astype(np.int32).tobytes(),
            "data": a.data.tobytes(), "shape": a.shape,
            "rlo": rows.rlo.tobytes(), "rhi": rows.rhi.tobytes(),
            "c": c.tobytes(), "lb": lo.tobytes(), "ub": hi.tobytes(),
            "kind": model.kind.tobytes()}


def _rows(model):
    return [(list(con.coeffs.items()), con.sense, con.rhs, con.name)
            for con in model.constraints]


def assert_same_model(got, ref):
    assert _highs_input(got) == _highs_input(ref)
    assert got.names == ref.names
    assert _rows(got) == _rows(ref)
    assert export._to_mps(got) == export._to_mps(ref)
    assert export._to_lp(got) == export._to_lp(ref)


_INSTANCE = st.tuples(st.sampled_from(["distributed", "two_cluster"]),
                      st.integers(3, 7), st.integers(1, 9),
                      st.integers(0, 40))


def _instance(spec):
    generator, k, n, seed = spec
    net = nm.make_grid_network(k, k, spacing_km=40, jitter=0.25, seed=seed)
    try:
        return getattr(nm, f"generate_{generator}")(net, n, seed)
    except (nm.NoHubPair, nm.NoNodeInRadius):
        assume(False)


def _run(inst):
    """An RSHM run of a few iterations: its cost tables and routes."""
    state = rshm.run(inst, RshmOptions(iter_cap=4)).state
    return ([state.tables[n] for n in sorted(state.tables)],
            [state.records[n].routes for n in sorted(state.records)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=_INSTANCE)
def test_routing_model_is_the_reference(spec):
    inst = _instance(spec)
    tables, _routes = _run(inst)
    for n, costs in enumerate(tables, start=1):
        got = routing.build_rdp(inst)
        if n > 1:
            routing.set_rdp_costs(got, costs)
        ref = reference_models.build_rdp(inst, costs)
        assert_same_model(got.model, ref.model)
        assert list(got.x_col.items()) == list(ref.x_col.items())
        for name in ("y_col", "yp_col", "w_col", "edge_vehicles"):
            assert list(getattr(got, name).items()) == \
                list(getattr(ref, name).items())
        assert got.candidates == ref.candidates


# (star-partition rows, size facets, departure-window rows)
_CUTS = st.sampled_from([(False, False, False), (True, False, False),
                         (True, True, False), (False, False, True),
                         (True, False, True), (True, True, True)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=_INSTANCE, cuts=_CUTS, merge=st.booleans())
def test_scheduling_model_is_the_reference(spec, cuts, merge):
    inst = _instance(spec)
    params = SavingsParams.from_instance(inst)
    _tables, routes = _run(inst)
    star, facets, window = cuts
    for ra in [routing.shortest_path_assignment(inst)] + routes:
        contracted = sched.contract(ra, ra.edge_times, ra.edge_costs) \
            if merge else reference_models.uncontracted(ra)
        bounds = sched.time_bounds(contracted, inst.missions)
        got = sched.build_sp(contracted, params, bounds,
                             sched.CutOptions(star, facets, window))
        ref = reference_models.build_sp(contracted, params, bounds,
                                        star, facets, window=window)
        event(f"window rows: "
              f"{any(n.startswith('win_') for n in got.model.row_names)}")
        assert_same_model(got.model, ref.model)
        for name in ("dep_col", "f_col", "l_col"):
            assert list(getattr(got, name).items()) == \
                list(getattr(ref, name).items())
        # the route times the model reads, against the reference's walk
        assert list(got.bounds.offset.items()) == list(ref.prefix.items())
        assert list(got.bounds.origin.items()) == list(ref.origin.items())
        # rows appended to a built model, as the bound report appends them
        plain = sched.build_sp(contracted, params, bounds)
        rows = sched.RowBlock()
        sched.partition_rows(plain, sched.CutOptions(True), rows)
        added = rows.append_to(plain.model)
        ref = reference_models.build_sp(contracted, params, bounds)
        assert added == reference_models.add_partition_rows(
            ref, contracted, params.max_platoon, True, False)
        assert_same_model(plain.model, ref.model)


def test_hull_rows_are_the_reference():
    # the per-edge template build_rdp lays its rows out from
    for k in range(1, 6):
        vehicles = [3 * v + 1 for v in range(k)]
        assert hull_rows((4, 7), vehicles) == \
            reference_models.hull_inequalities((4, 7), vehicles)
        assert [list(r[0]) for r in hull_rows((4, 7), vehicles)] == \
            [list(r[0]) for r in reference_models.hull_inequalities(
                (4, 7), vehicles)]


# ---------------------------------------------------------------------------
# The block entry points check what the one-row calls check
# ---------------------------------------------------------------------------

_BAD_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf])
_COEF = st.one_of(st.integers(-2, 2).map(float), _BAD_NUMBER)
_ROW = st.tuples(
    st.dictionaries(st.integers(-1, 4), _COEF, max_size=4),
    st.sampled_from([mip.LE, mip.GE, mip.EQ, "<", "=", None]),
    st.one_of(st.integers(-3, 3).map(float), _BAD_NUMBER))


def _outcome(add, model):
    try:
        add(model)
    except mip.ModelError as exc:
        return str(exc)
    return None


def _row_by_loop(coeffs, sense, rhs, name, nv):
    """The checks ``add_constraint`` made as a loop over one row's
    coefficients, the reference: the row with its zeros dropped, or
    ``ModelError``."""
    if sense not in (mip.LE, mip.GE, mip.EQ):
        raise mip.ModelError(f"bad sense {sense!r}")
    if not math.isfinite(rhs):
        raise mip.ModelError(f"constraint {name!r} has non-finite rhs {rhs}")
    clean = {}
    for j, v in coeffs.items():
        if j < 0 or j >= nv:
            raise mip.ModelError(
                f"constraint {name!r} references unknown column {j}")
        if not math.isfinite(v):
            raise mip.ModelError(
                f"constraint {name!r} has non-finite coefficient {v}")
        if v != 0.0:
            clean[j] = v
    return list(clean.items()), sense, float(rhs), name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(_ROW, max_size=5))
def test_add_rows_rejects_what_add_constraint_rejects(rows):
    names = [f"r{i}" for i in range(len(rows))]
    try:
        expected = [_row_by_loop(*row, name, 4)
                    for row, name in zip(rows, names)]
        error = None
    except mip.ModelError as exc:
        error = str(exc)

    def as_block(model):
        model.add_rows(mip.row_pointers([len(r[0]) for r in rows]),
                       [j for r in rows for j in r[0]],
                       [v for r in rows for v in r[0].values()],
                       [r[1] for r in rows], [r[2] for r in rows], names)

    def one_by_one(model):
        for (coeffs, sense, rhs), name in zip(rows, names):
            model.add_constraint(coeffs, sense, rhs, name)

    for add in (as_block, one_by_one):
        model = mip.LinearModel()
        model.add_vars(["a", "b", "c", "d"])
        assert _outcome(add, model) == error
        if error is None:
            assert _rows(model) == expected
    block = mip.LinearModel()
    block.add_vars(["a", "b", "c", "d"])
    if _outcome(as_block, block) is not None:
        assert block.num_constraints == 0       # nothing appended
        assert block.compiled_rows().a.nnz == 0


_BOUND = st.sampled_from([0.0, 1.0, -2.0, 0.5, math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cols=st.lists(st.tuples(_BOUND, _BOUND, st.sampled_from(
    [mip.CONTINUOUS, mip.BINARY, mip.INTEGER, "semicontinuous"])),
    max_size=4))
def test_add_vars_rejects_what_add_var_rejects(cols):
    names = [f"x{i}" for i in range(len(cols))]
    try:
        expected = [mip._checked_column(name, *col)
                    for name, col in zip(names, cols)]
        error = None
    except mip.ModelError as exc:
        error = str(exc)
    model = mip.LinearModel()
    assert _outcome(lambda m: m.add_vars(names, [c[0] for c in cols],
                                         [c[1] for c in cols],
                                         [c[2] for c in cols]),
                    model) == error
    if error is None:
        assert list(zip(model.lb.tolist(), model.ub.tolist(),
                        model.kind.tolist())) == expected
        assert model.names == names
    else:
        assert model.num_vars == 0


def test_kinds_may_be_codes():
    model = mip.LinearModel()
    model.add_vars(["x", "y"], -1.0, 2.0,
                   np.array([mip.CONTINUOUS_CODE, mip.BINARY_CODE]))
    assert [v.kind for v in variables(model)] == [mip.CONTINUOUS, mip.BINARY]
    assert model.ub.tolist() == [2.0, 1.0]
    with pytest.raises(mip.ModelError, match="unknown kind 7"):
        model.add_vars(["z"], kind=np.array([7]))
    assert model.num_vars == 2


def test_add_rows_rejects_a_repeated_column_and_a_malformed_block():
    model = mip.LinearModel()
    model.add_vars(["a", "b"])
    with pytest.raises(mip.ModelError, match="'twice' repeats column 1"):
        model.add_rows([0, 1, 3], [0, 1, 1], [1.0, 1.0, 2.0], mip.LE, 0.0,
                       ["once", "twice"])
    with pytest.raises(mip.ModelError, match="row block"):
        model.add_rows([0, 2], [0], [1.0], mip.LE, 0.0, ["short"])
    with pytest.raises(mip.ModelError, match="row block"):
        model.add_rows([0, 1], [0], [1.0], mip.LE, [0.0, 1.0], ["one"])
    with pytest.raises(mip.ModelError, match="row block"):
        model.add_rows([], [], [], mip.LE, 0.0, [])
    assert model.num_constraints == 0


def test_rows_are_read_back_in_the_order_given():
    model = mip.LinearModel()
    model.add_vars(["a", "b", "c"])
    rows = model.add_rows([0, 3, 3, 5], [2, 0, 1, 1, 0],
                          [1.0, 0.0, -2.0, 4.0, 5.0],
                          np.array([mip.GE, mip.EQ, mip.LE]), [1.0, -0.0, 3.0],
                          ["p", "q", "r"])
    assert rows == range(0, 3)
    assert [(c.coeffs, c.sense, c.rhs, c.name) for c in model.constraints] == [
        ({2: 1.0, 1: -2.0}, mip.GE, 1.0, "p"), ({}, mip.EQ, 0.0, "q"),
        ({1: 4.0, 0: 5.0}, mip.LE, 3.0, "r")]
    assert [list(c.coeffs) for c in model.constraints] == [[2, 1], [], [1, 0]]
    assert model.rlo.tolist() == [1.0, 0.0, -math.inf]
    with pytest.raises(ValueError):
        model.rlo[0] = 2.0                       # a read-only view
    copy = model.copy()
    model.add_constraint({0: 1.0}, mip.LE, 1.0)
    assert copy.num_constraints == 3 and copy.row_names == ["p", "q", "r"]


# ---------------------------------------------------------------------------
# Instance validation and candidate edge sets
# ---------------------------------------------------------------------------

def _validate_by_shortest_path(inst):
    """The window check of ``ProblemInstance.validate`` as it read each
    mission's time off its tie-broken shortest path."""
    for m in inst.missions:
        t = nm.shortest_path(inst.network, m.origin, m.dest, "time").time
        if m.t_latest < m.t_earliest + t - 1e-9:
            raise nm.ValidationError(
                f"vehicle {m.id}: window shorter than shortest travel time")


def _verdict(check, inst):
    try:
        check(inst)
    except (nm.ValidationError, nm.NetworkError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("jitter", [0.0, 0.25])
@pytest.mark.parametrize("delta", [-2e-9, -1e-9, -0.5e-9, 0.0, 1e-12, 3e-9])
def test_validate_accepts_and_rejects_as_before(jitter, delta):
    net = nm.make_grid_network(5, 5, spacing_km=40, jitter=jitter, seed=3)
    for seed in range(4):
        inst = nm.generate_distributed(net, 6, seed)
        for m in list(inst.missions):
            t = nm.shortest_path(net, m.origin, m.dest, "time").time
            narrow = nm.VehicleMission(m.id, m.origin, m.dest, m.t_earliest,
                                       m.t_earliest + t - 1e-9 + delta)
            inst.missions[m.id - 1] = narrow
            got = _verdict(nm.ProblemInstance.validate, inst)
            ref = _verdict(_validate_by_shortest_path, inst)
            assert got == ref
            assert (got is None) == (delta >= 0.0)
            inst.missions[m.id - 1] = m


def test_validate_reports_an_unreachable_destination():
    net = nm.RoadNetwork([nm.Node(1, 0, 0), nm.Node(2, 1, 0), nm.Node(3, 2, 0)],
                         [nm.Edge(1, 2, 1.0, 1.0, 1.0)])
    inst = nm.ProblemInstance(net, [nm.VehicleMission(1, 1, 3, 0.0, 5.0)])
    with pytest.raises(nm.Unreachable):
        inst.validate()


@pytest.mark.parametrize("generator", ["distributed", "two_cluster"])
def test_candidate_edge_sets_are_the_reference(generator):
    # on the grid without jitter many routes tie in length
    for jitter in (0.0, 0.25):
        net = nm.make_grid_network(6, 6, spacing_km=40, jitter=jitter, seed=5)
        inst = getattr(nm, f"generate_{generator}")(net, 10, 2)
        for m, sigma_f in itertools.product(inst.missions,
                                            (0.0, 0.05, 0.1, 0.3)):
            got = nm.candidate_edge_set(net, m, sigma_f)
            ref = reference_models.candidate_edge_set(net, m, sigma_f)
            assert got == ref
            assert list(got) == list(ref)     # also in the same order
    # a one-way chain: 3 cannot reach 1
    chain = nm.RoadNetwork([nm.Node(i, i, 0) for i in (1, 2, 3)],
                           [nm.Edge(1, 2, 1.0, 1.0, 1.0),
                            nm.Edge(2, 3, 1.0, 1.0, 1.0)])
    back = nm.VehicleMission(1, 3, 1, 0.0, 9.0)
    for candidates in (nm.candidate_edge_set,
                       reference_models.candidate_edge_set):
        with pytest.raises(nm.Unreachable):
            candidates(chain, back, 0.1)
