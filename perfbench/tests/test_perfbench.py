"""Smoke runs of the benchmark on tiny instances, and the checks it relies on."""

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import check, workloads
from perfbench import run as bench
from perfbench.hostspeed import MIN_SAMPLES, REF_KERNEL_S, SpeedSampler
from perfbench.trace import PROBES, Probe, Tracer
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_RSHM = Workload("tiny-rshm", "rshm", "two_cluster", 5, 6, (1,),
                     rshm_options=dict(workloads.RSHM_OPTIONS, iter_cap=4))
TINY_SCHED = Workload("tiny-sched", "sched", "two_cluster", 5, 6, (1, 2))


@pytest.mark.parametrize("w", [TINY_RSHM, TINY_SCHED], ids=lambda w: w.name)
def test_smoke_run_produces_every_metric(w, tmp_path):
    result, record = bench.run(w, seed=3, seconds=0.0, trace=False,
                               state_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(w.instance_seeds)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0

    result, record = bench.run(w, seed=3, seconds=0.0, trace=True,
                               state_dir=tmp_path)
    assert result["correct"] and record["missing_probes"] == []
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["trace.unattributed_s"]["value"] >= 0.0


@pytest.mark.parametrize("w", [TINY_RSHM, TINY_SCHED], ids=lambda w: w.name)
def test_traced_spans_lie_inside_the_timed_solves(w):
    _windows, inputs = workloads.setup(w)
    with Tracer() as tracer:
        p = workloads.run_pass(w, inputs, random.Random(1))
    assert tracer.top_spans
    for s0, s1 in tracer.top_spans:
        assert any(w0 <= s0 and s1 <= w1 for w0, w1 in p.windows)
    if w.kind == "sched":
        # The bound report's own model builds open no span of their own.
        assert tracer.stats["scheduling.build_sp.calls"] == len(w.instance_seeds)


def test_rshm_layers_are_counted(tmp_path):
    result, _ = bench.run(TINY_RSHM, seed=1, seconds=0.0, trace=True,
                          state_dir=tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["routing.build_rdp.calls"] == 4
    assert m["netmodel.candidate_edge_set.calls"] == 4 * 6
    assert m["simplex.solve.rdp.calls"] >= 4 and m["simplex.solve.rdp.pivots"] > 0
    assert m["rshm.similarity_index.calls"] > 0
    assert m["cuts.separate_disjunctive.calls"] == 0


def test_sched_layers_are_counted(tmp_path):
    result, _ = bench.run(TINY_SCHED, seed=1, seconds=0.0, trace=True,
                          state_dir=tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["routing.build_rdp.calls"] == 0
    assert m["simplex.solve.sp.calls"] > 0 and m["simplex.solve.bound.calls"] > 0
    assert m["cuts.separate_disjunctive.calls"] > 0
    assert m["scheduling.sp.largest_component"] >= 2


def test_determinism_guard_names_the_workload(tmp_path):
    bench.run(TINY_SCHED, seed=1, seconds=0.0, trace=False, state_dir=tmp_path)
    bench.run(TINY_SCHED, seed=2, seconds=0.0, trace=False, state_dir=tmp_path)
    (state,) = tmp_path.iterdir()
    stored = json.loads(state.read_text(encoding="utf-8"))
    stored[0]["savings"] += 1e-9
    state.write_text(json.dumps(stored), encoding="utf-8")
    with pytest.raises(bench.NondeterministicRun, match="tiny-sched"):
        bench.run(TINY_SCHED, seed=1, seconds=0.0, trace=False,
                  state_dir=tmp_path)


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    """A scheduled tiny instance with at least one platoon."""
    prog = workloads.Program()
    sched, mip, cuts = prog.scheduling, prog.mip, prog.cuts
    net = prog.netmodel.make_grid_network(5, 5, **workloads.GRID)
    inst = prog.netmodel.generate_two_cluster(net, 6, 1)
    routes = prog.routing.shortest_path_assignment(inst)
    params = prog.rshm.SavingsParams.from_instance(inst)
    contracted = sched.contract(routes, routes.edge_times, routes.edge_costs)
    bounds = sched.time_bounds(contracted, inst.missions)
    handle = sched.build_sp(contracted, params, bounds,
                            sched.CutOptions(star_partition=True))
    sol = mip.solve_mip(handle.model,
                        root_cut_hook=cuts.make_disjunctive_hook(handle))
    expanded = sched.expand_platoons(sched.extract_platoons(handle, sol),
                                     contracted)
    fuel = sched.total_fuel(routes, expanded, inst.network.fuel_table(), params)
    report = cuts.bound_improvement_report(contracted, params, bounds)
    plan = check.plan_from(routes, expanded, fuel)
    tol = sched.EQUAL_ENTRY_TOL
    return dict(prog=prog, inst=inst, handle=handle, sol=sol, report=report,
                plan=plan, tol=tol)


def _platoon(plan):
    for e, plist in sorted(plan.platoons.items()):
        for leader, followers in plist:
            if followers:
                return e, leader, followers
    raise AssertionError("fixture has no platoon")


def test_checker_accepts_a_correct_answer(solved):
    assert check.check_plan(solved["inst"], solved["plan"], solved["tol"]) == []
    assert check.check_rshm(solved["inst"], solved["plan"],
                            [solved["plan"].fuel + 1.0, solved["plan"].fuel],
                            solved["tol"]) == []
    assert check.check_schedule(solved["prog"].mip, solved["handle"],
                                solved["sol"], solved["report"]) == []


def test_checker_rejects_unequal_entry(solved):
    plan = solved["plan"]
    _e, _leader, followers = _platoon(plan)
    deps = dict(plan.departures)
    deps[followers[0]] += 0.01
    bad = dataclasses.replace(plan, departures=deps)
    problems = check.check_plan(solved["inst"], bad, solved["tol"])
    assert any("enters at" in p for p in problems)


def test_checker_rejects_tampered_fuel(solved):
    plan = solved["plan"]
    bad = dataclasses.replace(plan, fuel=plan.fuel - 0.5)
    assert any("fuel recomputed" in p
               for p in check.check_rshm(solved["inst"], bad, [bad.fuel],
                                         solved["tol"]))
    assert any("min(z trace)" in p
               for p in check.check_rshm(solved["inst"], plan,
                                         [plan.fuel + 1.0], solved["tol"]))


def test_checker_rejects_oversized_platoon(solved):
    inst = dataclasses.replace(solved["inst"], max_platoon=1)
    problems = check.check_plan(inst, solved["plan"], solved["tol"])
    assert any("exceeds" in p for p in problems)


def test_checker_rejects_member_off_the_edge(solved):
    plan = solved["plan"]
    e, leader, followers = _platoon(plan)
    outsider = next(v for v in plan.routes if e not in
                    zip(plan.routes[v], plan.routes[v][1:]))
    platoons = dict(plan.platoons)
    platoons[e] = [(leader, followers + (outsider,))]
    bad = dataclasses.replace(plan, platoons=platoons)
    assert any("do not use the edge" in p
               for p in check.check_plan(solved["inst"], bad, solved["tol"]))


def test_checker_rejects_a_broken_route(solved):
    plan = solved["plan"]
    v = min(plan.routes)
    routes = dict(plan.routes)
    routes[v] = routes[v][:-1]
    bad = dataclasses.replace(plan, routes=routes)
    assert check.check_plan(solved["inst"], bad, solved["tol"])


def test_checker_rejects_misordered_bounds(solved):
    report = dict(solved["report"])
    report["lp_bound_disj"] = report["lp_bound_plain"] + 1.0
    problems = check.check_schedule(solved["prog"].mip, solved["handle"],
                                    solved["sol"], report)
    assert any("LPbd0" in p for p in problems)
    sol = dataclasses.replace(solved["sol"], x=solved["sol"].x * 0.0 + 0.5)
    assert check.check_schedule(solved["prog"].mip, solved["handle"], sol,
                                solved["report"])


# ---------------------------------------------------------------------------
# The tracer and the command
# ---------------------------------------------------------------------------

def test_host_speed_adjustment_removes_sampling_and_scales():
    sampler = SpeedSampler()
    # The host runs the kernel at half the reference speed in the window.
    # Each sample spent twice the timed kernel: a warm-up run, then the timed one.
    sampler.samples = [(1.0 + 0.1 * i, 2 * REF_KERNEL_S, 4 * REF_KERNEL_S)
                       for i in range(MIN_SAMPLES)]
    (adjusted,) = sampler.adjust([(0.0, 10.0)], since=0.0)
    assert adjusted == pytest.approx((10.0 - MIN_SAMPLES * 4 * REF_KERNEL_S) / 2)


def test_tracer_drops_missing_functions_and_restores():
    prog = workloads.Program()
    original = prog.rshm.update_cost_table
    probes = (Probe("rshm", "no_such_function", "rshm.gone", ("rshm.gone.calls",)),
              Probe("no_such_module", "solve", "gone.solve", ("gone.solve.calls",)),
              next(p for p in PROBES if p.attr == "update_cost_table"))
    with Tracer(probes) as tracer:
        assert prog.rshm.update_cost_table is not original
    assert prog.rshm.update_cost_table is original
    assert tracer.missing == ["rshm.no_such_function", "no_such_module.solve"]
    assert list(tracer.metrics()) == ["rshm.update_cost_table.self_s"]


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "rshm-cluster",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "program sources not found" in proc.stderr
    assert "correct" not in proc.stdout
