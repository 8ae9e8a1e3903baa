"""Workload definitions and the passes that run them.

Every instance is built on ``make_grid_network(k, k, spacing_km=40,
jitter=0.25, seed=5)``.  Each workload is a closed loop with one caller in
one process: a unit of work starts when the previous one has finished.

* ``rshm-cluster``: two-cluster traffic, 7x7 grid, 12 vehicles.  The long
  loop: it runs to the 30-iteration cap, so the per-iteration RDP rebuild
  and the feedback cost table, which grows with the square of the iteration
  count, weigh most here.
* ``rshm-spread``: distributed traffic, 8x8 grid, 16 vehicles.  Few
  iterations and a large routing MILP: the RDP LP does nearly all the work
  and the routes split into many small scheduling components.
* ``sched-cluster``: two-cluster traffic, 8x8 grid, 16 vehicles, instance
  seeds 1-6, on fuel-shortest routes.  The ``solve-sp --cuts star+disj
  --out-bounds`` path: no routing, but scheduling build, disjunctive cuts and
  deep warm-started branch-and-bound.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from dataclasses import dataclass, field, replace

from . import check

PACKAGE = "platoonopt"
SETUP_REPS = 21
GRID = dict(spacing_km=40, jitter=0.25, seed=5)
RSHM_OPTIONS = dict(iter_cap=30, sp_cuts="star", freq_threshold=3,
                    rel_gap=1e-4)
SP_REL_GAP = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "rshm" | "sched"
    generator: str             # "two_cluster" | "distributed"
    grid: int
    vehicles: int
    instance_seeds: tuple[int, ...]
    rshm_options: dict = field(default_factory=lambda: dict(RSHM_OPTIONS))

    def with_instance_seed(self, first: int) -> "Workload":
        seeds = tuple(range(first, first + len(self.instance_seeds)))
        return replace(self, instance_seeds=seeds)


WORKLOADS = {w.name: w for w in (
    Workload("rshm-cluster", "rshm", "two_cluster", 7, 12, (1,)),
    Workload("rshm-spread", "rshm", "distributed", 8, 16, (1,)),
    Workload("sched-cluster", "sched", "two_cluster", 8, 16, (1, 2, 3, 4, 5, 6)),
)}


class Program:
    """The modules of one fresh import of the program."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for mod in ("netmodel", "routing", "rshm", "scheduling", "mip", "cuts"):
            setattr(self, mod, importlib.import_module(f"{PACKAGE}.{mod}"))


@dataclass
class Inputs:
    program: Program
    instances: list                    # (instance seed, ProblemInstance)
    routes: dict = field(default_factory=dict)   # instance seed -> routes


def build_inputs(w: Workload) -> Inputs:
    """Import the program, then generate and validate the instances (and,
    for scheduling, their fuel-shortest routes)."""
    prog = Program()
    nm = prog.netmodel
    net = nm.make_grid_network(w.grid, w.grid, **GRID)
    gen = getattr(nm, f"generate_{w.generator}")
    instances = [(s, gen(net, w.vehicles, s)) for s in w.instance_seeds]
    inputs = Inputs(prog, instances)
    if w.kind == "sched":
        inputs.routes = {s: prog.routing.shortest_path_assignment(inst)
                         for s, inst in instances}
    return inputs


def setup(w: Workload) -> tuple[list, Inputs]:
    """``SETUP_REPS`` fresh imports and builds, each timed as a (start, end)
    window; the inputs of the last one are used."""
    windows = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = build_inputs(w)
        windows.append((t0, time.perf_counter()))
    return windows, inputs


@dataclass
class Outcome:
    """One solve: its answer, the facts that must repeat, and its checks."""
    instance_seed: int
    fuel: float | None = None
    baseline: float | None = None       # fuel on shortest paths
    fingerprint: dict | None = None
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    windows: list[tuple[float, float]]    # (start, end) of each solve
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.windows)


def run_pass(w: Workload, inputs: Inputs, rng: random.Random) -> Pass:
    """One unit of work: every instance of the workload, in an order drawn
    from ``rng``.  Only the program's solve calls are timed."""
    order = list(inputs.instances)
    rng.shuffle(order)
    solve = _rshm_solve if w.kind == "rshm" else _sched_solve
    outcomes, windows = [], []
    for s, inst in order:
        out = Outcome(s)
        try:
            windows.append(solve(w, inputs, s, inst, out))
        except Exception as exc:   # a failed solve is counted, not fatal
            out.problems.append(f"raised {type(exc).__name__}: {exc}")
        outcomes.append(out)
    outcomes.sort(key=lambda o: o.instance_seed)
    return Pass(windows, outcomes)


def _rshm_solve(w, inputs, s, inst, out: Outcome) -> tuple[float, float]:
    prog = inputs.program
    opts = prog.rshm.RshmOptions(**w.rshm_options)
    t0 = time.perf_counter()
    res = prog.rshm.run(inst, opts)
    window = (t0, time.perf_counter())
    z_trace = [t["z"] for t in res.trace]
    plan = check.plan_from(res.routes, res.platoons, res.z_hat)
    out.problems += check.check_rshm(inst, plan, z_trace,
                                     prog.scheduling.EQUAL_ENTRY_TOL)
    out.fuel = res.z_hat
    out.baseline = prog.routing.shortest_path_assignment(inst).total_cost()
    out.fingerprint = {"iterations": res.iterations,
                       "termination": res.termination, "z": z_trace}
    return window


def _sched_solve(w, inputs, s, inst, out: Outcome) -> tuple[float, float]:
    prog = inputs.program
    sched, mip, cuts = prog.scheduling, prog.mip, prog.cuts
    routes = inputs.routes[s]
    params = prog.rshm.SavingsParams.from_instance(inst)
    t0 = time.perf_counter()
    contracted = sched.contract(routes, routes.edge_times, routes.edge_costs)
    bounds = sched.time_bounds(contracted, inst.missions)
    handle = sched.build_sp(contracted, params, bounds,
                            sched.CutOptions(star_partition=True))
    sol = mip.solve_mip(handle.model, rel_gap=SP_REL_GAP,
                        root_cut_hook=cuts.make_disjunctive_hook(handle))
    if sol.status != "optimal":
        out.problems.append(f"scheduling solve ended {sol.status}")
        return (t0, time.perf_counter())
    config = sched.extract_platoons(handle, sol)
    expanded = sched.expand_platoons(config, contracted)
    fuel = sched.total_fuel(routes, expanded, inst.network.fuel_table(), params)
    report = cuts.bound_improvement_report(contracted, params, bounds)
    window = (t0, time.perf_counter())
    out.problems += check.check_schedule(mip, handle, sol, report)
    out.problems += check.check_plan(inst, check.plan_from(routes, expanded, fuel),
                                     sched.EQUAL_ENTRY_TOL)
    out.fuel = fuel
    out.baseline = routes.total_cost()
    out.fingerprint = {"status": sol.status, "savings": sol.objective,
                       "fuel": fuel}
    return window
