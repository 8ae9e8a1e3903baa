"""Command-line interface: generate instances, solve the two subproblems,
run the full heuristic, export models, and emit report tables.

Exit codes: 0 ok, 2 infeasible, 3 limits hit, 4 usage/input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import cuts, export, mip, netmodel, routing, rshm, scheduling
from .rshm import SavingsParams

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_USAGE = 4


def _load_net(args) -> netmodel.RoadNetwork:
    if getattr(args, "net", None):
        return netmodel.load_instance(args.net).network
    return netmodel.make_grid_network(args.rows, args.cols,
                                      spacing_km=args.spacing,
                                      jitter=args.jitter, seed=args.seed)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6f}"
    return v


def cmd_gen(args) -> int:
    net = _load_net(args)
    if args.model == "synthetic-net":
        inst = netmodel.ProblemInstance(net, [], args.sigma_l, args.sigma_f,
                                        args.max_platoon,
                                        meta={"model": "synthetic-net",
                                              "seed": args.seed})
    elif args.model == "distributed":
        inst = netmodel.generate_distributed(
            net, args.n, args.seed, urban_radius_km=args.urban_radius,
            urban_share=args.urban_share, flexibility=args.flexibility,
            sigma_l=args.sigma_l, sigma_f=args.sigma_f,
            max_platoon=args.max_platoon)
    else:
        inst = netmodel.generate_two_cluster(
            net, args.n, args.seed, flexibility=args.flexibility,
            sigma_l=args.sigma_l, sigma_f=args.sigma_f,
            max_platoon=args.max_platoon)
    netmodel.save_instance(inst, args.out)
    print(f"wrote {args.out} ({len(inst.missions)} vehicles, "
          f"{len(net.nodes)} nodes, {len(net.edges)} edges)")
    return EXIT_OK


def _solve_rdp(inst, args):
    handle = routing.build_rdp(inst)
    sol = mip.solve_mip(handle.model, rel_gap=args.gap,
                        time_limit_s=args.time_limit,
                        initial_solution=routing.initial_solution(handle))
    return handle, sol


def cmd_solve_rdp(args) -> int:
    inst = netmodel.load_instance(args.instance)
    handle, sol = _solve_rdp(inst, args)
    if sol.status == "infeasible":
        print("routing problem infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if sol.status not in ("optimal", "feasible"):
        return EXIT_LIMIT
    assignment = routing.extract_route_assignment(handle, sol)
    baseline = routing.shortest_path_assignment(inst)
    fuel0 = baseline.total_cost()
    detours = sum(1 for v in assignment.vehicles
                  if assignment.route_cost(v) > baseline.route_cost(v) + 1e-9)
    if args.out_routes:
        with open(args.out_routes, "w", encoding="utf-8") as fh:
            json.dump({"routes": {str(v): list(assignment.routes[v])
                                  for v in assignment.vehicles}}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    if args.out_report:
        _write_csv(args.out_report,
                   ["Instance", "Fuel_0", "Obj", "CPU", "Nodes", "DetourVs"],
                   [[args.instance, _fmt(fuel0), _fmt(sol.objective),
                     _fmt(sol.wall_time), sol.nodes, detours]])
    print(f"Fuel_0={fuel0:.4f} Obj={sol.objective:.4f} Nodes={sol.nodes} "
          f"DetourVs={detours}")
    return EXIT_OK if sol.status == "optimal" else EXIT_LIMIT


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; ``netmodel.ValidationError`` for a
    key that appears twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise netmodel.ValidationError(
                f"routes file: key {key!r} appears twice in one object")
        doc[key] = value
    return doc


def _routes_from_file(inst, path) -> routing.RouteAssignment:
    """Routes JSON ``{"routes": {vehicle: [node, ...]}}``, checked against
    the instance: one route per mission, keyed by its id as ``str`` writes
    it (no padding, ``+`` or ``_``), each a simple path of integer
    nodes from the mission's origin to its destination along edges of the
    network.  Raises ``netmodel.ValidationError`` naming the first key or
    vehicle that breaks a rule."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, object_pairs_hook=_unique_keys)
    if not isinstance(doc, dict) or not isinstance(doc.get("routes"), dict):
        raise netmodel.ValidationError(
            'routes file must hold an object with a "routes" object')
    routes = {}
    for v, nodes in doc["routes"].items():
        try:
            vid = int(v)
        except ValueError:
            raise netmodel.ValidationError(
                f"routes file: vehicle id {v!r} is not an integer") from None
        if v != str(vid):
            raise netmodel.ValidationError(
                f"routes file: vehicle id {v!r} is not written {str(vid)!r}")
        if not isinstance(nodes, list) or not all(
                isinstance(n, int) and not isinstance(n, bool) for n in nodes):
            raise netmodel.ValidationError(
                f"vehicle {vid}: route must be a list of integer nodes")
        routes[vid] = tuple(nodes)
    missions = {m.id: m for m in inst.missions}
    for v in sorted(set(missions) ^ set(routes)):
        problem = ("has no route in the routes file" if v in missions
                   else "has a route but no mission in the instance")
        raise netmodel.ValidationError(f"vehicle {v} {problem}")
    net = inst.network
    for v, nodes in sorted(routes.items()):
        m = missions[v]
        if not nodes or nodes[0] != m.origin or nodes[-1] != m.dest:
            raise netmodel.ValidationError(
                f"vehicle {v}: route must run from node {m.origin} "
                f"to node {m.dest}")
        for hop in zip(nodes, nodes[1:]):
            if hop not in net.edges:
                raise netmodel.ValidationError(
                    f"vehicle {v}: route uses {hop}, not an edge of the "
                    f"network")
    try:
        return routing.RouteAssignment(routes, net.time_table(),
                                       net.fuel_table())
    except routing.NonPathSolution as exc:
        raise netmodel.ValidationError(str(exc)) from exc


def cmd_solve_sp(args) -> int:
    inst = netmodel.load_instance(args.instance)
    if args.routes:
        assignment = _routes_from_file(inst, args.routes)
    else:
        handle, sol = _solve_rdp(inst, args)
        if sol.status not in ("optimal", "feasible"):
            return EXIT_INFEASIBLE if sol.status == "infeasible" else EXIT_LIMIT
        assignment = routing.extract_route_assignment(handle, sol)
    params = SavingsParams.from_instance(inst)
    cut_log: list = []
    result = scheduling.solve_schedule(
        assignment, inst, args.cuts, rel_gap=args.gap,
        time_limit_s=args.time_limit, cut_log=cut_log)
    sol, expanded = result.solution, result.platoons
    total = scheduling.total_fuel(assignment, expanded,
                                  inst.network.fuel_table(), params)
    print(f"savings={sol.objective:.4f} total_fuel={total:.4f} "
          f"nodes={sol.nodes} status={sol.status}")

    if args.out_schedule:
        doc = {"departures": {str(v): expanded.departures[v]
                              for v in sorted(expanded.departures)},
               "platoons": [
                   {"edge": list(e), "leader": leader,
                    "followers": list(followers)}
                   for e in sorted(expanded.platoons)
                   for leader, followers in expanded.platoons[e] if followers],
               "total_fuel": total, "savings": sol.objective,
               "status": sol.status}
        with open(args.out_schedule, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.out_bounds:
        report = cuts.bound_improvement_report(
            result.handle.contracted, params, result.handle.bounds)
        bd0 = report["lp_bound_plain"]
        bd1 = report["lp_bound_disj"]
        bd2 = report["lp_bound_disj_star"]
        imp1 = (bd0 - bd1) / bd0 if bd0 else 0.0
        imp2 = (bd1 - bd2) / bd1 if bd1 else 0.0
        _write_csv(args.out_bounds,
                   ["Instance", "LPbd0", "LPbd1", "LPbd2", "TimeDisjCut",
                    "DisjCuts", "PlatCuts", "IMP1", "IMP2"],
                   [[args.instance, _fmt(bd0), _fmt(bd1), _fmt(bd2),
                     _fmt(report["time_disj_cut_s"]), report["n_disjunctive"],
                     report["n_star_rows"], _fmt(imp1), _fmt(imp2)]])
    if args.cut_log:
        # a cut's bound after is the next cut's bound before; after the
        # last cut it is the final root bound
        afters = [before for before, _dc in cut_log[1:]] + [sol.root_bound]
        _write_csv(args.cut_log,
                   ["round", "source", "violation", "nnz", "bound_before",
                    "bound_after"],
                   [[rnd, "disjunctive", _fmt(dc.violation), len(dc.cut.coeffs),
                     _fmt(before), _fmt(after)]
                    for rnd, ((before, dc), after)
                    in enumerate(zip(cut_log, afters), 1)])
    return EXIT_OK if sol.status == "optimal" else EXIT_LIMIT


def cmd_rshm(args) -> int:
    inst = netmodel.load_instance(args.instance)
    opts = rshm.RshmOptions(freq_threshold=args.freq_threshold,
                            per_solve_time_s=args.per_solve,
                            total_time_s=args.total,
                            iter_cap=args.iter_cap, sp_cuts=args.cuts,
                            rel_gap=args.gap)
    try:
        res = rshm.run(inst, opts)
    except rshm.SubproblemFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    fuel0 = res.fuel_baseline()
    zs = [t["z"] for t in res.trace]
    reldev = 0.0
    if zs:
        mean = sum(zs) / len(zs)
        std = math.sqrt(sum((z - mean) ** 2 for z in zs) / len(zs))
        reldev = std / mean if mean else 0.0
    print(f"fuel={res.z_hat:.4f} saving={res.saving_rate()*100:.3f}% "
          f"iters={res.iterations} termination={res.termination}")
    if args.out:
        doc = {"instance": args.instance,
               "fuel_cost": res.z_hat,
               "fuel_baseline": fuel0,
               "saving_rate": res.saving_rate(),
               "rel_dev": reldev,
               "iterations": res.iterations,
               "termination": res.termination,
               "routes": {str(v): list(res.routes.routes[v])
                          for v in res.routes.vehicles},
               "departures": {str(v): res.departures[v]
                              for v in sorted(res.departures)},
               "trace": res.trace}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.trace:
        _write_csv(args.trace,
                   ["iteration", "z", "presumed_rdp_objective", "runtime_s"],
                   [[t["iteration"], _fmt(t["z"]), _fmt(t["presumed"]),
                     _fmt(t["runtime_s"])] for t in res.trace])
    if res.termination == "time_limit":
        return EXIT_LIMIT
    return EXIT_OK


def cmd_export(args) -> int:
    inst = netmodel.load_instance(args.instance)
    if args.problem == "rdp":
        model = routing.build_rdp(inst).model
    else:
        assignment = routing.shortest_path_assignment(inst)
        contracted = scheduling.contract(assignment, assignment.edge_times,
                                         assignment.edge_costs)
        bounds = scheduling.time_bounds(contracted, inst.missions)
        model = scheduling.build_sp(contracted,
                                    SavingsParams.from_instance(inst),
                                    bounds).model
    export.write_model(model, args.format, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


_NUMBER = (int, float)
_RESULT_FIELDS = {"instance": str, "fuel_cost": _NUMBER,
                  "saving_rate": _NUMBER, "rel_dev": _NUMBER,
                  "iterations": int, "termination": str, "trace": list}


def _load_result(path) -> dict:
    """A result file of ``rshm --out``; ``netmodel.ParseError`` naming the
    file and the first field it lacks or holds in the wrong type."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise netmodel.ParseError(f"{path}: a result file holds a JSON "
                                  f"object, not a {type(doc).__name__}")
    for key, kind in _RESULT_FIELDS.items():
        if not isinstance(doc.get(key), kind):
            problem = "lacks" if key not in doc else "has a malformed"
            raise netmodel.ParseError(f"{path}: result file {problem} "
                                      f"field {key!r}")
    if not all(isinstance(t, dict) and isinstance(t.get("runtime_s"), _NUMBER)
               for t in doc["trace"]):
        raise netmodel.ParseError(
            f"{path}: result file has a trace entry without 'runtime_s'")
    return doc


def cmd_report(args) -> int:
    rows = []
    for path in args.results:
        doc = _load_result(path)
        rows.append([doc["instance"], _fmt(doc["fuel_cost"]),
                     _fmt(100.0 * doc["saving_rate"]),
                     _fmt(100.0 * doc["rel_dev"]), doc["iterations"],
                     doc["termination"],
                     _fmt(sum(t["runtime_s"] for t in doc["trace"]))])
    _write_csv(args.out, ["Instance", "FuelCost", "SavingRate", "RelDev",
                          "Iters", "Termination", "CPU"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _limit(text: str) -> float:
    """A finite, non-negative number: a gap or a time budget."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative, got {text}")
    return value


def _at_least(low: int):
    """Argument type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="platoonopt",
                                description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common_solver(sp):
        sp.add_argument("--gap", type=_limit, default=1e-4)
        sp.add_argument("--time-limit", type=_limit, default=600.0)

    g = sub.add_parser("gen", help="generate an instance or network file")
    g.add_argument("--model", choices=["distributed", "two-cluster",
                                       "synthetic-net"], required=True)
    g.add_argument("--n", type=_at_least(0), default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--net", help="instance/network JSON supplying the graph")
    g.add_argument("--rows", type=_at_least(1), default=7)
    g.add_argument("--cols", type=_at_least(1), default=7)
    g.add_argument("--spacing", type=float, default=40.0)
    g.add_argument("--jitter", type=float, default=0.25)
    g.add_argument("--urban-radius", type=float, default=50.0)
    g.add_argument("--urban-share", type=float, default=0.75)
    g.add_argument("--flexibility", type=float, default=1.0)
    g.add_argument("--sigma-l", type=float, default=0.02)
    g.add_argument("--sigma-f", type=float, default=0.1)
    g.add_argument("--max-platoon", dest="max_platoon", type=int, default=10)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("solve-rdp", help="solve the routing problem")
    r.add_argument("--instance", required=True)
    r.add_argument("--out-report")
    r.add_argument("--out-routes")
    add_common_solver(r)
    r.set_defaults(func=cmd_solve_rdp)

    s = sub.add_parser("solve-sp", help="solve the scheduling problem")
    s.add_argument("--instance", required=True)
    s.add_argument("--routes", help="routes JSON (default: solve routing first)")
    s.add_argument("--cuts", choices=list(scheduling.CUT_MODES),
                   default="none")
    s.add_argument("--out-schedule")
    s.add_argument("--out-bounds")
    s.add_argument("--cut-log")
    add_common_solver(s)
    s.set_defaults(func=cmd_solve_sp)

    h = sub.add_parser("rshm", help="run the route-then-schedule heuristic")
    h.add_argument("--instance", required=True)
    h.add_argument("--freq-threshold", type=_at_least(1), default=3)
    h.add_argument("--per-solve", type=_limit, default=600.0)
    h.add_argument("--total", type=_limit, default=3600.0)
    h.add_argument("--iter-cap", type=_at_least(0), default=None)
    h.add_argument("--cuts", choices=list(scheduling.CUT_MODES),
                   default=scheduling.DEFAULT_CUT_MODE)
    h.add_argument("--gap", type=_limit, default=1e-4)
    h.add_argument("--out")
    h.add_argument("--trace")
    h.set_defaults(func=cmd_rshm)

    e = sub.add_parser("export-mps", help="write a model file")
    e.add_argument("--instance", required=True)
    e.add_argument("--problem", choices=["rdp", "sp"], default="rdp")
    e.add_argument("--format", choices=["MPS", "LP"], default="MPS")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export)

    t = sub.add_parser("report", help="aggregate heuristic result files")
    t.add_argument("--out", required=True)
    t.add_argument("results", nargs="+")
    t.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (netmodel.ParseError, netmodel.ValidationError,
            netmodel.NoHubPair, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (netmodel.Unreachable, routing.InfeasibleMission,
            scheduling.InfeasibleRoute) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
