"""Independent answer checks.

The checks recompute what they verify from the instance itself (network
edges, mission windows, savings rates) rather than through the program's
own route and platoon classes, so a defect in those classes cannot hide.
Each check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

from dataclasses import dataclass

TIME_TOL = 1e-9      # hours; same slack the program allows on windows
FUEL_RTOL = 1e-9
BOUND_RTOL = 1e-6


@dataclass
class Plan:
    """A realized answer: routes, departures and platoons on original edges."""
    routes: dict[int, tuple]                 # vehicle -> node sequence
    departures: dict[int, float]
    platoons: dict[tuple, list[tuple]]       # edge -> [(leader, followers)]
    fuel: float                              # the program's total fuel


def plan_from(routes, config, fuel) -> Plan:
    """Plan from a program ``RouteAssignment`` and ``PlatoonConfiguration``."""
    return Plan({v: tuple(n) for v, n in routes.routes.items()},
                dict(config.departures),
                {e: [(leader, tuple(f)) for leader, f in plist]
                 for e, plist in config.platoons.items()},
                fuel)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_plan(inst, plan: Plan, entry_tol: float) -> list[str]:
    """Routes are origin-destination paths of network edges that fit their
    windows; departures lie in their windows; platoon members use the edge
    and enter it together; no platoon exceeds the size cap; the fuel the
    program reports matches the fuel recomputed from routes and platoons."""
    problems: list[str] = []
    edges = inst.network.edges
    missions = {m.id: m for m in inst.missions}
    if set(plan.routes) != set(missions):
        return [f"routes cover vehicles {sorted(plan.routes)}, "
                f"missions are {sorted(missions)}"]
    entry: dict[int, dict] = {}          # vehicle -> {edge: entry time}
    fuel = 0.0
    for v, nodes in sorted(plan.routes.items()):
        m = missions[v]
        if nodes[0] != m.origin or nodes[-1] != m.dest:
            problems.append(f"vehicle {v}: route runs {nodes[0]}->{nodes[-1]}, "
                            f"mission is {m.origin}->{m.dest}")
        if len(set(nodes)) != len(nodes):
            problems.append(f"vehicle {v}: route repeats a node")
        dep = plan.departures.get(v)
        if dep is None:
            problems.append(f"vehicle {v}: no departure time")
            continue
        t = dep
        entry[v] = {}
        for e in zip(nodes, nodes[1:]):
            if e not in edges:
                problems.append(f"vehicle {v}: {e} is not a network edge")
                break
            entry[v][e] = t
            t += edges[e].time
            fuel += edges[e].fuel
        if dep < m.t_earliest - TIME_TOL:
            problems.append(f"vehicle {v}: departs {dep} before {m.t_earliest}")
        if t > m.t_latest + TIME_TOL:
            problems.append(f"vehicle {v}: arrives {t} after {m.t_latest}")
    if problems:
        return problems

    for e, plist in sorted(plan.platoons.items()):
        seen: set = set()
        for leader, followers in plist:
            members = (leader,) + tuple(followers)
            if seen.intersection(members):
                problems.append(f"edge {e}: a vehicle is in two platoons")
            seen.update(members)
            if len(members) > inst.max_platoon:
                problems.append(f"edge {e}: platoon of {len(members)} exceeds "
                                f"{inst.max_platoon}")
            missing = [u for u in members if e not in entry.get(u, {})]
            if missing:
                problems.append(f"edge {e}: platoon members {missing} "
                                f"do not use the edge")
                continue
            t_lead = entry[leader][e]
            for u in followers:
                if abs(entry[u][e] - t_lead) > entry_tol:
                    problems.append(f"edge {e}: {u} enters at {entry[u][e]}, "
                                    f"leader {leader} at {t_lead}")
            if followers:
                rate = inst.sigma_l + inst.sigma_f * len(followers)
                fuel -= rate * edges[e].fuel
    if not _close(fuel, plan.fuel, FUEL_RTOL):
        problems.append(f"fuel recomputed {fuel!r}, reported {plan.fuel!r}")
    return problems


def check_rshm(inst, plan: Plan, z_trace: list[float],
               entry_tol: float) -> list[str]:
    """Plan checks plus: the best ``z`` of the trace is the reported fuel."""
    problems = check_plan(inst, plan, entry_tol)
    if not z_trace:
        problems.append("empty z trace")
    elif min(z_trace) != plan.fuel:
        problems.append(f"min(z trace) {min(z_trace)!r} != z_hat {plan.fuel!r}")
    return problems


def check_schedule(mip, handle, sol, report) -> list[str]:
    """The solution satisfies the built model, its objective is the one
    reported, and the root bounds are ordered LPbd0 >= LPbd1 >= LPbd2 >=
    optimum (a maximization)."""
    problems: list[str] = []
    try:
        objective = mip.check_solution(handle.model, sol.x)
    except mip.ModelError as exc:
        return [f"solution fails the model: {exc}"]
    if not _close(objective, sol.objective, BOUND_RTOL):
        problems.append(f"objective at x {objective!r}, reported {sol.objective!r}")
    chain = [("LPbd0", report["lp_bound_plain"]),
             ("LPbd1", report["lp_bound_disj"]),
             ("LPbd2", report["lp_bound_disj_star"]),
             ("optimum", sol.objective)]
    for (na, a), (nb, b) in zip(chain, chain[1:]):
        if a < b - BOUND_RTOL * max(1.0, abs(b)):
            problems.append(f"{na} {a!r} < {nb} {b!r}")
    return problems
