"""Scheduling of a whole route assignment, contracted and bounded in full
on every call: the reference of ``scheduling.solve_schedule``, which works
on runs of original edges and contracts only the routes of new components
of four or more vehicles (or of three, where the closed form hands one
back).

``solve_schedule`` contracts all routes, bounds every vehicle, tests every
pair, schedules each new component of two or three vehicles with
``scheduling.closed_form`` on the contracted routes, builds and solves one
model for each of the others on the contracted routes restricted to its
vehicles, lists the platoons by contracted key and takes every departure
from the whole assignment."""

from __future__ import annotations

from dataclasses import dataclass, replace

from platoonopt import mip, scheduling as sched


@dataclass
class ReferenceSchedule:
    handles: tuple
    solution: mip.MipSolution
    platoons: sched.PlatoonConfiguration
    contracted: sched.ContractedRoutes
    bounds: sched.TimeBounds
    milp: int
    closed: int
    reused: int


def restricted(contracted, keep: set) -> sched.ContractedRoutes:
    """The routes of the vehicles in ``keep``, each edge carrying only
    them; edges keep their keys in ``contracted``."""
    cedges: dict = {}

    def edge(s):
        if s.key not in cedges:
            inside = s.vehicles & keep
            cedges[s.key] = s if inside == s.vehicles else replace(
                s, vehicles=inside)
        return cedges[s.key]

    return sched.ContractedRoutes({v: [edge(s) for s in segs]
                                   for v, segs in contracted.routes.items()
                                   if v in keep})


def solve_schedule(routes, inst, cuts: str, *,
                   rel_gap: float = mip.DEFAULT_REL_GAP,
                   solved: dict | None = None) -> ReferenceSchedule:
    cut_options, disjunctive = sched.cut_mode(cuts)
    contracted = sched.contract(routes, routes.edge_times, routes.edge_costs)
    bounds = sched.time_bounds(contracted, inst.missions)
    big_m, pruned = sched.platoonable_and_bigM(contracted, bounds)
    reused, new, n_reused = [], [], 0
    for vs in sched.components(contracted, big_m):
        key = sched.component_key(contracted, vs)
        known = None if solved is None else solved.get(key)
        if known is None:
            new.append((key, vs))
        else:
            reused.extend(known)
            n_reused += 1
    meets: dict = {}
    for _key, vs in new:
        if len(vs) < 4:
            meets.update(dict.fromkeys(vs, {}))
    for u, v, key in big_m:
        if v in meets:
            meets[v].setdefault((v, u), []).append(key)
    fresh, closed_savings, milp = [], 0.0, []
    for key, vs in new:
        got = None if len(vs) > 3 else sched.closed_form(
            contracted, bounds, inst, meets[vs[0]])
        if got is None:
            milp.append((key, vs))
            continue
        found = [(contracted.cedges[k].original, p) for k, p in got[1]]
        closed_savings += got[0]
        fresh += found
        if solved is not None:
            solved[key] = tuple(found)

    handles, sols = [], []
    for key, vs in milp:
        keep = set(vs)
        pairs = ({p: m for p, m in big_m.items() if p[0] in keep},
                 [p for p in pruned if p[0] in keep and p[1] in keep])
        handle = sched.build_sp(restricted(contracted, keep), inst, bounds,
                                cut_options, pairs)
        hook = None
        if disjunctive:
            from platoonopt import cuts as _cuts
            hook = _cuts.make_disjunctive_hook(handle)
        sol = mip.solve_mip(handle.model, rel_gap=rel_gap, root_cut_hook=hook,
                            initial_solution=sched.solo_schedule(handle))
        config = sched.extract_platoons(handle, sol)
        found = [(handle.contracted.cedges[k].original, p)
                 for k, plist in config.platoons.items()
                 for p in plist if p[1]]
        if solved is not None and sol.status == "optimal":
            solved[key] = tuple(found)
        fresh += found
        handles.append(handle)
        sols.append(sol)
    platooned: dict = {}
    for run, p in reused + fresh:
        platooned.setdefault(run, []).append(p)
    by_key: dict = {}
    for key in sorted(contracted.cedges):
        s = contracted.cedges[key]
        plist = platooned.get(s.original, [])
        members = {v for leader, followers in plist
                   for v in (leader, *followers)}
        by_key[key] = sorted(plist + [(v, ()) for v in s.vehicles
                                      if v not in members])
    config = sched.PlatoonConfiguration(
        by_key, sched.earliest_departures(contracted, by_key, bounds))
    scheduled = restricted(contracted, {v for _key, vs in new for v in vs})
    return ReferenceSchedule(tuple(handles),
                             sched._summed(sols, closed_savings),
                             sched.expand_platoons(config, contracted),
                             scheduled, bounds, len(milp),
                             len(new) - len(milp), n_reused)
