"""Scheduling of a whole route assignment, contracted and bounded in full
on every call: the reference of ``scheduling.solve_schedule``.

``solve_schedule`` contracts all routes by pairwise merging
(``reference_models.merged_runs``), bounds every vehicle, tests every
pair, schedules each new component of two or three vehicles with
``scheduling.closed_form``, builds and solves one model for each of the
others on the runs of its vehicles alone, lists the platoons by run key
and takes every departure from the whole assignment."""

from __future__ import annotations

from dataclasses import dataclass

import reference_models
from platoonopt import mip, scheduling as sched


@dataclass
class ReferenceSchedule:
    handles: tuple
    solution: mip.MipSolution
    platoons: sched.PlatoonConfiguration
    contracted: sched.RunView
    bounds: sched.TimeBounds
    milp: int
    closed: int
    reused: int


def solve_schedule(routes, inst, cuts: str, *,
                   rel_gap: float = mip.DEFAULT_REL_GAP,
                   solved: dict | None = None) -> ReferenceSchedule:
    cut_options, disjunctive = sched.cut_mode(cuts)
    runs = reference_models.merged_runs(routes)

    def view(keep):
        return sched.RunView({v: runs[v] for v in sorted(keep)},
                             routes.edge_times, routes.edge_costs)

    contracted = view(runs)
    bounds = sched.time_bounds(contracted, inst.missions)
    big_m, _pruned = sched.platoonable_and_bigM(contracted, bounds)
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
        closed_savings += got[0]
        fresh += got[1]
        if solved is not None:
            solved[key] = tuple(got[1])

    handles, sols = [], []
    for key, vs in milp:
        handle = sched.build_sp(view(vs), inst, bounds, cut_options)
        hook = None
        if disjunctive:
            from platoonopt import cuts as _cuts
            hook = _cuts.make_disjunctive_hook(handle)
        sol = mip.solve_mip(handle.model, rel_gap=rel_gap, root_cut_hook=hook,
                            initial_solution=sched.solo_schedule(handle))
        config = sched.extract_platoons(handle, sol)
        found = [(k, p) for k, plist in config.platoons.items()
                 for p in plist if p[1]]
        if solved is not None and sol.status == "optimal":
            solved[key] = tuple(found)
        fresh += found
        handles.append(handle)
        sols.append(sol)
    platooned: dict = {}
    for key, p in reused + fresh:
        platooned.setdefault(key, []).append(p)
    by_key: dict = {}
    for key in sorted(contracted.cedges):
        plist = platooned.get(key, [])
        members = {v for leader, followers in plist
                   for v in (leader, *followers)}
        by_key[key] = sorted(plist + [(v, ()) for v in contracted.cedges[key]
                                      if v not in members])
    config = sched.PlatoonConfiguration(
        by_key, sched.earliest_departures(contracted, by_key, bounds))
    scheduled = view({v for _key, vs in new for v in vs})
    return ReferenceSchedule(tuple(handles),
                             sched._summed(sols, closed_savings),
                             sched.expand_platoons(config, contracted),
                             scheduled, bounds, len(milp),
                             len(new) - len(milp), n_reused)
