"""Shortest paths searched anew on every call: the reference of the
distance rows that ``RoadNetwork.distances`` computes once per network, and
of ``netmodel.shortest_path`` and the window check of
``ProblemInstance.validate``, which read those rows.

``dijkstra`` is a heap search over the network's adjacency lists that can
stop early at a ``target`` or a ``limit``.  ``shortest_path`` runs two
complete searches per call and walks the lexicographically smallest
shortest path.  ``check_windows`` reads each mission's fastest time off a
search that stops at its destination."""

from __future__ import annotations

import heapq
import math

import numpy as np

from platoonopt.netmodel import REL_TOL, Path, Unreachable, ValidationError

WEIGHT = {
    "fuel": lambda e: e.fuel,
    "time": lambda e: e.time,
    "length": lambda e: e.length,
}


def dijkstra(net, source, weight: str, reverse=False, target=None,
             limit=math.inf) -> dict:
    """Distance from ``source`` (to it, when ``reverse``) of every node
    reached.  The search stops once the distance of ``target`` is final,
    or once every node within ``limit`` is final; ``limit`` may be a
    function of the target's distance.  A node not final then may be
    missing, or have a distance above the final one."""
    wf = WEIGHT[weight]
    adj = net.in_adj if reverse else net.out_adj
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    stop = math.inf if callable(limit) else limit
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == target:
            if not callable(limit):
                break
            stop = limit(d)
        if d > stop:
            break
        done.add(u)
        for e in adj[u]:
            v = e.tail if reverse else e.head
            nd = d + wf(e)
            if v not in done and (v not in dist or nd < dist[v]):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def row(net, source, weight: str, reverse=False) -> np.ndarray:
    """A complete ``dijkstra`` as an array over the sorted node ids, inf
    where a node is not reached."""
    dist = dijkstra(net, source, weight, reverse)
    return np.array([dist.get(n, math.inf) for n in sorted(net.nodes)])


def shortest_path(net, o, d, weight: str = "fuel") -> Path:
    """Minimum-weight simple path; among ties, the lexicographically smallest
    node-id sequence."""
    if o not in net.nodes or d not in net.nodes:
        raise Unreachable(o, d)
    if o == d:
        return Path((o,), (), 0.0, 0.0, 0.0)
    wf = WEIGHT[weight]
    dist_o = dijkstra(net, o, weight)
    if d not in dist_o:
        raise Unreachable(o, d)
    dist_d = dijkstra(net, d, weight, reverse=True)
    total = dist_o[d]
    tol = REL_TOL * max(1.0, abs(total))
    nodes = [o]
    u = o
    while u != d:
        best = None
        for e in net.out_adj[u]:
            k = e.head
            if k not in dist_d:
                continue
            if abs(dist_o[u] + wf(e) + dist_d[k] - total) <= tol:
                if best is None or k < best:
                    best = k
        if best is None:
            raise Unreachable(o, d)
        nodes.append(best)
        u = best
    edges = tuple((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
    es = [net.edge(*k) for k in edges]
    return Path(tuple(nodes), edges,
                sum(e.length for e in es), sum(e.fuel for e in es),
                sum(e.time for e in es))


def check_windows(inst) -> None:
    """The reachability and window checks of ``ProblemInstance.validate``
    for missions that pass its other checks."""
    for m in inst.missions:
        fastest = dijkstra(inst.network, m.origin, "time",
                           target=m.dest).get(m.dest)
        if fastest is None:
            raise Unreachable(m.origin, m.dest)
        if m.t_latest < m.t_earliest + fastest - 1e-9:
            raise ValidationError(
                f"vehicle {m.id}: window shorter than shortest travel time")
