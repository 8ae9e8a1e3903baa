"""Road network and problem instance layer.

Holds the directed highway graph (per-edge fuel cost and travel time),
vehicle missions with time windows, shortest paths with deterministic
tie-breaking, the detour-bounded candidate edge set, and the two synthetic
instance generators (distributed and two-cluster).

What depends only on the network is computed once per ``RoadNetwork`` and
kept with it: the fuel and time tables, the edge arrays, each complete
shortest-distance row (per weight, direction and source), the distributed
generator's default cities and the two-cluster generator's hub pairs and
cluster radius.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

REL_TOL = 1e-9


class NetworkError(Exception):
    pass


class Unreachable(NetworkError):
    def __init__(self, origin, dest):
        super().__init__(f"no directed path from {origin} to {dest}")
        self.origin = origin
        self.dest = dest


class ValidationError(Exception):
    pass


class ParseError(Exception):
    pass


class NoHubPair(Exception):
    """Two-cluster generator: percentile condition unsatisfiable."""


class NoNodeInRadius(Exception):
    """Generator could not place a vehicle after bounded retries."""


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    length: float   # km
    time: float     # hours
    fuel: float     # fuel units

    @property
    def key(self):
        return (self.tail, self.head)


class EdgeArrays:
    """A network's edges as arrays, in the order of ``RoadNetwork.edges``:
    ``keys``, ``index`` (key -> position), the node numbers ``tail`` and
    ``head`` (positions in ``nodes``, the sorted node ids, as in
    ``node_index``), ``length``, ``time`` and ``rank`` (the position of
    each key among the sorted keys)."""

    def __init__(self, net: "RoadNetwork"):
        self.keys = list(net.edges)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.nodes = np.array(sorted(net.nodes))
        self.node_index = {n: i for i, n in enumerate(self.nodes.tolist())}
        edges = net.edges.values()
        self.tail = np.array([self.node_index[e.tail] for e in edges])
        self.head = np.array([self.node_index[e.head] for e in edges])
        self.length = np.array([e.length for e in edges], dtype=float)
        self.time = np.array([e.time for e in edges], dtype=float)
        self.rank = np.empty(len(self.keys), dtype=np.int64)
        self.rank[sorted(range(len(self.keys)), key=self.keys.__getitem__)] \
            = np.arange(len(self.keys))


class _Rows:
    """The complete distance rows of one (weight, direction), one per
    source, in one 2-D array that doubles when full; ``slot`` maps a
    source's node number to its row, -1 before it is computed."""

    def __init__(self, n: int):
        self.table = np.empty((0, n))
        self.slot = np.full(n, -1, dtype=np.intp)
        self.count = 0

    def add(self, source: int, row: np.ndarray) -> None:
        if self.count == len(self.table):
            grown = np.empty((max(8, 2 * self.count), self.table.shape[1]))
            grown[:self.count] = self.table
            self.table = grown
        self.table[self.count] = row
        self.slot[source] = self.count
        self.count += 1


class RoadNetwork:
    """Directed graph; immutable once built.  What depends on the network
    alone is built at the first call and kept: ``fuel_table``,
    ``time_table``, ``edge_arrays``, the rows of ``distances``, and the
    generators' ``default_cities`` and two-cluster hubs."""

    def __init__(self, nodes: list[Node], edges: list[Edge]):
        self.nodes: dict[int, Node] = {n.id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise ValidationError("duplicate node ids")
        for n in nodes:
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise ValidationError(f"node {n.id} needs finite coordinates")
        self.edges: dict[tuple, Edge] = {}
        self.out_adj: dict[int, list[Edge]] = {n.id: [] for n in nodes}
        self.in_adj: dict[int, list[Edge]] = {n.id: [] for n in nodes}
        for e in edges:
            if e.tail not in self.nodes or e.head not in self.nodes:
                raise ValidationError(f"edge {e.key} endpoint missing from node set")
            if e.tail == e.head:
                raise ValidationError(f"self-loop at node {e.tail}")
            if not all(map(math.isfinite, (e.length, e.time, e.fuel))):
                raise ValidationError(
                    f"edge {e.key} needs finite length, time and fuel")
            if e.length <= 0 or e.fuel <= 0 or e.time <= 0:
                raise ValidationError(
                    f"edge {e.key} needs positive length, fuel and time")
            if e.key in self.edges:
                raise ValidationError(f"duplicate edge {e.key}")
            self.edges[e.key] = e
            self.out_adj[e.tail].append(e)
            self.in_adj[e.head].append(e)
        for adj in self.out_adj.values():
            adj.sort(key=lambda e: e.head)
        for adj in self.in_adj.values():
            adj.sort(key=lambda e: e.tail)
        self._fuel = self._time = self._arrays = None
        self._rows: dict[tuple, _Rows] = {}   # (weight, reverse) -> rows
        self._memo: dict = {}                  # generators' network data

    def edge(self, i, j) -> Edge:
        return self.edges[(i, j)]

    def fuel_table(self) -> MappingProxyType:
        """Fuel cost per edge key, built at the first call and shared
        read-only by every caller."""
        if self._fuel is None:
            self._fuel = MappingProxyType(
                {k: e.fuel for k, e in self.edges.items()})
        return self._fuel

    def time_table(self) -> MappingProxyType:
        """Travel time per edge key, built once like ``fuel_table``."""
        if self._time is None:
            self._time = MappingProxyType(
                {k: e.time for k, e in self.edges.items()})
        return self._time

    def edge_arrays(self) -> EdgeArrays:
        """The edges as arrays, built once like ``fuel_table``."""
        if self._arrays is None:
            self._arrays = EdgeArrays(self)
        return self._arrays

    def distances(self, weight: str, source, reverse: bool = False
                  ) -> np.ndarray:
        """The ``weight`` distance from ``source`` (to it, when ``reverse``)
        of every node, over the node numbers of ``edge_arrays()``, inf where
        the node is not reached.  Each row is computed by one complete
        search at the first call and returned read-only."""
        arrays = self.edge_arrays()
        i = arrays.node_index[source]
        rows = self._rows.get((weight, reverse))
        if rows is None or rows.slot[i] < 0:
            row = _by_node(arrays, _dijkstra(self, source, weight, reverse))
            if rows is None:
                rows = self._rows[(weight, reverse)] = _Rows(len(row))
            rows.add(i, row)
        row = rows.table[rows.slot[i]]
        row.flags.writeable = False
        return row

    def __eq__(self, other):
        return (isinstance(other, RoadNetwork)
                and self.nodes == other.nodes and self.edges == other.edges)


@dataclass(frozen=True)
class VehicleMission:
    id: int
    origin: int
    dest: int
    t_earliest: float   # T^O, hours
    t_latest: float     # T^D, hours


@dataclass
class ProblemInstance:
    network: RoadNetwork
    missions: list[VehicleMission]
    sigma_l: float = 0.02
    sigma_f: float = 0.1
    max_platoon: int = 10
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        # The comparisons below are all false on NaN, so NaN fails them too.
        if not (0 < self.sigma_l < self.sigma_f < 1):
            raise ValidationError("sigma ordering: need 0 < sigma_l < sigma_f < 1")
        if self.max_platoon < 2:
            raise ValidationError("max platoon size must be >= 2")
        ids = sorted(m.id for m in self.missions)
        if ids != list(range(1, len(ids) + 1)):
            raise ValidationError("vehicle ids must be 1..n with no gaps")
        for m in self.missions:
            if not (math.isfinite(m.t_earliest) and math.isfinite(m.t_latest)):
                raise ValidationError(f"vehicle {m.id}: time window must be finite")
            for end, node in (("origin", m.origin), ("destination", m.dest)):
                if node not in self.network.nodes:
                    raise ValidationError(
                        f"vehicle {m.id}: {end} {node} is not a network node")
            if m.origin == m.dest:
                raise ValidationError(f"vehicle {m.id}: origin equals destination")
            net = self.network
            fastest = float(net.distances("time", m.origin)[
                net.edge_arrays().node_index[m.dest]])
            if fastest == math.inf:
                raise Unreachable(m.origin, m.dest)
            if m.t_latest < m.t_earliest + fastest - 1e-9:
                raise ValidationError(
                    f"vehicle {m.id}: window shorter than shortest travel time")

    def __eq__(self, other):
        return (isinstance(other, ProblemInstance)
                and self.network == other.network
                and self.missions == other.missions
                and self.sigma_l == other.sigma_l
                and self.sigma_f == other.sigma_f
                and self.max_platoon == other.max_platoon
                and self.meta == other.meta)


@dataclass(frozen=True)
class Path:
    nodes: tuple
    edges: tuple         # edge keys
    length: float
    fuel: float
    time: float


_WEIGHT = {
    "fuel": lambda e: e.fuel,
    "time": lambda e: e.time,
    "length": lambda e: e.length,
}


def _dijkstra(net: RoadNetwork, source, weight: str, reverse=False,
              target=None, limit=math.inf) -> dict:
    """Distance from ``source`` (to it, when ``reverse``) of every node
    reached.  The search stops once every node within ``limit`` is final;
    with a ``target``, ``limit`` is a function of the target's distance.
    A node not final then may be missing, or have a distance above the
    final one."""
    wf = _WEIGHT[weight]
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


def shortest_path(net: RoadNetwork, o, d, weight: str = "fuel") -> Path:
    """Minimum-weight simple path; among ties, the lexicographically smallest
    node-id sequence."""
    if o not in net.nodes or d not in net.nodes:
        raise Unreachable(o, d)
    if o == d:
        return Path((o,), (), 0.0, 0.0, 0.0)
    wf = _WEIGHT[weight]
    at = net.edge_arrays().node_index
    dist_o = net.distances(weight, o)
    total = float(dist_o[at[d]])
    if total == math.inf:
        raise Unreachable(o, d)
    dist_d = net.distances(weight, d, reverse=True)
    tol = REL_TOL * max(1.0, abs(total))
    nodes = [o]
    u = o
    while u != d:
        best = None
        du = float(dist_o[at[u]])
        for e in net.out_adj[u]:
            k = e.head
            # a head that cannot reach d has distance inf and fails the test
            if abs(du + wf(e) + float(dist_d[at[k]]) - total) <= tol:
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


def candidate_edge_set(net: RoadNetwork, m: VehicleMission,
                       sigma_f: float) -> set:
    """Edges that can appear on a route whose length stays within the
    1/(1 - sigma_f) detour bound of the shortest origin-destination length."""
    def reach(shortest):
        bound = shortest / (1.0 - sigma_f)
        return bound + REL_TOL * max(1.0, bound)

    # Only nodes within reach can be on a candidate edge, so both searches
    # stop there.
    dist_o = _dijkstra(net, m.origin, "length", target=m.dest, limit=reach)
    if m.dest not in dist_o:
        raise Unreachable(m.origin, m.dest)
    dist_d = _dijkstra(net, m.dest, "length", reverse=True,
                       limit=reach(dist_o[m.dest]))
    bound = dist_o[m.dest] / (1.0 - sigma_f)
    tol = REL_TOL * max(1.0, bound)
    arrays = net.edge_arrays()
    # a node out of reach fails the test, at distance inf or above it
    ok = (_by_node(arrays, dist_o)[arrays.tail] + arrays.length
          + _by_node(arrays, dist_d)[arrays.head]) <= bound + tol
    keys = arrays.keys
    return {keys[k] for k in np.flatnonzero(ok).tolist()}


def _by_node(arrays: EdgeArrays, dist: dict) -> np.ndarray:
    """``dist`` as an array over the node numbers, inf where it has none."""
    out = np.full(len(arrays.nodes), np.inf)
    out[[arrays.node_index[n] for n in dist]] = list(dist.values())
    return out


# ---------------------------------------------------------------------------
# Synthetic networks and instance generators
# ---------------------------------------------------------------------------

def make_grid_network(rows: int, cols: int, spacing_km: float = 40.0,
                      diagonals: bool = True, speed_kmh: float = 80.0,
                      fuel_per_km: float = 1.0, jitter: float = 0.0,
                      seed: int = 0) -> RoadNetwork:
    """Planar grid with optional cell diagonals; edge cost and time are
    proportional to Euclidean length (fuel = rate*len, time = len/speed).
    ``ValidationError`` for a spacing that is not finite and positive, or a
    jitter that is not finite and non-negative."""
    if not (math.isfinite(spacing_km) and spacing_km > 0.0):
        raise ValidationError(f"grid spacing must be finite and > 0, "
                              f"got {spacing_km}")
    if not (math.isfinite(jitter) and jitter >= 0.0):
        raise ValidationError(f"jitter must be finite and >= 0, got {jitter}")
    rng = np.random.default_rng([101, seed])
    nodes = []
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c + 1
            jx = jy = 0.0
            if jitter > 0:
                jx, jy = rng.uniform(-0.5, 0.5, 2) * jitter * spacing_km
            nodes.append(Node(nid, c * spacing_km + jx, r * spacing_km + jy))
    pos = {n.id: (n.x, n.y) for n in nodes}

    def both(i, j, acc):
        d = math.dist(pos[i], pos[j])
        acc.append(Edge(i, j, d, d / speed_kmh, fuel_per_km * d))
        acc.append(Edge(j, i, d, d / speed_kmh, fuel_per_km * d))

    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c + 1
            if c + 1 < cols:
                both(nid, nid + 1, edges)
            if r + 1 < rows:
                both(nid, nid + cols, edges)
            if diagonals and c + 1 < cols and r + 1 < rows:
                both(nid, nid + cols + 1, edges)
    return RoadNetwork(nodes, edges)


def default_cities(net: RoadNetwork, k: int = 14) -> list[int]:
    """Deterministic farthest-point sample of node ids to act as cities,
    computed once per network and ``k``."""
    key = ("cities", k)
    if key not in net._memo:
        ids = sorted(net.nodes)
        k = min(k, len(ids))
        chosen = [ids[0]]
        while len(chosen) < k:
            best, best_d = None, -1.0
            for nid in ids:
                if nid in chosen:
                    continue
                d = min(math.dist((net.nodes[nid].x, net.nodes[nid].y),
                                  (net.nodes[c].x, net.nodes[c].y))
                        for c in chosen)
                if d > best_d:
                    best, best_d = nid, d
            chosen.append(best)
        net._memo[key] = tuple(sorted(chosen))
    return list(net._memo[key])


def _euclid(net, a, b):
    na, nb = net.nodes[a], net.nodes[b]
    return math.dist((na.x, na.y), (nb.x, nb.y))


def _nodes_within(net, center, radius):
    out = [nid for nid in sorted(net.nodes) if _euclid(net, center, nid) <= radius]
    return out or [center]


def _draw_od(rng, net, o_pool, d_pool, retries=60):
    for _ in range(retries):
        o = int(o_pool[rng.integers(len(o_pool))])
        d = int(d_pool[rng.integers(len(d_pool))])
        if o == d:
            continue
        try:
            sp = shortest_path(net, o, d, weight="time")
        except Unreachable:
            continue
        return o, d, sp.time
    raise NoNodeInRadius("could not draw a connected origin/destination pair")


def _finish_missions(rng, net, od_list, flexibility):
    missions = []
    for vid, (o, d, sp_time) in enumerate(od_list, start=1):
        t0 = float(rng.uniform(0.0, 24.0))
        missions.append(VehicleMission(vid, o, d, t0,
                                       t0 + (1.0 + flexibility) * sp_time))
    return missions


def generate_distributed(net: RoadNetwork, n_vehicles: int, seed: int,
                         cities: list[int] | None = None,
                         urban_radius_km: float = 50.0,
                         urban_share: float = 0.75,
                         flexibility: float = 1.0,
                         sigma_l: float = 0.02, sigma_f: float = 0.1,
                         max_platoon: int = 10) -> ProblemInstance:
    """Mostly-urban trips: origin near one city, destination near another;
    the rest drawn uniformly.  The arrival deadline leaves slack equal to
    ``flexibility`` times the shortest travel time.  ``ValidationError`` for
    an urban share outside [0, 1] or an urban radius that is not finite and
    non-negative."""
    if not (math.isfinite(urban_share) and 0.0 <= urban_share <= 1.0):
        raise ValidationError(f"urban share must be finite and in [0, 1], "
                              f"got {urban_share}")
    if not (math.isfinite(urban_radius_km) and urban_radius_km >= 0.0):
        raise ValidationError(f"urban radius must be finite and >= 0, "
                              f"got {urban_radius_km}")
    rng = np.random.default_rng([11, seed])
    if cities is None:
        cities = default_cities(net)
    if len(cities) < 2:
        raise ValidationError("need at least two city nodes")
    pools = {c: _nodes_within(net, c, urban_radius_km) for c in cities}
    fallbacks = sum(1 for c in cities if pools[c] == [c])
    all_nodes = sorted(net.nodes)
    n_urban = int(round(urban_share * n_vehicles))
    od = []
    for i in range(n_vehicles):
        if i < n_urban:
            c1, c2 = rng.choice(len(cities), size=2, replace=False)
            od.append(_draw_od(rng, net, pools[cities[int(c1)]],
                               pools[cities[int(c2)]]))
        else:
            od.append(_draw_od(rng, net, all_nodes, all_nodes))
    inst = ProblemInstance(net, _finish_missions(rng, net, od, flexibility),
                           sigma_l, sigma_f, max_platoon,
                           meta={"model": "distributed", "seed": seed,
                                 "flexibility": flexibility,
                                 "radius_fallbacks": fallbacks})
    inst.validate()
    return inst


def _hub_pairs(net: RoadNetwork) -> tuple[np.ndarray, float]:
    """The two-cluster generator's hub pairs, as rows of an array: the node
    pairs at least the 70th percentile of pairwise distances apart; and its
    cluster radius, the 20th percentile.  Computed once per network."""
    if "hubs" not in net._memo:
        ids = sorted(net.nodes)
        if len(ids) < 2:
            raise NoHubPair("network too small for hub selection")
        pair_d = [(_euclid(net, a, b), a, b)
                  for ai, a in enumerate(ids) for b in ids[ai + 1:]]
        dists = np.array([p[0] for p in pair_d])
        thr70 = float(np.percentile(dists, 70, method="higher"))
        r0 = float(np.percentile(dists, 20, method="higher"))
        qual = np.array([(a, b) for d, a, b in pair_d if d >= thr70])
        if not len(qual):
            raise NoHubPair("no node pair beyond the 70th distance percentile")
        net._memo["hubs"] = (qual, r0)
    return net._memo["hubs"]


def generate_two_cluster(net: RoadNetwork, n_vehicles: int, seed: int,
                         flexibility: float = 1.0,
                         sigma_l: float = 0.02, sigma_f: float = 0.1,
                         max_platoon: int = 10) -> ProblemInstance:
    """Origins clustered around one distant hub, destinations around another.

    The hub pair distance exceeds the 70th percentile of all pairwise node
    distances; the cluster radius is the 20th percentile.
    """
    rng = np.random.default_rng([12, seed])
    qual, r0 = _hub_pairs(net)
    h1, h2 = qual[int(rng.integers(len(qual)))].tolist()
    pool1 = _nodes_within(net, h1, r0)
    pool2 = _nodes_within(net, h2, r0)
    od = [_draw_od(rng, net, pool1, pool2) for _ in range(n_vehicles)]
    inst = ProblemInstance(net, _finish_missions(rng, net, od, flexibility),
                           sigma_l, sigma_f, max_platoon,
                           meta={"model": "two_cluster", "seed": seed,
                                 "flexibility": flexibility,
                                 "hubs": [h1, h2], "r0": r0})
    inst.validate()
    return inst


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

def instance_to_dict(inst: ProblemInstance) -> dict:
    net = inst.network
    doc = {
        "nodes": [{"id": n.id, "x": n.x, "y": n.y}
                  for n in sorted(net.nodes.values(), key=lambda n: n.id)],
        "edges": [{"from": e.tail, "to": e.head, "length": e.length,
                   "time": e.time, "fuel": e.fuel}
                  for e in sorted(net.edges.values(), key=lambda e: e.key)],
        "vehicles": [{"id": m.id, "origin": m.origin, "dest": m.dest,
                      "t_earliest": m.t_earliest, "t_latest": m.t_latest}
                     for m in sorted(inst.missions, key=lambda m: m.id)],
        "params": {"sigma_l": inst.sigma_l, "sigma_f": inst.sigma_f,
                   "lambda": inst.max_platoon},
    }
    if inst.meta:
        doc["meta"] = inst.meta
    return doc


def instance_from_dict(doc: dict) -> ProblemInstance:
    """``ParseError`` names the first field missing or of the wrong JSON
    type, and its node, edge or vehicle: ids, edge ends and ``lambda`` are
    integers, the other fields numbers (``true`` is neither)."""
    def need(obj, key, where, kind=None):
        if key not in obj:
            raise ParseError(f"missing field {key!r} in {where}")
        value = obj[key]
        if kind and (isinstance(value, bool)
                     or not isinstance(value, (int, kind))):
            what = "an integer" if kind is int else "a number"
            raise ParseError(f"field {key!r} of {where} is not {what}: "
                             f"{value!r}")
        return kind(value) if kind else value

    def entries(section, make, name, *fields):
        out = []
        for item in need(doc, section, "instance"):
            if not isinstance(item, dict):
                raise ParseError(f"an entry of {section!r} is not an object")
            out.append(make(*(need(item, key, name(item), kind)
                              for key, kind in fields)))
        return out

    try:
        nodes = entries("nodes", Node, lambda n: f"node {n.get('id')!r}",
                        ("id", int), ("x", float), ("y", float))
        edges = entries(
            "edges", Edge,
            lambda e: f"edge ({e.get('from')!r}, {e.get('to')!r})",
            ("from", int), ("to", int), ("length", float), ("time", float),
            ("fuel", float))
        vehicles = entries(
            "vehicles", VehicleMission, lambda v: f"vehicle {v.get('id')!r}",
            ("id", int), ("origin", int), ("dest", int),
            ("t_earliest", float), ("t_latest", float))
        params = need(doc, "params", "instance")
        inst = ProblemInstance(RoadNetwork(nodes, edges), vehicles,
                               need(params, "sigma_l", "params", float),
                               need(params, "sigma_f", "params", float),
                               need(params, "lambda", "params", int),
                               meta=doc.get("meta", {}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    if vehicles:
        inst.validate()
    else:
        # Network-only files skip the sigma/lambda mission checks.
        RoadNetwork(nodes, edges)
    return inst


def save_instance(inst: ProblemInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> ProblemInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return instance_from_dict(doc)
