"""Network layer: shortest paths, candidate edges, generators, files."""

import collections
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths
from platoonopt import netmodel as nm, routing
from platoonopt.netmodel import VehicleMission

from conftest import make_net


def bellman_ford(net, src, weight):
    wf = {"length": lambda e: e.length, "fuel": lambda e: e.fuel,
          "time": lambda e: e.time}[weight]
    dist = {src: 0.0}
    for _ in range(len(net.nodes)):
        changed = False
        for e in net.edges.values():
            if e.tail in dist and dist[e.tail] + wf(e) < dist.get(e.head, np.inf):
                dist[e.head] = dist[e.tail] + wf(e)
                changed = True
        if not changed:
            break
    return dist


def test_two_node_path(two_node_net):
    p = nm.shortest_path(two_node_net, 1, 2, "length")
    assert p.nodes == (1, 2)
    assert p.length == pytest.approx(5.0)


def test_triangle_direct_beats_detour(triangle_net):
    p = nm.shortest_path(triangle_net, 1, 2, "length")
    assert p.nodes == (1, 2)
    assert p.length == pytest.approx(10.0)  # 10 < 6 + 6


def test_grid_corner_to_corner_lexicographic():
    net = nm.make_grid_network(5, 5, spacing_km=1.0, diagonals=False)
    p = nm.shortest_path(net, 1, 25, "length")
    ref = bellman_ford(net, 1, "length")
    assert p.length == pytest.approx(ref[25])
    assert p.length == pytest.approx(8.0)
    # lexicographically smallest among ties: run along the first row first
    assert p.nodes == (1, 2, 3, 4, 5, 10, 15, 20, 25)


def test_dijkstra_matches_bellman_ford_random():
    net = nm.make_grid_network(5, 6, spacing_km=13.5, jitter=0.4, seed=3)
    ref = bellman_ford(net, 1, "fuel")
    for target in (7, 18, 30):
        p = nm.shortest_path(net, 1, target, "fuel")
        assert p.fuel == pytest.approx(ref[target], rel=1e-12)


def test_unreachable():
    net = make_net({1: (0, 0), 2: (1, 0), 3: (2, 0)},
                   [(1, 2, 1.0)])
    with pytest.raises(nm.Unreachable):
        nm.shortest_path(net, 2, 1, "length")
    with pytest.raises(nm.Unreachable):
        nm.candidate_edge_set(net, VehicleMission(1, 3, 1, 0, 9), 0.1)


def test_candidate_zero_detour_is_shortest_paths(triangle_net):
    m = VehicleMission(1, 1, 2, 0.0, 1.0)
    assert nm.candidate_edge_set(triangle_net, m, 0.0) == {(1, 2)}


def test_candidate_triangle_bound_arithmetic(triangle_net):
    m = VehicleMission(1, 1, 2, 0.0, 1.0)
    # bound 10/0.9 = 11.11 excludes the 12-long detour
    assert nm.candidate_edge_set(triangle_net, m, 0.1) == {(1, 2)}
    # 10/0.75 = 13.33 admits it
    assert nm.candidate_edge_set(triangle_net, m, 0.25) == {
        (1, 2), (1, 3), (3, 2)}


def test_candidate_matches_triple_loop():
    net = nm.make_grid_network(5, 6, spacing_km=20.0, jitter=0.35, seed=17)
    m = VehicleMission(1, 2, 29, 0.0, 24.0)
    got = nm.candidate_edge_set(net, m, 0.1)
    d_from = bellman_ford(net, m.origin, "length")
    rev = make_net({i: (n.x, n.y) for i, n in net.nodes.items()},
                   [(e.head, e.tail, e.length) for e in net.edges.values()])
    d_to = bellman_ford(rev, m.dest, "length")
    bound = d_from[m.dest] / 0.9
    expect = set()
    for (i, j), e in net.edges.items():
        if i in d_from and j in d_to:
            if d_from[i] + e.length + d_to[j] <= bound * (1 + 1e-9) + 1e-12:
                expect.add((i, j))
    assert got == expect


def test_candidate_monotone_in_sigma_f():
    net = nm.make_grid_network(4, 5, spacing_km=25.0, jitter=0.3, seed=2)
    m = VehicleMission(1, 1, 20, 0.0, 24.0)
    prev = set()
    for sf in (0.0, 0.05, 0.1, 0.2, 0.4):
        cur = nm.candidate_edge_set(net, m, sf)
        assert prev <= cur
        prev = cur


def test_candidate_contains_a_shortest_path():
    net = nm.make_grid_network(4, 5, spacing_km=25.0, jitter=0.3, seed=2)
    m = VehicleMission(1, 1, 20, 0.0, 24.0)
    sp = nm.shortest_path(net, 1, 20, "length")
    cand = nm.candidate_edge_set(net, m, 0.05)
    assert set(sp.edges) <= cand


def test_generate_distributed_empty():
    net = nm.make_grid_network(3, 3, spacing_km=30)
    inst = nm.generate_distributed(net, 0, seed=1)
    assert inst.missions == []


@pytest.mark.parametrize("kwargs,what", [
    ({"urban_share": float("nan")}, "urban share"),
    ({"urban_share": float("inf")}, "urban share"),
    ({"urban_share": 2.0}, "urban share"),
    ({"urban_share": -1.0}, "urban share"),
    ({"urban_radius_km": -5.0}, "urban radius"),
    ({"urban_radius_km": float("nan")}, "urban radius"),
    ({"urban_radius_km": float("inf")}, "urban radius")])
def test_generate_distributed_rejects_bad_urban_draws(small_grid, kwargs,
                                                       what):
    with pytest.raises(nm.ValidationError, match=what):
        nm.generate_distributed(small_grid, 4, seed=1, **kwargs)


@pytest.mark.parametrize("share", [0.0, 1.0])
def test_generate_distributed_accepts_the_ends_of_the_urban_share(small_grid,
                                                                  share):
    inst = nm.generate_distributed(small_grid, 4, seed=1, urban_share=share,
                                   urban_radius_km=0.0)
    assert len(inst.missions) == 4


def test_generate_distributed_window_rule(small_grid):
    inst = nm.generate_distributed(small_grid, 12, seed=4, flexibility=1.0)
    for m in inst.missions:
        sp = nm.shortest_path(small_grid, m.origin, m.dest, "time")
        assert m.t_latest - m.t_earliest == pytest.approx(2 * sp.time, rel=1e-12)


def test_generate_deterministic(small_grid):
    a = nm.generate_distributed(small_grid, 9, seed=7)
    b = nm.generate_distributed(small_grid, 9, seed=7)
    assert a == b
    c = nm.generate_two_cluster(small_grid, 9, seed=7)
    d = nm.generate_two_cluster(small_grid, 9, seed=7)
    assert c == d
    assert a != c


def test_two_cluster_hub_percentiles(small_grid):
    inst = nm.generate_two_cluster(small_grid, 10, seed=3)
    h1, h2 = inst.meta["hubs"]
    r0 = inst.meta["r0"]
    ids = sorted(small_grid.nodes)
    dists = []
    for a_i, a in enumerate(ids):
        for b in ids[a_i + 1:]:
            na, nb = small_grid.nodes[a], small_grid.nodes[b]
            dists.append(np.hypot(na.x - nb.x, na.y - nb.y))
    hub_d = np.hypot(small_grid.nodes[h1].x - small_grid.nodes[h2].x,
                     small_grid.nodes[h1].y - small_grid.nodes[h2].y)
    assert hub_d >= np.percentile(dists, 70) - 1e-9
    assert r0 >= np.percentile(dists, 20) - 1e-9
    for m in inst.missions:
        no, nh = small_grid.nodes[m.origin], small_grid.nodes[h1]
        assert np.hypot(no.x - nh.x, no.y - nh.y) <= r0 + 1e-9
        nd, nh2 = small_grid.nodes[m.dest], small_grid.nodes[h2]
        assert np.hypot(nd.x - nh2.x, nd.y - nh2.y) <= r0 + 1e-9


def test_two_cluster_degenerate_net():
    net = make_net({1: (0, 0), 2: (1, 0)}, [(1, 2, 1.0), (2, 1, 1.0)])
    # single node pair: either works as hubs or raises the documented error
    try:
        inst = nm.generate_two_cluster(net, 1, seed=0)
        assert len(inst.missions) == 1
    except nm.NoHubPair:
        pass


def test_instance_validation_errors(two_node_net):
    m = VehicleMission(1, 1, 2, 0.0, 1.0)
    bad = nm.ProblemInstance(two_node_net, [m], sigma_l=0.2, sigma_f=0.1)
    with pytest.raises(nm.ValidationError, match="sigma"):
        bad.validate()
    bad2 = nm.ProblemInstance(two_node_net, [m], max_platoon=1)
    with pytest.raises(nm.ValidationError, match="platoon"):
        bad2.validate()
    tight = nm.ProblemInstance(
        two_node_net, [VehicleMission(1, 1, 2, 0.0, 0.01)])
    with pytest.raises(nm.ValidationError, match="window"):
        tight.validate()
    gap = nm.ProblemInstance(two_node_net, [VehicleMission(3, 1, 2, 0, 1)])
    with pytest.raises(nm.ValidationError, match="ids"):
        gap.validate()


@pytest.mark.parametrize("origin,dest,what", [
    (999, 2, "origin 999 is not a network node"),
    (1, 999, "destination 999 is not a network node"),
    (999, 999, "origin 999 is not a network node")])
def test_instance_rejects_missions_off_the_network(two_node_net, origin,
                                                   dest, what):
    inst = nm.ProblemInstance(two_node_net,
                              [VehicleMission(1, origin, dest, 0.0, 1.0)])
    with pytest.raises(nm.ValidationError, match=what):
        inst.validate()


def test_edge_tables_are_built_once_and_read_only(two_node_net):
    for table, value in ((two_node_net.fuel_table, 5.0),
                         (two_node_net.time_table, 5.0 / 80.0)):
        assert table() is table()
        assert dict(table()) == {(1, 2): value}
        with pytest.raises(TypeError):
            table()[(1, 2)] = 1.0


# ---------------------------------------------------------------------------
# Distance rows, computed once per network
# ---------------------------------------------------------------------------

@st.composite
def _networks(draw):
    """Up to 7 nodes and a random subset of the directed edges, so some
    pairs are unreachable; lengths, times and fuels from a few values, so
    shortest paths tie."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    value = st.sampled_from([0.5, 1.0, 1.5, 2.0, 0.1, 0.2, 0.3, 2.7])
    edges = [nm.Edge(i, j, draw(value), draw(value), draw(value))
             for (i, j), k in zip(pairs, keep) if k]
    return nm.RoadNetwork([nm.Node(i, float(i), 0.0)
                           for i in range(1, n + 1)], edges)


def _outcome(call):
    """What ``call()`` returns or raises, with a path's floats as hex."""
    try:
        p = call()
    except (nm.ValidationError, nm.NetworkError) as exc:
        return type(exc), str(exc)
    if p is None:
        return None
    return p.nodes, p.edges, p.length.hex(), p.fuel.hex(), p.time.hex()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_networks(), st.sampled_from([-2e-9, -1e-9, 0.0, 1e-12]))
def test_rows_paths_and_verdicts_are_the_reference(net, delta):
    ids = sorted(net.nodes)
    assert net.edge_arrays().nodes.tolist() == ids
    for weight in reference_paths.WEIGHT:
        for o in ids:
            for reverse in (False, True):
                got = net.distances(weight, o, reverse)
                ref = reference_paths.row(net, o, weight, reverse)
                assert got.tobytes() == ref.tobytes()
                assert not got.flags.writeable
            for d in ids:
                assert _outcome(lambda: nm.shortest_path(net, o, d, weight)) \
                    == _outcome(lambda: reference_paths.shortest_path(
                        net, o, d, weight))
    for o in ids:
        for d in ids:
            if o == d:
                continue
            fastest = reference_paths.dijkstra(net, o, "time").get(d, 1.0)
            inst = nm.ProblemInstance(
                net, [VehicleMission(1, o, d, 3.0, 3.0 + fastest + delta)])
            assert _outcome(inst.validate) == _outcome(
                lambda: reference_paths.check_windows(inst))


def _benchmark_instance_digest():
    """sha256 over the missions (times as hex) and fuel-shortest routes of
    the benchmark's instances: two-cluster 8x8 n=16 seeds 1-6, two-cluster
    7x7 n=12 seed 1 and distributed 8x8 n=16 seed 1."""
    out = hashlib.sha256()
    for gen, k, n, seeds in (("two_cluster", 8, 16, range(1, 7)),
                             ("two_cluster", 7, 12, (1,)),
                             ("distributed", 8, 16, (1,))):
        net = nm.make_grid_network(k, k, spacing_km=40, jitter=0.25, seed=5)
        for s in seeds:
            inst = getattr(nm, f"generate_{gen}")(net, n, s)
            for m in inst.missions:
                out.update(f"{m.id} {m.origin} {m.dest} {m.t_earliest.hex()} "
                           f"{m.t_latest.hex()}\n".encode())
            routes = routing.shortest_path_assignment(inst).routes
            for v, r in sorted(routes.items()):
                out.update(f"{v} {r}\n".encode())
    return out.hexdigest()


def test_benchmark_instances_are_unchanged():
    # computed with one search per call, before distance rows were kept
    assert _benchmark_instance_digest() == \
        "e5bf904e1101decbfa9e2333dceefe817061ccdefedebdcd13d97470d118b70b"


def test_each_distance_row_is_searched_once_per_network(monkeypatch):
    searches = collections.Counter()
    search = nm._dijkstra

    def counting(net, source, weight, reverse=False, *args, **kwargs):
        searches[(id(net), weight, reverse, source)] += 1
        return search(net, source, weight, reverse, *args, **kwargs)

    monkeypatch.setattr(nm, "_dijkstra", counting)
    net = nm.make_grid_network(8, 8, spacing_km=40, jitter=0.25, seed=5)
    instances = [nm.generate_two_cluster(net, 16, s) for s in range(1, 7)]
    for inst in instances:
        routing.shortest_path_assignment(inst)
    # one search per (weight, direction, source): 480 when each call
    # searched anew
    assert set(searches.values()) == {1}
    assert sum(searches.values()) == 158
    searches.clear()
    assert nm.generate_two_cluster(net, 16, 1) == instances[0]
    routing.shortest_path_assignment(instances[0])
    instances[0].validate()
    assert not searches


def test_default_cities_are_a_fresh_list(small_grid):
    cities = nm.default_cities(small_grid)
    cities.append(-1)
    assert nm.default_cities(small_grid) == cities[:-1]


def test_minimal_file_roundtrip(tmp_path, two_node_net):
    inst = nm.ProblemInstance(two_node_net,
                              [VehicleMission(1, 1, 2, 0.0, 1.0)])
    path = tmp_path / "mini.json"
    nm.save_instance(inst, path)
    assert nm.load_instance(path) == inst


def test_generated_roundtrip(tmp_path, medium_grid):
    inst = nm.generate_distributed(medium_grid, 50, seed=12)
    path = tmp_path / "g50.json"
    nm.save_instance(inst, path)
    assert nm.load_instance(path) == inst


def test_save_deterministic(tmp_path, small_grid):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    nm.save_instance(nm.generate_two_cluster(small_grid, 6, seed=5), a)
    nm.save_instance(nm.generate_two_cluster(small_grid, 6, seed=5), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_bad_sigma(tmp_path, two_node_net):
    inst = nm.ProblemInstance(two_node_net,
                              [VehicleMission(1, 1, 2, 0.0, 1.0)])
    doc = nm.instance_to_dict(inst)
    doc["params"]["sigma_l"] = 0.5
    doc["params"]["sigma_f"] = 0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(nm.ValidationError, match="sigma"):
        nm.load_instance(path)


NON_FINITE_FIELDS = [("nodes", "x"), ("nodes", "y"), ("edges", "length"),
                     ("edges", "time"), ("edges", "fuel"),
                     ("vehicles", "t_earliest"), ("vehicles", "t_latest"),
                     ("params", "sigma_l"), ("params", "sigma_f")]


def _write_with(tmp_path, net, section, key, value):
    """Instance file of one mission on ``net`` with ``value`` in the first
    entry of ``section`` under ``key``."""
    doc = nm.instance_to_dict(
        nm.ProblemInstance(net, [VehicleMission(1, 1, 2, 0.0, 1.0)]))
    (doc[section] if section == "params" else doc[section][0])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))   # writes NaN / Infinity, as json reads
    return path


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("section,key", NON_FINITE_FIELDS,
                         ids=[f"{s}.{k}" for s, k in NON_FINITE_FIELDS])
def test_load_rejects_non_finite_numbers(tmp_path, two_node_net, section,
                                         key, value):
    path = _write_with(tmp_path, two_node_net, section, key, value)
    with pytest.raises(nm.ValidationError):
        nm.load_instance(path)


def test_load_rejects_infinite_platoon_cap(tmp_path, two_node_net):
    path = _write_with(tmp_path, two_node_net, "params", "lambda",
                       float("inf"))
    with pytest.raises(nm.ParseError):
        nm.load_instance(path)


def test_load_parse_errors(tmp_path, two_node_net):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(nm.ParseError):
        nm.load_instance(p)
    p2 = tmp_path / "missing.json"
    p2.write_text(json.dumps({"nodes": [], "edges": []}))
    with pytest.raises(nm.ParseError, match="vehicles"):
        nm.load_instance(p2)
    # a value of the wrong JSON type is named, not truncated or converted
    for section, key, value, where, what in [
            ("vehicles", "origin", 1.5, "vehicle 1", "an integer"),
            ("vehicles", "id", True, "vehicle True", "an integer"),
            ("nodes", "id", "1", "node '1'", "an integer"),
            ("edges", "to", 2.0, "edge (1, 2.0)", "an integer"),
            ("params", "lambda", 2.9, "params", "an integer"),
            ("vehicles", "t_latest", "1.0", "vehicle 1", "a number"),
            ("nodes", "x", True, "node 1", "a number"),
            ("params", "sigma_f", False, "params", "a number")]:
        path = _write_with(tmp_path, two_node_net, section, key, value)
        named = f"field {key!r} of {where} is not {what}: {value!r}"
        with pytest.raises(nm.ParseError, match=re.escape(named)):
            nm.load_instance(path)
    p3 = tmp_path / "entries.json"
    p3.write_text(json.dumps({"nodes": [1], "edges": [], "vehicles": [],
                              "params": {}}))
    with pytest.raises(nm.ParseError, match="entry of 'nodes' is not an obj"):
        nm.load_instance(p3)


def test_network_invariants():
    with pytest.raises(nm.ValidationError, match="self-loop"):
        make_net({1: (0, 0)}, [(1, 1, 1.0)])
    with pytest.raises(nm.ValidationError, match="endpoint"):
        make_net({1: (0, 0)}, [(1, 2, 1.0)])
    with pytest.raises(nm.ValidationError, match="positive"):
        make_net({1: (0, 0), 2: (1, 0)}, [(1, 2, 0.0)])


@pytest.mark.parametrize("length", [0.0, -40.0], ids=["zero", "negative"])
def test_network_rejects_non_positive_length(length):
    # fuel and time stay positive, so only the length is at fault
    nodes = [nm.Node(1, 0.0, 0.0), nm.Node(2, 1.0, 0.0)]
    with pytest.raises(nm.ValidationError, match="positive length"):
        nm.RoadNetwork(nodes, [nm.Edge(1, 2, length, 0.5, 40.0)])


@pytest.mark.parametrize("kwargs,what", [
    ({"jitter": float("nan")}, "jitter"), ({"jitter": -1.0}, "jitter"),
    ({"jitter": float("inf")}, "jitter"),
    ({"spacing_km": float("nan")}, "spacing"),
    ({"spacing_km": float("inf")}, "spacing"),
    ({"spacing_km": 0.0}, "spacing"), ({"spacing_km": -40.0}, "spacing")])
def test_grid_rejects_bad_geometry(kwargs, what):
    with pytest.raises(nm.ValidationError, match=what):
        nm.make_grid_network(3, 3, **kwargs)


def test_grid_proportionality():
    net = nm.make_grid_network(3, 4, spacing_km=17.0, jitter=0.2, seed=8,
                               speed_kmh=80.0, fuel_per_km=1.0)
    for e in net.edges.values():
        assert e.fuel == pytest.approx(e.length)
        assert e.time == pytest.approx(e.length / 80.0)
