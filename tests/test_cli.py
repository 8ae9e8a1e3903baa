"""Command-line entry points, run in-process through ``cli.main``."""

import csv
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from platoonopt import (cli, cuts, export, netmodel as nm, routing, rshm,
                        scheduling as sched)

from conftest import make_net, shared_edge_instance


class TestRshmCommand:
    def test_zero_iterations_reports_baseline(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        out_path = tmp_path / "result.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        code = cli.main(["rshm", "--instance", str(inst_path),
                         "--iter-cap", "0", "--out", str(out_path)])
        assert code == cli.EXIT_OK
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["iterations"] == 0
        assert doc["termination"] == "iter_cap"
        assert doc["trace"] == []
        assert doc["rel_dev"] == 0.0
        assert doc["fuel_cost"] == doc["fuel_baseline"]

    def test_limited_solves_are_reported(self, tmp_path, capsys):
        # the bare scheduling model of a component of four vehicles is
        # fractional at the root at iterations 1 and 3
        grid = nm.make_grid_network(5, 5, spacing_km=30, jitter=0.25, seed=9)
        inst_path = tmp_path / "inst.json"
        out_path = tmp_path / "result.json"
        nm.save_instance(nm.generate_two_cluster(grid, 12, seed=16),
                         str(inst_path))
        args = ["rshm", "--instance", str(inst_path), "--iter-cap", "3",
                "--per-solve", "0", "--out", str(out_path)]
        assert cli.main(args + ["--cuts", "none"]) == cli.EXIT_OK
        assert capsys.readouterr().out.rstrip().endswith(" limited=2")
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["limited"] == 2
        assert [t["sp_status"] for t in doc["trace"]] == \
            ["feasible", "optimal", "feasible"]
        assert {t["rdp_status"] for t in doc["trace"]} == {"optimal"}
        # no solve limited: the summary line does not name the count
        assert cli.main(args) == cli.EXIT_OK
        assert "limited" not in capsys.readouterr().out
        assert json.loads(out_path.read_text(encoding="utf-8"))[
            "limited"] == 0

    def test_search_facts_are_written_as_json(self, tmp_path):
        # per-solve limit 0 on the bare scheduling model: iterations 1 and
        # 3 keep the no-platoon seed, whose gap against the bound is
        # infinite; iteration 2's new scheduling components are in closed
        # form
        grid = nm.make_grid_network(5, 5, spacing_km=30, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 12, seed=16)
        inst_path = tmp_path / "inst.json"
        out_path = tmp_path / "result.json"
        nm.save_instance(inst, str(inst_path))
        assert cli.main(["rshm", "--instance", str(inst_path), "--iter-cap",
                         "3", "--per-solve", "0", "--cuts", "none",
                         "--out", str(out_path)]) == cli.EXIT_OK

        def strict(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out_path.read_text(encoding="utf-8"),
                         parse_constant=strict)
        facts = [(t["rdp_nodes"], t["rdp_gap"], t["sp_nodes"], t["sp_gap"])
                 for t in doc["trace"]]
        assert facts == [(1, 0.0, 1, None), (1, 0.0, 0, 0.0),
                         (1, 0.0, 1, None)]
        # one component of four vehicles at iterations 1 and 3; a pair and
        # one of three vehicles at iteration 2
        assert [(t["sp_milp"], t["sp_closed"], t["sp_reused"])
                for t in doc["trace"]] == [(1, 0, 0), (0, 2, 0), (1, 0, 0)]
        trace = rshm.run(inst, rshm.RshmOptions(
            iter_cap=3, per_solve_time_s=0.0, sp_cuts="none")).trace
        assert [t["sp_gap"] for t in trace] == [float("inf"), 0.0,
                                                float("inf")]
        # the size of each iteration's routing model
        assert [(t["rdp_rows"], t["rdp_cols"]) for t in doc["trace"]] == \
            [(t["rdp_rows"], t["rdp_cols"]) for t in trace]

    def test_spent_time_budget_exits_with_limit_code(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        code = cli.main(["rshm", "--instance", str(inst_path),
                         "--total", "0"])
        assert code == cli.EXIT_LIMIT


    def test_non_finite_instance_exits_with_usage_code(self, tmp_path,
                                                       capsys):
        doc = nm.instance_to_dict(shared_edge_instance())
        doc["vehicles"][0]["t_latest"] = float("inf")
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["rshm", "--instance", str(inst_path),
                         "--iter-cap", "2"])
        assert code == cli.EXIT_USAGE
        assert "time window must be finite" in capsys.readouterr().err

    def test_zero_edge_length_exits_with_usage_code(self, tmp_path, capsys):
        doc = nm.instance_to_dict(shared_edge_instance())
        doc["edges"][0]["length"] = 0
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["rshm", "--instance", str(inst_path),
                         "--iter-cap", "2"])
        assert code == cli.EXIT_USAGE
        assert "positive length" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [
        ("--gap", "nan"), ("--gap", "inf"), ("--gap", "-0.1"),
        ("--per-solve", "nan"), ("--per-solve", "-1"), ("--total", "inf"),
        ("--total", "-1")])
    def test_bad_limit_exits_with_usage_code(self, tmp_path, capsys, option,
                                             value):
        inst_path = tmp_path / "inst.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        code = cli.main(["rshm", "--instance", str(inst_path),
                         "--iter-cap", "1", option, value])
        assert code == cli.EXIT_USAGE
        assert "finite and non-negative" in capsys.readouterr().err


class TestMissionOffTheNetwork:
    @pytest.mark.parametrize("command", [
        ["rshm", "--iter-cap", "1"], ["solve-rdp"], ["solve-sp"],
        ["export-mps", "--out", "model.mps"]])
    def test_exits_with_usage_code(self, tmp_path, capsys, command):
        doc = nm.instance_to_dict(shared_edge_instance())
        doc["vehicles"][0]["origin"] = 999
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(doc), encoding="utf-8")
        argv = command[:1] + ["--instance", str(inst_path)] + command[1:]
        if command[0] == "export-mps":
            argv[-1] = str(tmp_path / "model.mps")
        assert cli.main(argv) == cli.EXIT_USAGE
        assert ("vehicle 1: origin 999 is not a network node"
                in capsys.readouterr().err)


def test_sp_export_is_the_papers_model(tmp_path):
    # the windows meet on [0.5, 0.775] only, so the model that the solves
    # build holds two departure-window rows; the export leaves them out
    inst = shared_edge_instance(windows=[(0.0, 1.0), (0.5, 2.0)])
    inst_path, out = tmp_path / "inst.json", tmp_path / "sp.lp"
    nm.save_instance(inst, str(inst_path))
    assert cli.main(["export-mps", "--instance", str(inst_path), "--problem",
                     "sp", "--format", "LP", "--out", str(out)]) == cli.EXIT_OK
    ra = routing.shortest_path_assignment(inst)
    con = sched.contract(ra, ra.edge_times, ra.edge_costs)
    bounds = sched.time_bounds(con, inst.missions)
    params = rshm.SavingsParams.from_instance(inst)
    bare, windowed = (sched.build_sp(con, params, bounds,
                                     sched.CutOptions(window=w)).model
                      for w in (False, True))
    assert out.read_text(encoding="utf-8") == export._to_lp(bare)
    assert windowed.num_constraints == bare.num_constraints + 2


@pytest.mark.parametrize("problem", ["sp", "rdp"])
def test_export_to_a_path_it_cannot_write_exits_with_usage_code(
        tmp_path, capsys, problem):
    inst_path = tmp_path / "inst.json"
    nm.save_instance(shared_edge_instance(), str(inst_path))
    out = tmp_path / "missing" / "model.mps"
    assert cli.main(["export-mps", "--instance", str(inst_path), "--problem",
                     problem, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


class TestHostileFiles:
    """Files that are not what a command reads are usage errors (exit 4)
    named on standard error, not tracebacks."""

    @pytest.mark.parametrize("doc,named", [
        ({"a": 1}, "lacks field 'instance'"),
        ([1, 2], "a result file holds a JSON object, not a list"),
        ({"instance": "i.json", "fuel_cost": "cheap"},
         "malformed field 'fuel_cost'"),
        ({"instance": "i.json", "fuel_cost": 1.0, "saving_rate": 0.0,
          "rel_dev": 0.0, "iterations": 1, "termination": "iter_cap",
          "trace": [{"z": 1.0}]}, "trace entry without 'runtime_s'")])
    def test_report_on_a_file_that_is_not_a_result(self, tmp_path, capsys,
                                                   doc, named):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["report", "--out", str(tmp_path / "r.csv"),
                         str(path)])
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "r.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and named in err

    def test_report_reads_a_result_file(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        result = tmp_path / "result.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        assert cli.main(["rshm", "--instance", str(inst_path), "--iter-cap",
                         "2", "--out", str(result)]) == cli.EXIT_OK
        out = tmp_path / "report.csv"
        assert cli.main(["report", "--out", str(out),
                         str(result)]) == cli.EXIT_OK
        [row] = _read_csv(out)
        assert row["Instance"] == str(inst_path) and row["Iters"] == "2"

    @pytest.mark.parametrize("section,key,value,named", [
        ("params", "lambda", 2.9, "'lambda' of params is not an integer: 2.9"),
        ("vehicles", "origin", 1.5,
         "'origin' of vehicle 1 is not an integer: 1.5"),
        ("vehicles", "t_latest", True,
         "'t_latest' of vehicle 1 is not a number: True")])
    def test_an_instance_value_of_the_wrong_type(self, tmp_path, capsys,
                                                 section, key, value, named):
        doc = nm.instance_to_dict(shared_edge_instance())
        (doc[section] if section == "params" else doc[section][0])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["rshm", "--instance", str(path), "--iter-cap",
                         "1"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("keys,named", [
        (("1", "01", "2"), "vehicle id '01' is not written '1'"),
        (("1", " 1", "2"), "vehicle id ' 1' is not written '1'"),
        (("+1", "2"), "vehicle id '+1' is not written '1'"),
        (("0_1", "2"), "vehicle id '0_1' is not written '1'"),
        (("1_0", "2"), "vehicle id '1_0' is not written '10'"),
        (("1", "1", "2"), "key '1' appears twice in one object")])
    def test_a_routes_file_that_names_a_vehicle_twice_or_oddly(
            self, tmp_path, capsys, keys, named):
        # every key holds the route of vehicle 1, or of vehicle 2 under "2",
        # so a file read with int() and last-wins solves (exits 0) for all
        # but "1_0"
        inst = shared_edge_instance()
        ra = routing.shortest_path_assignment(inst)
        inst_path, routes_path = _routes_file(tmp_path, inst, ra)
        body = ", ".join(
            f'"{k}": {json.dumps(list(ra.routes[2 if k == "2" else 1]))}'
            for k in keys)
        with open(routes_path, "w", encoding="utf-8") as fh:
            fh.write('{"routes": {' + body + '}}')
        assert cli.main(["solve-sp", "--instance", inst_path, "--routes",
                         routes_path]) == cli.EXIT_USAGE
        assert f"error: routes file: {named}" in capsys.readouterr().err

    def test_a_route_node_that_is_not_an_integer(self, tmp_path, capsys):
        inst = shared_edge_instance()
        ra = routing.shortest_path_assignment(inst)
        ra.routes[1] = tuple(float(n) for n in ra.routes[1])
        inst_path, routes_path = _routes_file(tmp_path, inst, ra)
        assert cli.main(["solve-sp", "--instance", inst_path, "--routes",
                         routes_path]) == cli.EXIT_USAGE
        assert "vehicle 1: route must be a list of integer nodes" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rshm", "--instance", "{dir}"],
        ["solve-sp", "--instance", "{inst}", "--routes", "{dir}"],
        ["report", "--out", "{dir}/r.csv", "{dir}"]])
    def test_a_directory_given_as_a_file(self, tmp_path, capsys, argv):
        inst_path = tmp_path / "inst.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        argv = [a.format(dir=tmp_path, inst=inst_path) for a in argv]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [["rshm", "--instance"],
                                         ["report", "--out", "r.csv"]])
    def test_a_file_that_is_not_text(self, tmp_path, capsys, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        argv = [a.replace("r.csv", str(tmp_path / "r.csv")) for a in command]
        assert cli.main(argv + [str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


class TestInternalErrors:
    def test_key_error_is_not_reported_as_bad_input(self, tmp_path,
                                                    monkeypatch):
        # bad input raises typed errors; a KeyError is a program fault and
        # must surface as one, not as usage code 4
        def lookup_bug(*args, **kwargs):
            raise KeyError((1, (3, 4)))

        inst_path = tmp_path / "inst.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        monkeypatch.setattr(routing, "presumed_objective", lookup_bug)
        with pytest.raises(KeyError):
            cli.main(["rshm", "--instance", str(inst_path), "--iter-cap", "1"])


class TestEmptyInstance:
    @pytest.fixture
    def empty(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        assert cli.main(["gen", "--model", "two-cluster", "--n", "0",
                         "--rows", "3", "--cols", "3", "--seed", "1",
                         "--out", str(path)]) == cli.EXIT_OK
        assert "(0 vehicles," in capsys.readouterr().out
        return str(path)

    @pytest.mark.parametrize("command", ["rshm", "solve-rdp", "solve-sp"])
    def test_commands_solve_an_instance_without_vehicles(self, empty,
                                                         command, tmp_path):
        out = tmp_path / "out.json"
        extra = ["--out", str(out)] if command == "rshm" else []
        assert cli.main([command, "--instance", empty, *extra]) == cli.EXIT_OK
        if command == "rshm":
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["fuel_cost"] == doc["rel_dev"] == 0.0
            assert doc["iterations"] >= 1


class TestBadIntegers:
    @pytest.mark.parametrize("args", [
        ["--n", "-2"], ["--rows", "0"], ["--rows", "-1"], ["--cols", "0"],
        ["--n", "two"]])
    def test_gen_rejects_bad_counts(self, tmp_path, capsys, args):
        out = tmp_path / "inst.json"
        code = cli.main(["gen", "--model", "distributed", "--out", str(out),
                         *args])
        assert code == cli.EXIT_USAGE and not out.exists()
        assert args[0] in capsys.readouterr().err

    @pytest.mark.parametrize("option,value,what", [
        ("--urban-share", "nan", "urban share"),
        ("--urban-share", "inf", "urban share"),
        ("--urban-share", "2", "urban share"),
        ("--urban-share", "-1", "urban share"),
        ("--urban-radius", "-5", "urban radius"),
        ("--urban-radius", "nan", "urban radius"),
        ("--jitter", "nan", "jitter"), ("--jitter", "-1", "jitter"),
        ("--spacing", "0", "spacing"), ("--spacing", "inf", "spacing")])
    def test_gen_rejects_bad_geometry(self, tmp_path, capsys, option, value,
                                      what):
        out = tmp_path / "inst.json"
        code = cli.main(["gen", "--model", "distributed", "--n", "4",
                         "--rows", "3", "--cols", "3", "--out", str(out),
                         option, value])
        assert code == cli.EXIT_USAGE and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and what in err

    @pytest.mark.parametrize("model", ["two-cluster", "distributed"])
    def test_gen_on_a_one_node_grid_exits_with_usage_code(self, tmp_path,
                                                          capsys, model):
        out = tmp_path / "inst.json"
        code = cli.main(["gen", "--model", model, "--rows", "1", "--cols",
                         "1", "--out", str(out)])
        assert code == cli.EXIT_USAGE and not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("model", ["two-cluster", "distributed"])
    def test_gen_where_no_origin_reaches_a_destination_exits_with_usage_code(
            self, tmp_path, capsys, model):
        # three nodes and one edge, from 2 to 1: neither generator can draw
        # an origin from which its destination is reachable
        net = make_net({1: (0, 0), 2: (10, 0), 3: (50, 50)}, [(2, 1, 10.0)])
        net_path, out = tmp_path / "net.json", tmp_path / "inst.json"
        nm.save_instance(nm.ProblemInstance(net, []), str(net_path))
        code = cli.main(["gen", "--net", str(net_path), "--model", model,
                         "--n", "3", "--out", str(out)])
        assert code == cli.EXIT_USAGE and not out.exists()
        err = capsys.readouterr().err
        assert err == "error: could not draw a connected origin/destination" \
            " pair\n"

    @pytest.mark.parametrize("option,value", [
        ("--iter-cap", "-1"), ("--iter-cap", "-3"), ("--iter-cap", "1.5"),
        ("--freq-threshold", "0"), ("--freq-threshold", "-1")])
    def test_rshm_rejects_bad_counts(self, tmp_path, capsys, option, value):
        inst_path = tmp_path / "inst.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        code = cli.main(["rshm", "--instance", str(inst_path), option, value])
        assert code == cli.EXIT_USAGE
        assert option in capsys.readouterr().err


def _routes_file(tmp_path, inst, routes=None):
    """Save ``inst`` and its routes (default: iteration-1 routing optimum,
    written by ``solve-rdp``); return both paths."""
    inst_path = tmp_path / "inst.json"
    routes_path = tmp_path / "routes.json"
    nm.save_instance(inst, str(inst_path))
    if routes is None:
        assert cli.main(["solve-rdp", "--instance", str(inst_path),
                         "--out-routes", str(routes_path)]) == cli.EXIT_OK
    else:
        routes_path.write_text(json.dumps(
            {"routes": {str(v): list(r) for v, r in routes.routes.items()}}),
            encoding="utf-8")
    return str(inst_path), str(routes_path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSolveSpCommand:
    @pytest.fixture
    def cluster(self, tmp_path):
        grid = nm.make_grid_network(5, 5, spacing_km=30, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 6, seed=2)
        return (inst, *_routes_file(tmp_path, inst))

    def test_time_limit_keeps_the_solo_schedule(self, tmp_path):
        # the routing model's routes: one scheduling component, of four
        # vehicles, whose bare model is fractional at the root
        grid = nm.make_grid_network(5, 5, spacing_km=30, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 12, seed=16)
        inst_path, routes_path = _routes_file(tmp_path, inst)
        out = tmp_path / "schedule.json"
        code = cli.main(["solve-sp", "--instance", inst_path,
                         "--routes", routes_path, "--cuts", "none",
                         "--time-limit", "0", "--out-schedule", str(out)])
        assert code == cli.EXIT_LIMIT
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["status"] == "feasible"
        assert doc["savings"] == 0.0
        assert doc["platoons"] == []
        assert doc["departures"] == {str(m.id): m.t_earliest
                                     for m in inst.missions}

    def _bad_routes(self, tmp_path, cluster, edit):
        """Run ``solve-sp`` on the cluster's routes after ``edit(inst,
        routes)`` changed them in place; returns its exit code."""
        inst, inst_path, routes_path = cluster
        with open(routes_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        routes = {int(v): r for v, r in doc["routes"].items()}
        edit(inst, routes)
        bad = tmp_path / "bad_routes.json"
        bad.write_text(json.dumps({"routes": {str(v): r for v, r
                                              in routes.items()}}),
                       encoding="utf-8")
        return cli.main(["solve-sp", "--instance", inst_path,
                         "--routes", str(bad)])

    def test_a_route_that_misses_its_window_is_infeasible(self, tmp_path,
                                                          capsys):
        # vehicle 1 of this instance (10 -> 15 in 1.41 h) on a 14-node
        # detour, which shares its last two edges with vehicle 4
        inst_path = str(tmp_path / "inst.json")
        assert cli.main(["gen", "--model", "two-cluster", "--n", "4",
                         "--rows", "4", "--cols", "4", "--seed", "1",
                         "--out", inst_path]) == cli.EXIT_OK
        inst = nm.load_instance(inst_path)
        routes = routing.shortest_path_assignment(inst).routes
        routes[1] = (10, 6, 7, 11, 12, 8, 3, 2, 1, 5, 9, 13, 14, 15)
        assert routes[4][-3:] == (13, 14, 15)
        path = tmp_path / "detour.json"
        path.write_text(json.dumps({"routes": {str(v): list(r) for v, r
                                               in routes.items()}}),
                        encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["solve-sp", "--instance", inst_path,
                         "--routes", str(path)]) == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == \
            "infeasible: vehicle 1: window closes at node 10\n"

    def test_routes_file_must_cover_every_mission(self, tmp_path, cluster,
                                                  capsys):
        code = self._bad_routes(tmp_path, cluster,
                                lambda inst, routes: routes.pop(3))
        assert code == cli.EXIT_USAGE
        assert "vehicle 3 has no route" in capsys.readouterr().err

    def _raw_routes(self, tmp_path, cluster, doc):
        """Run ``solve-sp`` on a routes file holding the JSON ``doc``."""
        _inst, inst_path, _routes_path = cluster
        bad = tmp_path / "raw_routes.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        return cli.main(["solve-sp", "--instance", inst_path,
                         "--routes", str(bad)])

    def test_routes_file_vehicle_ids_must_be_integers(self, tmp_path, cluster,
                                                      capsys):
        code = self._raw_routes(tmp_path, cluster, {"routes": {"a": [1, 2]}})
        assert code == cli.EXIT_USAGE
        assert "vehicle id 'a' is not an integer" in capsys.readouterr().err

    def test_routes_file_must_hold_an_object(self, tmp_path, cluster, capsys):
        code = self._raw_routes(tmp_path, cluster, [1, 2])
        assert code == cli.EXIT_USAGE
        assert 'a "routes" object' in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [
        ("--gap", "nan"), ("--gap", "-1"), ("--time-limit", "nan"),
        ("--time-limit", "inf")])
    def test_bad_limit_exits_with_usage_code(self, tmp_path, cluster, capsys,
                                             option, value):
        _inst, inst_path, routes_path = cluster
        code = cli.main(["solve-sp", "--instance", inst_path,
                         "--routes", routes_path, option, value])
        assert code == cli.EXIT_USAGE
        assert "finite and non-negative" in capsys.readouterr().err

    def test_routes_file_must_not_add_vehicles(self, tmp_path, cluster,
                                               capsys):
        def extra(inst, routes):
            routes[len(inst.missions) + 1] = routes[1]
        code = self._bad_routes(tmp_path, cluster, extra)
        assert code == cli.EXIT_USAGE
        assert "vehicle 7 has a route but no mission" in capsys.readouterr().err

    def test_route_must_join_origin_and_destination(self, tmp_path, cluster,
                                                    capsys):
        def truncate(inst, routes):
            routes[2] = routes[2][:-1]
        code = self._bad_routes(tmp_path, cluster, truncate)
        assert code == cli.EXIT_USAGE
        assert "vehicle 2: route must run from" in capsys.readouterr().err

    def test_route_hops_must_be_edges(self, tmp_path, cluster, capsys):
        def jump(inst, routes):
            o, d = routes[4][0], routes[4][-1]
            far = next(n for n in sorted(inst.network.nodes)
                       if n not in (o, d) and (o, n) not in inst.network.edges)
            routes[4] = [o, far, d]
        code = self._bad_routes(tmp_path, cluster, jump)
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "vehicle 4: route uses" in err and "not an edge" in err

    def test_route_must_be_a_simple_path(self, tmp_path, cluster, capsys):
        def loop(inst, routes):
            r = routes[5]
            routes[5] = [r[0], r[1], r[0], *r[1:]]
        code = self._bad_routes(tmp_path, cluster, loop)
        assert code == cli.EXIT_USAGE
        assert "vehicle 5: repeated node" in capsys.readouterr().err

    def test_bounds_are_ordered(self, tmp_path, cluster):
        _inst, inst_path, routes_path = cluster
        out, bounds = tmp_path / "schedule.json", tmp_path / "bounds.csv"
        code = cli.main(["solve-sp", "--instance", inst_path,
                         "--routes", routes_path, "--cuts", "star+disj",
                         "--out-schedule", str(out),
                         "--out-bounds", str(bounds)])
        assert code == cli.EXIT_OK
        savings = json.loads(out.read_text(encoding="utf-8"))["savings"]
        [row] = _read_csv(bounds)
        bd0, bd1, bd2 = (float(row[k]) for k in ("LPbd0", "LPbd1", "LPbd2"))
        tol = 1e-6
        assert bd0 >= bd1 - tol and bd1 >= bd2 - tol
        assert bd2 >= savings - tol

    def test_cut_log_lists_the_solve_cuts(self, tmp_path, monkeypatch):
        # on fuel-shortest routes this instance's root takes three
        # disjunctive cuts, departure-window rows and all; without
        # --out-bounds no bound report is built
        grid = nm.make_grid_network(7, 7, spacing_km=40, jitter=0.25, seed=5)
        inst = nm.generate_two_cluster(grid, 12, seed=17)
        inst_path, routes_path = _routes_file(
            tmp_path, inst, routing.shortest_path_assignment(inst))

        def no_report(*args, **kwargs):
            raise AssertionError("bound report built")

        monkeypatch.setattr(cuts, "bound_improvement_report", no_report)
        log = tmp_path / "cuts.csv"
        code = cli.main(["solve-sp", "--instance", inst_path,
                         "--routes", routes_path, "--cuts", "star+disj",
                         "--cut-log", str(log)])
        assert code == cli.EXIT_OK
        rows = _read_csv(log)
        assert [int(r["round"]) for r in rows] == [1, 2, 3]
        for r, nxt in zip(rows, rows[1:]):
            assert r["bound_after"] == nxt["bound_before"]
        for r in rows:
            assert float(r["violation"]) > 0
            assert float(r["bound_after"]) <= float(r["bound_before"])


class TestFootprint:
    def test_import_loads_neither_scipy_optimize_nor_sparse_linalg(self):
        # HiGHS comes in as one extension; the solver path needs none of
        # these packages, and each costs memory in every process that
        # imports it.
        code = ("import sys, platoonopt.cli; print(sorted(m for m in "
                "('scipy.optimize', 'scipy.sparse.linalg', "
                "'scipy.sparse.csgraph') if m in sys.modules))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_commands_write_only_their_own_lines(self, tmp_path, capfd):
        # A result is read from the last line of standard output, so nothing
        # the solver writes may reach either stream.
        inst = str(tmp_path / "inst.json")
        assert cli.main(["gen", "--model", "two-cluster", "--n", "4",
                         "--rows", "4", "--cols", "4", "--seed", "1",
                         "--out", inst]) == cli.EXIT_OK
        capfd.readouterr()
        commands = {
            "fuel=": ["rshm", "--instance", inst, "--iter-cap", "2"],
            "savings=": ["solve-sp", "--instance", inst, "--cuts", "star+disj",
                         "--out-bounds", str(tmp_path / "bounds.csv")]}
        fflush = ctypes.CDLL(None).fflush     # C stdio buffers, if any
        fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
        for prefix, argv in commands.items():
            assert cli.main(argv) == cli.EXIT_OK
            fflush(None)
            out, err = capfd.readouterr()
            assert err == ""
            [line] = out.splitlines()
            assert line.startswith(prefix)
