"""Command-line entry points, run in-process through ``cli.main``."""

import csv
import json

import pytest

from platoonopt import cli, cuts, netmodel as nm, routing

from conftest import shared_edge_instance


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

    def test_spent_time_budget_exits_with_limit_code(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        nm.save_instance(shared_edge_instance(), str(inst_path))
        code = cli.main(["rshm", "--instance", str(inst_path),
                         "--total", "0"])
        assert code == cli.EXIT_LIMIT


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

    def test_time_limit_keeps_the_solo_schedule(self, tmp_path, cluster):
        inst, inst_path, routes_path = cluster
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
        # disjunctive cuts; without --out-bounds no bound report is built
        grid = nm.make_grid_network(6, 6, spacing_km=40, jitter=0.25, seed=9)
        inst = nm.generate_two_cluster(grid, 8, seed=0)
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
