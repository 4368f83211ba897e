"""CLI surface: generation determinism, solver runs, presets, exit codes."""

import csv
import json

import numpy as np
import pytest

from ehic import cli, online
from ehic.cli import (ExperimentConfig, fig7_scenario, gen_scenario, main,
                      run_experiment)
from ehic.errors import ConvergenceError
from ehic.model import feasibility_report, scenario_from_dict, scenario_to_dict
from ehic.rates import build_rate_model


def _write_scenario(tmp_path, doc, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SCEN = {
    "tau": 1.0, "N": 3,
    "users": [{"E": [2.0, 0.0, 1.0], "Emax": 2.0, "B": "infinite"},
              {"E": [1.0, 1.0, 0.0], "Emax": 2.0, "B": "infinite"}],
    "channel": {"a": 0.9, "b": 2.0},
}

DATA_SCEN = {
    "tau": 1.0, "N": 3,
    "users": [{"E": [2.0, 0.0, 0.0], "Emax": 3.0, "B": [0.1, 0.1, 5.0]},
              {"E": [0.0, 0.0, 0.0], "Emax": 3.0, "B": "infinite"}],
    "channel": {"a": 0.3, "b": 2.0},
}


class TestGenScenario:
    def test_same_seed_same_scenario(self):
        a = gen_scenario(10, 1.0, 5.0, 3.0, 42, 0.7, 5.0)
        b = gen_scenario(10, 1.0, 5.0, 3.0, 42, 0.7, 5.0)
        for j in range(2):
            assert np.array_equal(a.users[j].harvest.arrivals,
                                  b.users[j].harvest.arrivals)

    def test_amounts_within_capacity(self):
        scen = gen_scenario(50, 1.0, 5.0, 2.0, 1, 0.7, 5.0)
        for user in scen.users:
            assert np.all(user.harvest.arrivals >= 0.0)
            assert np.all(user.harvest.arrivals <= user.harvest.capacity)

    def test_quantization_floors_to_containing_slot(self):
        # a lone arrival at t in [3, 4) lands in the fourth slot
        class FixedRng:
            def __init__(self):
                self.calls = 0

            def exponential(self, mean):
                self.calls += 1
                return 3.4 if self.calls == 1 else 1e9

            def uniform(self, lo, hi):
                return 2.5

        import ehic.cli as cli_mod
        orig = cli_mod.np.random.default_rng
        cli_mod.np.random.default_rng = lambda seed: FixedRng()
        try:
            scen = gen_scenario(6, 1.0, 5.0, 5.0, 0, 0.7, 5.0)
        finally:
            cli_mod.np.random.default_rng = orig
        assert scen.users[0].harvest.arrivals[3] == pytest.approx(2.5)
        assert np.sum(scen.users[0].harvest.arrivals) == pytest.approx(2.5)


class TestRunExperiment:
    def test_offline_outputs(self, tmp_path):
        scen_path = _write_scenario(tmp_path, SCEN)
        out = tmp_path / "run"
        summary = run_experiment(ExperimentConfig(
            solver="solve-offline", scenario_path=scen_path,
            out_dir=str(out)))
        assert summary["feasibility"]["feasible"]
        assert summary["stationarity_user1"] <= 1e-6
        rows = list(csv.DictReader(open(out / "policy.csv")))
        assert len(rows) == 3
        # emitted CSV re-validates through the feasibility checker
        scen, _ = scenario_from_dict(SCEN)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        policy = np.array([[float(r["p1"]) for r in rows],
                           [float(r["p2"]) for r in rows]])
        rep = feasibility_report(policy, scen, rm, tol=1e-9 * 2.0)
        assert rep.energy_causality.magnitude <= 1e-9 * 2.0
        assert rep.battery_capacity.magnitude <= 1e-9 * 2.0

    def test_byte_identical_reruns(self, tmp_path):
        scen_path = _write_scenario(tmp_path, SCEN)
        out = tmp_path / "rerun"
        cfg = ExperimentConfig(solver="solve-offline",
                               scenario_path=scen_path, out_dir=str(out))
        run_experiment(cfg)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(cfg)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_oracle_passthrough(self, tmp_path):
        scen_path = _write_scenario(tmp_path, SCEN)
        out = tmp_path / "oracle"
        summary = run_experiment(ExperimentConfig(
            solver="oracle", scenario_path=scen_path, out_dir=str(out),
            grid_step=0.1))
        assert summary["objective_nats"] == \
            pytest.approx(summary["oracle_objective_nats"], abs=1e-12)

    def test_solve_data_reports_violation(self, tmp_path):
        scen_path = _write_scenario(tmp_path, DATA_SCEN)
        out = tmp_path / "data"
        summary = run_experiment(ExperimentConfig(
            solver="solve-data", scenario_path=scen_path, out_dir=str(out)))
        assert summary["final_violation"] <= 1e-4
        assert summary["feasibility"]["feasible"]

    def test_online_dp_and_tables(self, tmp_path):
        scen_path = _write_scenario(tmp_path, SCEN)
        out = tmp_path / "dp"
        summary = run_experiment(ExperimentConfig(
            solver="online-dp", scenario_path=scen_path, out_dir=str(out),
            grid_step=0.1, write_tables=True))
        assert summary["dp_value_at_start"] > 0
        assert (out / "tables.csv").exists()


class TestBaselines:
    """``naive`` and ``distributed`` on the fig7 scenario, from a file."""

    @pytest.fixture
    def fig7_path(self, tmp_path):
        return _write_scenario(tmp_path, scenario_to_dict(fig7_scenario()),
                               "fig7.json")

    @staticmethod
    def run(command, scen_path, out):
        assert main([command, "--scenario", scen_path, "--out", str(out)]) == 0
        return json.loads((out / "summary.json").read_text())

    def test_objectives_order(self, fig7_path, tmp_path):
        obj = {command: self.run(command, fig7_path,
                                 tmp_path / command)["objective_nats"]
               for command in ("solve-offline", "distributed", "naive")}
        assert obj["solve-offline"] >= obj["distributed"] >= obj["naive"]
        assert obj["solve-offline"] == pytest.approx(15.0872, abs=1e-4)
        assert obj["distributed"] == pytest.approx(14.9633, abs=1e-4)
        assert obj["naive"] == pytest.approx(13.6453, abs=1e-4)

    def test_distributed_writes_its_policy(self, fig7_path, tmp_path):
        out = tmp_path / "distributed"
        summary = self.run("distributed", fig7_path, out)
        assert summary["feasibility"]["feasible"]
        rows = list(csv.DictReader(
            (out / "policy.csv").read_text().splitlines()))
        written = np.array([[float(r["p1"]) for r in rows],
                            [float(r["p2"]) for r in rows]])
        scen, _ = cli._load_scenario(fig7_path)
        rm = cli._rate_model_for(scen)
        expected = np.vstack([online.distributed_policy(scen, rm, user)
                              for user in range(2)])
        assert np.array_equal(written, expected)

    def test_naive_overflows_a_battery(self, fig7_path, tmp_path):
        # naive transmits at its mean harvest rate and lets a full battery
        # spill, as a real one would: user 2 loses 4.2 before the arrival
        # in slot 16.  It never spends energy it has not harvested
        feas = self.run("naive", fig7_path, tmp_path / "naive")["feasibility"]
        assert feas["feasible"] is False
        assert feas["worst_energy_causality"] == 0.0
        assert feas["worst_battery_capacity"] == pytest.approx(4.2, rel=1e-12)
        scen, _ = cli._load_scenario(fig7_path)
        worst = feasibility_report(online.naive_policy(scen), scen,
                                   cli._rate_model_for(scen)).battery_capacity
        # user 2 (index 1) at the end of slot 15 (index 14)
        assert (worst.user, worst.slot) == (1, 14)


class TestPresets:
    def test_fig7_structure(self, tmp_path):
        out = tmp_path / "f7"
        summary = run_experiment(ExperimentConfig(
            solver="preset-fig7", out_dir=str(out)))
        rows = list(csv.DictReader(open(out / "policy.csv")))
        assert len(rows) == 20
        p1 = np.array([float(r["p1"]) for r in rows])
        assert p1[0] <= 0.01 * p1.max() and p1[1] <= 0.01 * p1.max()
        assert summary["converged"]
        # user 2's block returns the joint start it got (TestCertifiedStarts)
        assert (summary["sweeps"], summary["certified_starts"]) == (1, 1)
        assert max(summary[f"{kind}_user{u}"] for kind in
                   ("stationarity", "complementarity") for u in (1, 2)) <= 1e-7

    def test_fig8_small_batch_ordering(self, tmp_path):
        out = tmp_path / "f8"
        summary = run_experiment(ExperimentConfig(
            solver="preset-fig8", out_dir=str(out), seed=0, preset_count=5))
        means = summary["mean_total_bits"]
        assert means["bits_iterative"] >= means["bits_distributed"] \
            >= means["bits_naive"]
        rows = list(csv.DictReader(open(out / "scenarios.csv")))
        assert len(rows) == 5

    # (5, 2) is the shape of a benchmark fig8 op
    @pytest.mark.parametrize("count, jobs", [(4, 3), (5, 2)],
                             ids=["count4-jobs3", "count5-jobs2"])
    def test_fig8_jobs_deterministic(self, tmp_path, count, jobs):
        a = run_experiment(ExperimentConfig(
            solver="preset-fig8", out_dir=str(tmp_path / "a"), seed=3,
            preset_count=count, jobs=1))
        b = run_experiment(ExperimentConfig(
            solver="preset-fig8", out_dir=str(tmp_path / "b"), seed=3,
            preset_count=count, jobs=jobs))
        assert a["mean_total_bits"] == b["mean_total_bits"]
        assert (tmp_path / "a" / "scenarios.csv").read_bytes() == \
            (tmp_path / "b" / "scenarios.csv").read_bytes()


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools ``preset fig8`` creates."""
    made = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self._max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return made


class TestFig8Pool:
    def test_workers_capped_at_seed_count(self, tmp_path, capsys, pools):
        assert main(["preset", "fig8", "--count", "2", "--jobs", "8",
                     "--out", str(tmp_path / "x")]) == 0
        assert pools == [2]

    def test_single_seed_runs_in_process(self, tmp_path, capsys, pools):
        assert main(["preset", "fig8", "--count", "1", "--jobs", "2",
                     "--out", str(tmp_path / "x")]) == 0
        assert pools == []

    def test_worker_convergence_error_is_3(self, tmp_path, capsys,
                                           monkeypatch, pools):
        # patched before the pool forks, so the workers inherit it; every
        # seed fails with its own message, and the first seed's is reported
        def fail(scenario, rate_model, **settings):
            total = scenario.harvest_matrix().sum()
            raise ConvergenceError(f"no convergence, harvest {total!r}")

        monkeypatch.setattr(cli, "iterate_offline", fail)
        errs = []
        for jobs in ("1", "2"):
            assert main(["preset", "fig8", "--count", "3", "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 3
            errs.append(capsys.readouterr().err)
        assert pools == [2]
        assert errs[0] == errs[1]
        doc = json.loads(errs[0])
        assert doc["error"] == "ConvergenceError" and doc["exit_status"] == 3
        assert not (tmp_path / "2").exists()


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        scen_path = _write_scenario(tmp_path, SCEN)
        code = main(["solve-offline", "--scenario", scen_path,
                     "--out", str(tmp_path / "ok")])
        assert code == 0

    def test_validation_error_is_2(self, tmp_path, capsys):
        bad = _write_scenario(tmp_path, {"tau": 1.0}, "bad.json")
        assert main(["solve-offline", "--scenario", bad,
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["exit_status"] == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["E", "Emax", "B", "tau", "a", "b"])
    def test_non_finite_input_is_2(self, tmp_path, capsys, where, bad):
        doc = json.loads(json.dumps(SCEN))
        user = doc["users"][0]
        if where == "E":
            user["E"][1] = bad
        elif where == "Emax":
            user["Emax"] = bad
        elif where == "B":
            user["B"] = [0.5, bad, 0.5]
        elif where == "tau":
            doc["tau"] = bad
        else:
            doc["channel"][where] = bad
        path = _write_scenario(tmp_path, doc)
        solver = "solve-data" if where == "B" else "solve-offline"
        assert main([solver, "--scenario", path,
                     "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidInputError"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where, bad", [
        ("N", float("nan")), ("N", "x"), ("N", 2.5), ("N", True),
        ("tau", "x"), ("a", "x"), ("b", None), ("E", "x"),
        ("E", [2.0, "x", 1.0]), ("E", [2.0, "0", 1.0]), ("Emax", "x"),
        ("B", [0.5, "x", 0.5]), ("B", {"0": 0.5}),
    ])
    def test_malformed_number_is_2(self, tmp_path, capsys, where, bad):
        doc = json.loads(json.dumps(SCEN))
        if where in ("N", "tau"):
            doc[where] = bad
        elif where in ("a", "b"):
            doc["channel"][where] = bad
        else:
            doc["users"][0][where] = bad
        path = _write_scenario(tmp_path, doc)
        assert main(["solve-offline", "--scenario", path,
                     "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidInputError"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--count", "0"), ("--count", "-3"), ("--jobs", "0"), ("--jobs", "-2"),
    ])
    def test_bad_fig8_count_or_jobs_is_2(self, tmp_path, capsys, flag, value):
        assert main(["preset", "fig8", "--count", "1", flag, value,
                     "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidInputError"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("solve-offline", "--max-sweeps", "0"),
        ("solve-offline", "--tol", "0"),
        ("solve-offline", "--tol", "nan"),
        ("solve-offline", "--tol", "inf"),
        ("solve-data", "--violation-tol", "-1"),
        ("solve-data", "--violation-tol", "nan"),
        ("oracle", "--grid", "0"),
        ("online-dp", "--grid", "0"),
        ("online-dp", "--grid", "nan"),
        ("online-dp", "--tol", "nan"),
        ("preset fig7", "--max-sweeps", "0"),
        ("preset fig8", "--tol", "inf"),
    ])
    def test_bad_solver_setting_is_2(self, tmp_path, capsys, command, flag,
                                     value):
        argv = command.split()
        if argv[0] != "preset":
            doc = DATA_SCEN if command == "solve-data" else SCEN
            argv += ["--scenario", _write_scenario(tmp_path, doc)]
        assert main(argv + [flag, value, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidInputError" and flag in err["message"]
        assert not (tmp_path / "x").exists()

    def test_missing_file_is_2(self, tmp_path):
        assert main(["solve-offline", "--scenario",
                     str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_oracle_refusal_is_2(self, tmp_path):
        scen_path = _write_scenario(tmp_path, {
            "tau": 1.0, "N": 6,
            "users": [{"E": [10.0] * 6, "Emax": 10.0, "B": "infinite"},
                      {"E": [10.0] * 6, "Emax": 10.0, "B": "infinite"}],
            "channel": {"a": 0.9, "b": 2.0}})
        assert main(["oracle", "--scenario", scen_path, "--grid", "0.005",
                     "--out", str(tmp_path / "x")]) == 2

    def test_gen_scenario_writes_file(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["gen-scenario", "--n", "4", "--seed", "9",
                     "--out", str(out)]) == 0
        scen, _ = scenario_from_dict(json.loads(out.read_text()))
        assert scen.grid.N == 4
