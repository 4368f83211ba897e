"""CLI surface: generation determinism, solver runs, presets, exit codes."""

import argparse
import csv
import json

import numpy as np
import pytest

from ehic import cli, iterative, online
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

    @pytest.mark.parametrize("solver", ["online-dp", "oracle"])
    def test_lattice_policy_fits_the_real_battery(self, tmp_path, solver):
        # on this seed the rollout truncates an overflow and the oracle
        # snaps arrivals down, so both planned policies let a battery
        # overflow
        scen = gen_scenario(20, 1.0, 10.0, 5.0, 6, 0.7, 5.0)
        scen_path = _write_scenario(tmp_path, scenario_to_dict(scen))
        summary = run_experiment(ExperimentConfig(
            solver=solver, scenario_path=scen_path,
            out_dir=str(tmp_path / solver), grid_step=0.5))
        assert summary["feasibility"]["feasible"]
        lattice = summary.get("oracle_objective_nats",
                              summary.get("dp_value_at_start"))
        assert summary["objective_nats"] >= lattice - 1e-9

    def test_solve_data_reports_violation(self, tmp_path):
        scen_path = _write_scenario(tmp_path, DATA_SCEN)
        out = tmp_path / "data"
        summary = run_experiment(ExperimentConfig(
            solver="solve-data", scenario_path=scen_path, out_dir=str(out)))
        assert summary["final_violation"] <= 1e-4
        assert summary["feasibility"]["feasible"]

    def test_solve_data_reports_inner_failures(self, tmp_path, monkeypatch):
        # every round solve's SLSQP status is read as a failure here
        from ehic import data_causality
        real, calls = data_causality.minimize, []

        def failing(*args, **kwargs):
            res = real(*args, **kwargs)
            res.success = False
            calls.append(res)
            return res

        monkeypatch.setattr(data_causality, "minimize", failing)
        summary = run_experiment(ExperimentConfig(
            solver="solve-data", out_dir=str(tmp_path / "data"),
            scenario_path=_write_scenario(tmp_path, DATA_SCEN)))
        written = json.loads((tmp_path / "data" / "summary.json").read_text())
        assert written["inner_failures"] == summary["inner_failures"]
        assert summary["inner_failures"] == len(calls) > 0
        # the SLSQP iterations of the round solves, beside the rounds
        assert written["inner_steps"] == summary["inner_steps"]
        assert summary["inner_steps"] == sum(res.nit for res in calls) > 0
        assert summary["rounds"] >= 1

    def test_online_dp_and_tables(self, tmp_path):
        scen_path = _write_scenario(tmp_path, SCEN)
        out = tmp_path / "dp"
        summary = run_experiment(ExperimentConfig(
            solver="online-dp", scenario_path=scen_path, out_dir=str(out),
            grid_step=0.1, write_tables=True))
        assert summary["dp_value_at_start"] > 0
        # one row per slot and battery state, on 21 levels per battery
        with open(out / "tables.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["slot", "e1", "e2", "p1", "p2", "value"]
        assert len(rows) == 1 + 3 * 21 * 21
        assert {len(row) for row in rows} == {6}

    def test_online_dp_ignores_data_arrivals(self, tmp_path):
        # the DP plans on energy arrivals only, so the data arrivals B
        # change neither its tables nor its values; policy.csv may differ,
        # since only infinite-backlog rows get their overflow spent
        backlogged = json.loads(json.dumps(DATA_SCEN))
        for user in backlogged["users"]:
            user["B"] = "infinite"
        runs = []
        for name, doc in (("data", DATA_SCEN), ("backlogged", backlogged)):
            out = tmp_path / name
            summary = run_experiment(ExperimentConfig(
                solver="online-dp", out_dir=str(out), grid_step=0.5,
                scenario_path=_write_scenario(tmp_path, doc, f"{name}.json"),
                write_tables=True))
            runs.append((summary, (out / "tables.csv").read_bytes()))
        (data, data_tables), (backlog, backlog_tables) = runs
        assert data_tables == backlog_tables
        for key in ("dp_value_at_start", "dp_table_value"):
            assert data[key] == backlog[key]

    def test_online_dp_reports_the_table_value(self, tmp_path):
        # J_0 at the start state, written next to the rollout's total, and
        # at most the offline optimum
        scen = fig7_scenario()
        scen_path = _write_scenario(tmp_path, scenario_to_dict(scen))
        summary = run_experiment(ExperimentConfig(
            solver="online-dp", scenario_path=scen_path,
            out_dir=str(tmp_path / "dp"), grid_step=0.5))
        keys = list(summary)
        assert keys.index("dp_table_value") == \
            keys.index("dp_value_at_start") + 1
        assert summary["dp_table_value"] == pytest.approx(15.081070, abs=1e-6)
        rm = cli._rate_model_for(scen)
        policy, _ = iterative.iterate_offline(scen, rm)
        offline = iterative.joint_objective(policy, scen, rm)
        assert summary["dp_table_value"] <= offline


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
        expected = np.vstack([online.distributed_policy(scen, user)
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
        # both blocks return the polished joint start they got
        # (TestCertifiedStarts); the summary counts the polish's solves
        assert (summary["sweeps"], summary["certified_starts"]) == (1, 2)
        assert summary["polish_steps"] > 0
        assert list(summary).index("polish_steps") == \
            list(summary).index("start_steps") + 1
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
def no_processes(monkeypatch):
    """Fail the test if ``preset fig8`` starts a process or forks."""
    import multiprocessing.process
    import os

    def refuse(*args, **kwargs):
        raise AssertionError("preset fig8 started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)


def _csv_rows(path):
    return path.read_bytes().splitlines()[1:]


class TestFig8Pool:
    """``preset fig8`` runs every seed in one process, whatever --jobs."""

    def test_no_process_pool_for_any_jobs(self, tmp_path, capsys,
                                          no_processes):
        outputs = set()
        for jobs in ("1", "2", "8"):
            assert main(["preset", "fig8", "--count", "3", "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 0
            outputs.add((tmp_path / jobs / "scenarios.csv").read_bytes())
        assert len(outputs) == 1

    def test_seed_row_is_independent_of_the_batch(self, tmp_path, capsys):
        assert main(["preset", "fig8", "--count", "20",
                     "--out", str(tmp_path / "all")]) == 0
        rows = _csv_rows(tmp_path / "all" / "scenarios.csv")
        for seed in (0, 7, 19):
            out = tmp_path / str(seed)
            assert main(["preset", "fig8", "--seed", str(seed), "--count",
                         "1", "--out", str(out)]) == 0
            assert _csv_rows(out / "scenarios.csv") == [rows[seed]]

    def test_worker_convergence_error_is_3(self, tmp_path, capsys,
                                           monkeypatch, no_processes):
        # the batch fails with the first seed's message
        def fail(scenarios, rate_models, **settings):
            total = scenarios[0].harvest_matrix().sum()
            raise ConvergenceError(f"no convergence, harvest {total!r}")

        monkeypatch.setattr(cli, "iterate_offline_many", fail)
        errs = []
        for jobs in ("1", "2"):
            assert main(["preset", "fig8", "--count", "3", "--jobs", jobs,
                         "--out", str(tmp_path / jobs)]) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        doc = json.loads(errs[0])
        assert doc["error"] == "ConvergenceError" and doc["exit_status"] == 3
        first = gen_scenario(20, 1.0, 10.0, 5.0, 0, 0.7, 5.0)
        assert doc["message"] == \
            f"no convergence, harvest {first.harvest_matrix().sum()!r}"
        assert not (tmp_path / "1").exists()
        assert not (tmp_path / "2").exists()

    def test_unconverged_seed_is_3(self, tmp_path, capsys, monkeypatch):
        # from zeros, one sweep does not settle seed 4: the first unsettled
        # seed in seed order is reported and nothing is written, as
        # solve-offline does for one scenario; the default sweep budget
        # settles the same seeds from zeros
        def zero_start(scenarios, rate_model):
            n, zeros = scenarios[0].grid.N, np.zeros(len(scenarios))
            return np.zeros((len(scenarios), 2, n)), zeros, zeros

        monkeypatch.setattr(iterative, "joint_start", zero_start)
        assert main(["preset", "fig8", "--seed", "4", "--count", "3",
                     "--max-sweeps", "1", "--out", str(tmp_path / "x")]) == 3
        doc = json.loads(capsys.readouterr().err)
        assert doc["exit_status"] == 3
        assert doc["message"].startswith("fig8 seed 4:")
        assert not (tmp_path / "x").exists()
        assert main(["preset", "fig8", "--seed", "4", "--count", "3",
                     "--out", str(tmp_path / "y")]) == 0


class TestParserReuse:
    """``main`` builds its argument parser once per process."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._build_parser.cache_clear()
        yield
        cli._build_parser.cache_clear()

    def test_two_calls_build_one_parser(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["gen-scenario", "--n", "4", "--seed", "9",
                         "--out", str(tmp_path / f"{name}.json")]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_bad_argument_after_a_good_call_is_2(self, tmp_path, capsys):
        assert main(["gen-scenario", "--n", "4",
                     "--out", str(tmp_path / "ok.json")]) == 0
        for argv in (["preset", "fig9"], ["solve-offline", "--tol", "x"],
                     ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert cli._build_parser.cache_info().misses == 1

    def test_repeated_fig8_runs_are_byte_identical(self, tmp_path, capsys):
        outputs = set()
        for k in range(3):
            assert main(["preset", "fig8", "--count", "5",
                         "--out", str(tmp_path / str(k))]) == 0
            outputs.add((tmp_path / str(k) / "scenarios.csv").read_bytes())
        assert len(outputs) == 1


def _choices(parser):
    """The subcommand parsers of ``parser``, by name."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


class TestSolverFlags:
    """Each solver subcommand offers ``--out`` and the flags it reads."""

    READS = {
        "solve-offline": {"--scenario", "--tol", "--max-sweeps"},
        "solve-data": {"--scenario", "--tol", "--max-sweeps",
                       "--violation-tol"},
        "online-dp": {"--scenario", "--grid", "--tables"},
        "naive": {"--scenario"},
        "distributed": {"--scenario"},
        "oracle": {"--scenario", "--grid"},
        "preset-fig7": {"--tol", "--max-sweeps"},
        "preset-fig8": {"--seed", "--count", "--jobs", "--tol",
                        "--max-sweeps"},
    }

    def test_option_strings_match_the_table(self):
        commands = _choices(cli._build_parser())
        figures = _choices(commands["preset"])
        assert set(commands) == {"gen-scenario", "preset"} | {
            s for s in self.READS if not s.startswith("preset-")}
        assert {f"preset-{name}" for name in figures} == {
            s for s in self.READS if s.startswith("preset-")}
        assert {s: set(f) for s, f in cli.SOLVER_FLAGS.items()} == self.READS
        for solver, flags in cli.SOLVER_FLAGS.items():
            name = solver.removeprefix("preset-")
            sp = commands[name] if name == solver else figures[name]
            offered = {s for a in sp._actions for s in a.option_strings}
            assert offered - {"-h", "--help"} == {"--out", *flags}
        assert sum(1 + len(f) for f in self.READS.values()) == 29


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

    def test_data_infeasible_instance_is_2(self, tmp_path, capsys):
        # slot 1 must spend its 5 units to make room for slot 2's, which
        # sends (1/2)ln 6 = 0.896 nats of the 0.1 that have arrived
        doc = {"tau": 1.0, "N": 2,
               "users": [{"E": [5.0, 5.0], "Emax": 5.0, "B": [0.1, 0.1]},
                         {"E": [0.0, 0.0], "Emax": 5.0, "B": "infinite"}],
               "channel": {"a": 0.5, "b": 2.0}}
        path = _write_scenario(tmp_path, doc)
        assert main(["solve-data", "--scenario", path,
                     "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidInputError"
        assert ("user 1's battery forces it to send at least 0.89588 nats "
                "through slot 1, and only 0.1 have arrived") in err["message"]
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
        ("online-dp", "--grid", "-1"),
        ("preset fig7", "--max-sweeps", "0"),
        ("preset fig8", "--tol", "inf"),
    ])
    def test_bad_solver_setting_is_2(self, tmp_path, capsys, command, flag,
                                     value):
        # the code that reads a setting rejects it, under its own name
        argv = command.split()
        if argv[0] != "preset":
            doc = DATA_SCEN if command == "solve-data" else SCEN
            argv += ["--scenario", _write_scenario(tmp_path, doc)]
        assert main(argv + [flag, value, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        name = flag.lstrip("-").replace("-", "_")
        assert err["error"] == "InvalidInputError" and name in err["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("preset fig7", "--scenario", "f.json"),
        ("solve-offline", "--seed", "9"),
        ("naive", "--grid", "0.5"),
        ("online-dp", "--tol", "nan"),
        ("preset fig8", "--grid", "0.5"),
    ])
    def test_unread_flag_is_2(self, tmp_path, capsys, command, flag, value):
        argv = command.split()
        if argv[0] != "preset":
            argv += ["--scenario", _write_scenario(tmp_path, SCEN)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["solve-offline", "solve-data",
                                         "online-dp", "naive", "distributed",
                                         "oracle"])
    def test_channel_without_known_sum_capacity_is_2(self, tmp_path, capsys,
                                                      command):
        # a = b = 0.5 lies outside the three regions with a known sum
        # capacity; the generator accepts it, every solver refuses it
        scen_path = str(tmp_path / "weak.json")
        assert main(["gen-scenario", "--n", "8", "--seed", "3", "--a", "0.5",
                     "--b", "0.5", "--out", scen_path]) == 0
        capsys.readouterr()
        argv = [command, "--scenario", scen_path]
        if command in ("online-dp", "oracle"):
            argv += ["--grid", "0.5"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidInputError"
        assert "no known sum capacity" in err["message"]
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

    @pytest.mark.parametrize("grid", ["1e-300", "1e-320", "0.002"])
    def test_online_dp_refuses_tables_past_the_budget(self, tmp_path, capsys,
                                                      grid):
        # 8 slots at Emax 10: 1e-300 and 1e-320 (whose 10 / grid overflows)
        # are the lattices that used to end in a traceback, and 0.002
        # needs 5001^2 levels, 5.0e9 bytes of tables
        scen_path = str(tmp_path / "n8.json")
        assert main(["gen-scenario", "--n", "8", "--seed", "3",
                     "--out", scen_path]) == 0
        capsys.readouterr()
        assert main(["online-dp", "--scenario", scen_path, "--grid", grid,
                     "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "OracleSizeError"
        assert not (tmp_path / "x").exists()

    def test_online_dp_budget_admits_fig7(self):
        # the default grid and --grid 0.5 on fig7: 201 and 21 levels
        for step, points in ((0.05, 201), (0.5, 21)):
            grid = online.battery_grid(fig7_scenario(), step)
            assert len(grid.e1) == len(grid.e2) == points
            assert grid.e1[-1] == 10.0

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["--emax", "--mean-interarrival"])
    def test_bad_generator_parameter_is_2(self, tmp_path, capsys, flag,
                                          value):
        out = tmp_path / "gen.json"
        assert main(["gen-scenario", flag, value, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InvalidInputError"
        assert not out.exists()

    def test_gen_scenario_writes_file(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(["gen-scenario", "--n", "4", "--seed", "9",
                     "--out", str(out)]) == 0
        scen, _ = scenario_from_dict(json.loads(out.read_text()))
        assert scen.grid.N == 4
