"""Self-tests of the benchmark: output checks, computed counts, span times."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"tau": 1.0, "N": 6,
        "users": [{"E": [3.0, 0.0, 1.5, 0.0, 2.0, 0.0], "Emax": 4.0,
                   "B": "infinite"},
                  {"E": [4.0, 0.0, 0.0, 2.5, 0.0, 1.0], "Emax": 4.0,
                   "B": "infinite"}],
        "channel": {"a": 0.7, "b": 5.0}}


@pytest.fixture(scope="module")
def cli():
    return run.import_ehic()


def _solve_tiny(cli, tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    rc, err = run.call_cli(cli, ["solve-offline", "--scenario", str(path),
                                 "--out", str(out)])
    assert rc == 0, err
    summary = json.loads((out / "summary.json").read_text())
    return out, summary["objective_nats"]


def test_check_accepts_untouched_output(cli, tmp_path):
    out, ref = _solve_tiny(cli, tmp_path)
    assert checks.check_policy_op("solve-offline", 0, out, TINY, ref).ok


def test_check_flags_tampered_policy_csv(cli, tmp_path):
    out, ref = _solve_tiny(cli, tmp_path)
    path = out / "policy.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * 0.9)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    chk = checks.check_policy_op("solve-offline", 0, out, TINY, ref)
    assert not chk.ok and chk.silent


def test_check_flags_tampered_summary(cli, tmp_path):
    out, ref = _solve_tiny(cli, tmp_path)
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    summary["objective_nats"] += 1e-3
    path.write_text(json.dumps(summary))
    chk = checks.check_policy_op("solve-offline", 0, out, TINY, ref)
    assert not chk.ok and chk.silent


def test_check_flags_wrong_reference_and_exit(cli, tmp_path):
    out, ref = _solve_tiny(cli, tmp_path)
    assert not checks.check_policy_op("solve-offline", 0, out, TINY,
                                      ref * 1.01).ok
    assert not checks.check_policy_op("oracle", 0, out, TINY, ref * 0.99).ok
    failed = checks.check_policy_op("solve-offline", 3, out, TINY, ref)
    assert not failed.ok and not failed.silent


def test_check_flags_tampered_fig8(cli, tmp_path):
    out = tmp_path / "fig8"
    rc, err = run.call_cli(cli, ["preset", "fig8", "--seed", "3", "--count",
                                 "2", "--out", str(out)])
    assert rc == 0, err
    path = out / "scenarios.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    ref = [float(r[1]) for r in rows[1:]]
    assert checks.check_fig8_op(0, out, 3, 2, ref).passed == 2
    rows[1][1] = repr(float(rows[1][1]) + 0.5)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    chk = checks.check_fig8_op(0, out, 3, 2, ref)
    assert not chk.ok and chk.silent and chk.passed == 0


def test_state_action_evals_matches_counted_evaluations(cli, monkeypatch):
    from ehic import online
    from ehic.rates import build_rate_model

    calls = []

    class Counting(online.RegularGridInterpolator):
        def __call__(self, xi, *args, **kwargs):
            calls.append(len(xi))
            return super().__call__(xi, *args, **kwargs)

    monkeypatch.setattr(online, "RegularGridInterpolator", Counting)
    law = (np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    stats = online.ArrivalDistribution(3, ((law,) * 3, (law,) * 3))
    grid = online.StateGrid(np.linspace(0.0, 2.0, 3), np.linspace(0.0, 2.0, 4))
    model = build_rate_model(0.7, 5.0, 2.0, 2.0)
    online.value_iteration(stats, model, grid, tau=1.0)
    # each interpolator call scores one (action, outcome) pair for every
    # state that can afford the action; the formula counts all states
    states = 3 * 4
    assert tracing.state_action_evals(stats, grid) == \
        3 * (3 * 4) ** 2 * 4 == len(calls) * states
    assert sum(calls) <= tracing.state_action_evals(stats, grid)


def test_oracle_transitions_match_the_oracle_estimate(cli):
    from ehic.errors import OracleSizeError
    from ehic.model import scenario_from_dict
    from ehic.oracle import OracleOptions, brute_force
    from ehic.rates import build_rate_model

    scen, _ = scenario_from_dict(TINY)
    opts = OracleOptions(power_grid_step=0.5, max_enumeration=1)
    with pytest.raises(OracleSizeError) as info:
        brute_force(scen, build_rate_model(0.7, 5.0, 4.0, 4.0), opts)
    assert info.value.size_estimate == tracing.oracle_transitions(scen, opts)
    assert tracing.oracle_transitions(scen, opts) == (9 * 9) ** 2 * 6


def test_self_time_on_nested_spans():
    spans = [["root", None, 0.0, 10.0, None, 0],
             ["a", None, 1.0, 4.0, 0, 0],
             ["b", None, 3.0, 6.0, 0, 0],      # overlaps a: another thread
             ["a.child", None, 2.0, 3.0, 1, 0],
             ["late", None, 8.0, 12.0, 0, 0]]   # runs past its parent's end
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_tracer_records_and_restores(cli, tmp_path):
    from ehic import iterative

    original = cli.iterate_offline
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_op(0)
        _solve_tiny(cli, tmp_path)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert cli.iterate_offline is original is iterative.iterate_offline
    m = tracing.layer_metrics(tracer)
    assert m["iterative.calls"] == 1
    assert m["single_user.solve_calls"] >= 2
    assert m["single_user.probes"] > 0
    assert 0.0 <= m["cli.self_s"] <= m["cli.run_s"]
    names = {name for name, _u, _b, _m in tracing.LAYER_METRICS}
    assert names - set(m) == {"trace.scenarios_per_s",
                              "trace.untraced_scenarios_per_s",
                              "trace.overhead_frac"}


def test_tail_has_ten_ops_beyond_it():
    times = [float(i) for i in range(1, 41)]
    value, label = run.tail(times)
    assert sum(t > value for t in times) == 10 and label.startswith("p75.0")
    assert run.tail(times[:19])[0] == (19.0 + 18.0 + 17.0 + 16.0 + 15.0) / 5
    assert run.tail(times[:4])[0] == 3.5


def test_op_times_take_the_median_over_passes():
    unit = {"id": "u"}
    records = [[unit, None, name, None, 0, "", dt, k]
               for k, (name, dt) in enumerate([("a", 1.0), ("b", 5.0),
                                               ("a", 3.0), ("b", 6.0),
                                               ("a", 2.0), ("b", 7.0)])]
    assert sorted(run.op_times(records)) == [2.0, 6.0]


def test_pass_count_depends_on_workload_and_seconds_only():
    refs = workloads.load_references()
    for name in workloads.WORKLOADS:
        cost = workloads.expected_pass_cost(refs["workloads"][name])
        assert run.pass_count(name, 3 * cost) == 3
        assert run.pass_count(name, 0.1 * cost) == 1
    entry = {"units": [{"id": "a", "cost_s": 1.0}, {"id": "b", "cost_s": 3.0},
                       {"id": "c", "cost_s": 0.5}],
             "strata": [["a", "b"], ["c"]]}
    assert workloads.expected_pass_cost(entry) == 2.5


def test_seeded_selection_takes_one_unit_per_stratum():
    refs = workloads.load_references()
    for name in workloads.WORKLOADS:
        strata = refs["workloads"][name]["strata"]
        chosen = workloads.select_units(name, 7, refs)
        assert chosen == workloads.select_units(name, 7, refs)
        ids = {u["id"] for u in chosen}
        assert all(len(ids & set(s)) == 1 for s in strata)


def test_strata_pair_similar_costs_within_a_group():
    rows = [("a", "x", 0, 3.0), ("b", "x", 0, 2.6),
            ("c", "x", 0, 1.0), ("d", "x", 0, 0.9),
            ("e", "x", 1, 2.5), ("f", "y", 0, 2.0)]
    units = [{"id": i, "family": f, "failed_ops": n, "cost_s": c}
             for i, f, n, c in rows]
    assert workloads.make_strata(units, 1.25) == [["a", "b"], ["c", "d"],
                                                  ["e"], ["f"]]
    assert workloads.make_strata(units, None) == [["a", "b", "c", "d"], ["e"],
                                                  ["f"]]


def test_generator_matches_the_cli_generator(cli):
    doc = workloads.scenario_doc({"kind": "generated", "n": 50, "seed": 4,
                                  "family": "ab_gt1", "data": False})
    scen = cli.gen_scenario(50, 1.0, 10.0, 5.0, 4, 0.7, 5.0)
    for j in range(2):
        assert np.array_equal(np.minimum(doc["users"][j]["E"], 10.0),
                              scen.users[j].harvest.arrivals)


def test_benchmark_json_lists_what_the_run_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(n, u, b) for n, u, b, _m in tracing.LAYER_METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_worker_thread_spans_nest_under_the_op_thread():
    import threading

    tracer = tracing.Tracer()
    tracer.start_op(0)
    outer = tracer.begin("outer")
    worker = threading.Thread(target=lambda: tracer.end(tracer.begin("inner")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(outer)
    tracer.end_op()
    assert [s[0] for s in tracer.spans] == ["op", "outer", "inner"]
    assert tracer.spans[1][4] == 0 and tracer.spans[2][4] == outer
