"""``tools/bench.py`` on canned perfbench output: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench",
                                                  ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _output(rate, p50, correct=True):
    """What perfbench/run.py prints: readable lines, then one JSON line."""
    record = {"correct": correct, "attempted": 40, "failed": 0,
              "metrics": {"scenarios_per_s": {"value": rate, "unit": "1/s"},
                          "op_p50_s": {"value": p50, "unit": "s"}}}
    return f"scenarios_per_s  {rate} 1/s\nop_p50_s  {p50} s\n" + \
        json.dumps(record) + "\n"


def _runner(table, calls):
    """Canned output per checkout: the baseline's directory name, or
    "change" for the checkout the tool lives in."""
    def run(root, workload, seed, seconds):
        side = "change" if Path(root) == ROOT else Path(root).name
        calls.append((side, workload, seed, seconds))
        return _output(*table[side][seed])
    return run


@pytest.fixture
def out(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return tmp_path


def test_writes_median_quartiles_and_samples(bench, out):
    calls = []
    table = {"change": {1: (100.0, 0.05), 2: (110.0, 0.04), 3: (90.0, 0.06),
                        4: (120.0, 0.03), 5: (105.0, 0.05)}}
    assert bench.main(["--workload", "fig8_batch", "--seeds", "1", "2", "3",
                       "4", "5", "--seconds", "3", "--label", "x"],
                      runner=_runner(table, calls)) == 0
    assert calls == [("change", "fig8_batch", s, 3.0) for s in range(1, 6)]
    doc = json.loads((out / "BENCH_x.json").read_text())
    rate = doc["metrics"]["scenarios_per_s"]
    assert rate["samples"] == [100.0, 110.0, 90.0, 120.0, 105.0]
    assert (rate["q1"], rate["median"], rate["q3"]) == (100.0, 105.0, 110.0)
    assert rate["unit"] == "1/s"
    assert doc["metrics"]["op_p50_s"]["median"] == 0.05
    assert doc["seeds"] == [1, 2, 3, 4, 5] and doc["label"] == "x"
    assert set(doc["environment"]) >= {"machine", "nproc", "python",
                                       "numpy", "scipy"}
    assert "commit" in doc and "baseline" not in doc


def test_baseline_alternates_and_counts_wins(bench, out):
    calls = []
    # the directions of "better" come from the repository's BENCHMARK.json
    table = {"change": {1: (110.0, 0.04), 2: (95.0, 0.05)},
             "old": {1: (100.0, 0.05), 2: (100.0, 0.05)}}
    bench.main(["--workload", "w", "--seeds", "1", "2", "--label", "pair",
                "--baseline", str(out / "old")],
               runner=_runner(table, calls))
    assert [c[:3] for c in calls] == [("old", "w", 1), ("change", "w", 1),
                                      ("change", "w", 2), ("old", "w", 2)]
    doc = json.loads((out / "BENCH_pair.json").read_text())
    assert doc["baseline"]["metrics"]["scenarios_per_s"]["samples"] == \
        [100.0, 100.0]
    assert doc["pair_wins"]["scenarios_per_s"] == {
        "better": "higher", "pairs": 2, "wins": 1}
    assert doc["pair_wins"]["op_p50_s"]["wins"] == 1


def test_incorrect_run_stops(bench, out):
    def run(root, workload, seed, seconds):
        return _output(100.0, 0.05, correct=False)

    with pytest.raises(SystemExit):
        bench.main(["--workload", "w", "--seeds", "1", "--label", "bad"],
                   runner=run)
    assert not (out / "BENCH_bad.json").exists()
