"""Repeat a perfbench workload over several seeds and write BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench.py --workload fig8_batch --seeds 1 2 3 --seconds 30 \
        --label change [--baseline DIR]

Each seed is one run of ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0``, whose last line of standard output is a JSON
record with its end-to-end metrics.  The file gives, for each metric, the
median, the quartiles and every sample, with the machine, nproc, the git
commit and the Python, numpy and scipy versions.  With ``--baseline`` the
runs alternate, seed by seed, between that checkout and this one, each side
first in every other pair, and the file also holds the baseline's metrics and, per metric, the pairs this
checkout wins (the direction of "better" comes from BENCHMARK.json).  A run
that exits non-zero or reports ``"correct": false`` stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT  # directory of BENCH_<label>.json


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> str:
    """Standard output of one untraced perfbench run in checkout ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {root} at seed {seed}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout


def last_record(stdout: str) -> dict:
    record = json.loads(stdout.strip().splitlines()[-1])
    if record.get("correct") is not True:
        raise SystemExit(f"perfbench reports an incorrect output: {record}")
    return record


def git_commit(root: Path):
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=40"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def spread(samples: list) -> dict:
    """Median, quartiles (inclusive method) and the samples themselves."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = samples[0]
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def collect(records: list) -> dict:
    """Per-metric spread over runs, with each run's ops and failures."""
    names = list(records[0]["metrics"])
    metrics = {name: dict(unit=records[0]["metrics"][name]["unit"],
                          **spread([r["metrics"][name]["value"]
                                    for r in records]))
               for name in names}
    return {"metrics": metrics,
            "attempted": [r["attempted"] for r in records],
            "failed": [r["failed"] for r in records]}


def pair_wins(change: dict, baseline: dict, better: dict) -> dict:
    wins = {}
    for name, m in change["metrics"].items():
        if name not in better or name not in baseline["metrics"]:
            continue
        sign = 1.0 if better[name] == "higher" else -1.0
        base = baseline["metrics"][name]["samples"]
        wins[name] = {"better": better[name], "pairs": len(base),
                      "wins": sum(sign * (c - b) > 0.0 for c, b in
                                  zip(m["samples"], base))}
    return wins


def main(argv=None, runner=run_perfbench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--label", required=True)
    parser.add_argument("--baseline", type=Path,
                        help="another checkout, run alternately with this one")
    args = parser.parse_args(argv)
    sides = [("baseline", args.baseline)] if args.baseline else []
    sides.append(("change", ROOT))
    records = {name: [] for name, _ in sides}
    for k, seed in enumerate(args.seeds):
        # each side runs first in every other pair
        for name, root in (sides if k % 2 == 0 else sides[::-1]):
            record = last_record(runner(root, args.workload, seed,
                                        args.seconds))
            records[name].append(record)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{metric} {v['value']:.6g}"
                for metric, v in record["metrics"].items()),
                flush=True)
    doc = {"label": args.label, "workload": args.workload,
           "seconds": args.seconds, "seeds": args.seeds,
           "environment": environment(), "commit": git_commit(ROOT)}
    doc.update(collect(records["change"]))
    if args.baseline:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        doc["baseline"] = {"commit": git_commit(args.baseline),
                           "root": str(args.baseline),
                           **collect(records["baseline"])}
        doc["pair_wins"] = pair_wins(doc, doc["baseline"], better)
    out = OUT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
