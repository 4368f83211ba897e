"""Record the reference objectives and pool strata in ``references.json``.

Run once, from the root of a checkout, at the commit whose results are the
references:

    python3 perfbench/make_references.py [workload ...]

For every pool unit it records the infinite-backlog offline optimum
(``solve-offline`` on the scenario with data arrivals removed; for fig8
blocks, the per-seed ``bits_iterative`` of ``preset fig8 --jobs 1``), runs
the unit's ops three times to record their median cost and whether they
pass the output check, and cuts the pool into strata
(``workloads.make_strata``).  The timed benchmark never recomputes any of
this.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

COST_REPEATS = 3        # a unit's cost is the median of this many runs


def _solve(cli, args, out: Path):
    rc, err = run.call_cli(cli, args + ["--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"reference run {args} exited {rc}: {err}")


def record_unit(cli, unit: dict, tmp: Path) -> dict:
    entry = dict(unit)
    doc = path = None
    if unit["kind"] == "fig8":
        out = tmp / "ref"
        _solve(cli, ["preset", "fig8", "--seed", str(unit["start"]),
                     "--count", str(unit["count"]), "--jobs", "1"], out)
        with open(out / "scenarios.csv", newline="") as fh:
            entry["reference_bits"] = [float(r["bits_iterative"])
                                       for r in csv.DictReader(fh)]
    else:
        doc = workloads.scenario_doc(unit)
        path = tmp / f"{unit['id']}.json"
        ref_path = tmp / "backlog.json"
        path.write_text(json.dumps(doc))
        ref_path.write_text(json.dumps(workloads.infinite_backlog(doc)))
        _solve(cli, ["solve-offline", "--scenario", str(ref_path)],
               tmp / "ref")
        with open(tmp / "ref" / "summary.json") as fh:
            entry["reference_nats"] = json.load(fh)["objective_nats"]
    costs, failed = [], set()
    for _ in range(COST_REPEATS):
        cost = 0.0
        for k, (name, argv) in enumerate(workloads.unit_ops(unit, str(path))):
            out = tmp / f"op{k}"
            t0 = time.perf_counter()
            rc, _err = run.call_cli(cli, argv + ["--out", str(out)])
            cost += time.perf_counter() - t0
            if not run.check_op(unit, doc, name, rc, out, entry).ok:
                failed.add(name)
        costs.append(cost)
    entry["cost_s"] = round(statistics.median(costs), 3)
    entry["failed_ops"] = len(failed)
    return entry


def main(argv) -> int:
    """Record every workload, or only those named on the command line."""
    cli = run.import_ehic()
    names = argv or list(workloads.WORKLOADS)
    doc = {"workloads": {}}
    if argv:
        doc = workloads.load_references()
        doc["workloads"] = {k: v for k, v in doc["workloads"].items()
                            if k in workloads.WORKLOADS}
    doc.update(command="python3 perfbench/make_references.py",
               env=run.environment())
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in names:
            units = []
            for unit in workloads.pool_units(workload):
                entry = record_unit(cli, unit, Path(tmp))
                print(workload, entry["id"], entry["cost_s"], entry["failed_ops"],
                      flush=True)
                units.append(entry)
            doc["workloads"][workload] = {
                "units": units, "strata": workloads.make_strata(
                    units, workloads.PAIR_RATIO[workload])}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
