"""Workload definitions: scenario pools, seeded subsets and the CLI ops.

Every workload draws from a fixed pool of units whose infinite-backlog
offline optimum is recorded in ``references.json``.  A unit is one input the
program is run on: a block of five fig8 seeds, or one scenario file.  The
pool is cut into strata of units with the same family and the same outcome
at the commit the references were taken at (see ``make_strata``); the run
seed picks one unit of each stratum.  Two seeds therefore run different
scenarios with nearly the same cost profile and the same number of known
failures, which keeps the seed-to-seed spread small.

Scenario files are generated here, not by the program, so that a change to
the program's own generator cannot change the inputs.  The generator is the
same algorithm as ``ehic gen-scenario``: exponential interarrival times
quantized to slots, amounts uniform on [0, Emax].
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

WORKLOADS = ("fig8_batch", "data_arrivals", "lattice_dp")

FIG8_BLOCK = 5
FIG8_POOL = 80          # fig8 seeds 0..79, in blocks of FIG8_BLOCK
DATA_POOL = 2           # data_arrivals scenario seeds 0..1 per family (N=50)
# largest cost ratio of two units that share a stratum; None puts each
# (family, outcome) group in one stratum (lattice_dp costs are all alike).
# data_arrivals pairs nothing: its four units (1.5-2.2 s) run on every seed
PAIR_RATIO = {"fig8_batch": 1.25, "data_arrivals": 1.0, "lattice_dp": None}
DP_GRID = "0.5"
FIG7_E = ([5, 0, 0, 0, 3, 0, 0, 0, 0, 0, 7, 0, 0, 0, 4, 0, 0, 0, 6, 0],
          [10, 0, 7, 0, 0, 0, 0, 0, 9, 0, 0, 5, 0, 8, 0, 5, 0, 0, 0, 0])
FIG7_CHANNEL = (0.9, 2.0)

# the two asymmetric channel families: a*b > 1 (interfered user-2 block) and
# a*b <= 1 (min-form kernel with a kink at p_c), which fig8 never reaches
FAMILIES = {"ab_gt1": (0.7, 5.0), "ab_le1": (0.5, 1.5)}


def pool_units(workload: str) -> list:
    """The full pool of a workload, in pool order (unit specs only)."""
    if workload == "fig8_batch":
        return [{"id": f"fig8-{s:03d}", "kind": "fig8", "start": s,
                 "count": FIG8_BLOCK, "family": "fig8"}
                for s in range(0, FIG8_POOL, FIG8_BLOCK)]
    if workload == "data_arrivals":
        return [{"id": f"data-{fam}-n50-s{s}", "kind": "generated",
                 "n": 50, "seed": s, "family": fam, "data": True}
                for fam in FAMILIES for s in range(DATA_POOL)]
    if workload == "lattice_dp":
        units = [{"id": "fig7", "kind": "fig7", "family": "fig7"}]
        units += [{"id": f"{fam}-n20-s{s}", "kind": "generated", "n": 20,
                   "seed": s, "family": fam, "data": False}
                  for fam in FAMILIES for s in range(16)]
        return units
    raise ValueError(f"unknown workload {workload}")


def scenario_doc(unit: dict) -> dict:
    """Scenario file document of a generated or fig7 unit."""
    if unit["kind"] == "fig7":
        users = [{"E": [float(x) for x in e], "Emax": 10.0, "B": "infinite"}
                 for e in FIG7_E]
        a, b = FIG7_CHANNEL
        return {"tau": 1.0, "N": len(FIG7_E[0]), "users": users,
                "channel": {"a": a, "b": b}}
    n, seed = unit["n"], unit["seed"]
    a, b = FAMILIES[unit["family"]]
    energy = harvest_arrivals(n, 10.0, 5.0, seed)
    if unit["data"]:
        import numpy as np
        data = np.random.default_rng(seed).uniform(0.0, 0.6, (2, n))
        b_docs = [[float(x) for x in row] for row in data]
    else:
        b_docs = ["infinite", "infinite"]
    users = [{"E": [float(x) for x in energy[j]], "Emax": 10.0,
              "B": b_docs[j]} for j in range(2)]
    return {"tau": 1.0, "N": n, "users": users, "channel": {"a": a, "b": b}}


# four-slot instances on which every op kind runs once during set-up, so
# lazy imports and first-call costs stay out of the timing; between them
# they reach every layer (both utility families, penalty rounds, SLSQP)
WARMUP_DOCS = {
    "data": {"tau": 1.0, "N": 4,
             "users": [{"E": [3.0, 0.0, 2.0, 1.0], "Emax": 4.0,
                        "B": [0.2, 0.2, 0.2, 0.2]},
                       {"E": [2.0, 1.0, 0.0, 2.0], "Emax": 4.0,
                        "B": [0.2, 0.2, 0.2, 0.2]}],
             "channel": {"a": 0.7, "b": 5.0}},
    "ab_le1": {"tau": 1.0, "N": 4,
               "users": [{"E": [3.0, 0.0, 2.0, 1.0], "Emax": 4.0,
                          "B": "infinite"},
                         {"E": [2.0, 1.0, 0.0, 2.0], "Emax": 4.0,
                          "B": "infinite"}],
               "channel": {"a": 0.5, "b": 1.5}},
}


def warmup_ops(scen_dir) -> list:
    """Argument lists of the warm-up ops on the ``WARMUP_DOCS`` files."""
    data = str(Path(scen_dir) / "warmup-data.json")
    le1 = str(Path(scen_dir) / "warmup-ab_le1.json")
    return [["solve-offline", "--scenario", le1],
            ["solve-data", "--scenario", data],
            ["online-dp", "--scenario", data, "--grid", DP_GRID],
            ["oracle", "--scenario", le1, "--grid", DP_GRID],
            ["preset", "fig8", "--count", "1", "--jobs", "2"]]


def harvest_arrivals(n: int, emax: float, mean_interarrival: float,
                     seed: int):
    """Per-user energy arrivals (2, n), tau = 1, as ``ehic gen-scenario``."""
    import numpy as np
    rng = np.random.default_rng(seed)
    out = np.zeros((2, n))
    for j in range(2):
        t = rng.exponential(mean_interarrival)
        while t < n:
            out[j, int(t)] += rng.uniform(0.0, emax)
            t += rng.exponential(mean_interarrival)
    return out


def infinite_backlog(doc: dict) -> dict:
    """The same scenario with both data profiles set to infinite."""
    users = [dict(u, B="infinite") for u in doc["users"]]
    return dict(doc, users=users)


def unit_ops(unit: dict, scenario_path: str = None) -> list:
    """CLI argument lists of one unit, without ``--out``; (op name, argv)."""
    if unit["kind"] == "fig8":
        return [("fig8", ["preset", "fig8", "--seed", str(unit["start"]),
                          "--count", str(unit["count"]), "--jobs", "2"])]
    if unit.get("data"):
        return [("solve-data", ["solve-data", "--scenario", scenario_path])]
    return [("online-dp", ["online-dp", "--scenario", scenario_path,
                           "--grid", DP_GRID]),
            ("oracle", ["oracle", "--scenario", scenario_path,
                        "--grid", DP_GRID])]


def make_strata(units: list, ratio) -> list:
    """Strata of unit ids: same family and outcome, similar recorded cost.

    ``units`` carry ``cost_s`` and ``failed_ops`` (how many of the unit's
    ops fail the check) from the reference run, so every seed attempts the
    same number of failing ops.  Within a (family, failed_ops) group, from
    the costliest unit down, a unit is paired with the next one when their
    costs differ by at most ``ratio``; a unit without such a partner is a
    stratum of its own and runs on every seed.  ``ratio=None`` keeps the
    whole group as one stratum.
    """
    groups = {}
    for u in units:
        groups.setdefault((u["family"], u["failed_ops"]), []).append(u)
    strata = []
    for key in sorted(groups, key=str):
        ranked = sorted(groups[key], key=lambda u: (-u["cost_s"], u["id"]))
        if ratio is None:
            strata.append([u["id"] for u in ranked])
            continue
        while ranked:
            top = ranked.pop(0)
            if ranked and top["cost_s"] <= ratio * ranked[0]["cost_s"]:
                strata.append([top["id"], ranked.pop(0)["id"]])
            else:
                strata.append([top["id"]])
    return strata


def select_units(workload: str, seed: int, refs: dict) -> list:
    """The run's units for a seed: one per stratum, in a seeded order."""
    entry = refs["workloads"][workload]
    by_id = {u["id"]: u for u in entry["units"]}
    rng = random.Random(seed)
    chosen = [by_id[rng.choice(stratum)] for stratum in entry["strata"]]
    rng.shuffle(chosen)
    return chosen


def expected_pass_cost(entry: dict) -> float:
    """Recorded cost of a pass, averaged over the seeds: the sum over strata
    of the mean cost of the stratum's units."""
    cost = {u["id"]: u["cost_s"] for u in entry["units"]}
    return sum(sum(cost[i] for i in stratum) / len(stratum)
               for stratum in entry["strata"])


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
