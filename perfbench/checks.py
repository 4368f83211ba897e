"""Output checks for one op, independent of the program's own code.

Each check reads what the op wrote (``summary.json`` plus ``policy.csv`` or
``scenarios.csv``) and the scenario document it was given, recomputes the
objective from the written powers with its own rate formula, and compares
against the recorded reference.  A check returns an ``OpCheck``; it never
raises for a bad output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)
REL = 1e-9              # relative tolerance on objectives
POLICY_HEADER = ["slot", "p1", "p2", "water_level_1", "water_level_2",
                 "cumulative_bits"]


@dataclass
class OpCheck:
    """Verdict for one op.

    ``problems`` lists every failed condition.  ``silent`` marks a wrong
    answer the program did not flag itself (exit 0 and a summary that claims
    a feasible result).  ``gaps`` holds (reference - achieved) / reference
    per scenario with an output, ``passed`` the scenarios that passed.
    """

    problems: list = field(default_factory=list)
    silent: bool = False
    gaps: list = field(default_factory=list)
    passed: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def sum_rate(p1, p2, a: float, b: float):
    """Sum rate in nats for the asymmetric regions a <= 1 <= b."""
    if not a <= 1.0 <= b:
        raise ValueError("checker covers the asymmetric regions only")
    tin = 0.5 * np.log1p(p1 / (1.0 + a * p2)) + 0.5 * np.log1p(p2)
    if a * b > 1.0:
        return tin
    return np.minimum(tin, 0.5 * np.log1p(b * p1 + p2))


def user_rates(p1, p2, a: float, b: float):
    if a * b > 1.0:
        r1 = 0.5 * np.log1p(p1 / (1.0 + a * p2))
    else:
        r1 = np.minimum(0.5 * np.log1p(p1 / (1.0 + a * p2)),
                        0.5 * np.log1p(b * p1 / (1.0 + p2)))
    return r1, 0.5 * np.log1p(p2)


def _close(x: float, y: float, rel: float = REL) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _read_json(path: Path, check: OpCheck):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        check.problems.append(f"{path.name}: {exc}")
        return None


def check_policy_op(kind: str, rc: int, out_dir: Path, doc: dict,
                    reference: float, tol: float = 1e-7,
                    violation_tol: float = 1e-4) -> OpCheck:
    """Check a solve-offline, solve-data, online-dp or oracle op."""
    check = OpCheck()
    if rc != 0:
        check.problems.append(f"exit status {rc}")
        return check
    summary = _read_json(out_dir / "summary.json", check)
    if summary is None:
        return check
    claimed = bool(summary.get("feasibility", {}).get("feasible"))
    if not claimed:
        check.problems.append("summary says the policy is infeasible")
    try:
        obj = float(summary["objective_nats"])
        p, cum_bits = _read_policy(out_dir / "policy.csv", doc["N"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        check.problems.append(f"unreadable output: {exc}")
        check.silent = claimed
        return check
    a, b = doc["channel"]["a"], doc["channel"]["b"]
    tau = float(doc["tau"])
    slot_nats = tau * sum_rate(p[0], p[1], a, b)
    recomputed = float(np.sum(slot_nats))
    if not _close(recomputed, obj):
        check.problems.append(
            f"objective {obj!r} != {recomputed!r} recomputed from policy.csv")
    if not np.allclose(cum_bits, np.cumsum(slot_nats) / LN2,
                       rtol=REL, atol=REL):
        check.problems.append("cumulative_bits do not match the powers")
    check.problems += _corridor_problems(p, doc, tau)
    if kind == "solve-offline":
        for key in ("stationarity_user1", "stationarity_user2",
                    "complementarity_user1", "complementarity_user2"):
            value = summary.get(key)
            if value is None or not value <= tol:
                check.problems.append(f"{key} = {value} above tol {tol}")
        if not _close(obj, reference):
            check.problems.append(
                f"objective {obj!r} != reference {reference!r}")
    elif obj > reference + REL * max(1.0, reference):
        check.problems.append(
            f"objective {obj!r} above the offline optimum {reference!r}")
    if kind == "solve-data":
        check.problems += _data_problems(p, doc, tau, violation_tol)
    check.gaps.append((reference - obj) / reference)
    check.silent = claimed and bool(check.problems)
    check.passed = int(check.ok)
    return check


def _read_policy(path: Path, n: int):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != POLICY_HEADER:
        raise ValueError(f"policy.csv header {rows[0]}")
    body = np.array([[float(x) for x in r] for r in rows[1:]])
    if body.shape != (n, len(POLICY_HEADER)):
        raise ValueError(f"policy.csv has shape {body.shape}")
    if not np.array_equal(body[:, 0], np.arange(1, n + 1)):
        raise ValueError("policy.csv slots are not 1..N")
    if not np.all(np.isfinite(body)):
        raise ValueError("policy.csv holds non-finite values")
    return body[:, 1:3].T, body[:, 5]


def _corridor_problems(p, doc, tau) -> list:
    """Energy causality, battery capacity and p >= 0, as the CLI states them."""
    problems = []
    caps = [float(u["Emax"]) for u in doc["users"]]
    tol = 1e-9 * max(caps)
    for j, user in enumerate(doc["users"]):
        cum_e = np.cumsum(np.minimum(np.asarray(user["E"], float), caps[j]))
        s = tau * np.cumsum(p[j])
        if np.min(p[j]) < -tol:
            problems.append(f"user {j + 1}: negative power")
        if np.max(s - cum_e) > tol:
            problems.append(f"user {j + 1}: spends energy before it arrives")
        if len(s) > 1 and np.max(cum_e[1:] - caps[j] - s[:-1]) > tol:
            problems.append(f"user {j + 1}: battery overflows")
    return problems


def _data_problems(p, doc, tau, violation_tol) -> list:
    a, b = doc["channel"]["a"], doc["channel"]["b"]
    rates = user_rates(p[0], p[1], a, b)
    problems = []
    for j, user in enumerate(doc["users"]):
        if user["B"] == "infinite":
            continue
        excess = np.cumsum(tau * rates[j]) - np.cumsum(user["B"])
        if np.max(excess) > violation_tol:
            problems.append(f"user {j + 1}: sends {np.max(excess):.3g} "
                            "nats it does not have")
    return problems


def check_fig8_op(rc: int, out_dir: Path, start: int, count: int,
                  reference_bits: list) -> OpCheck:
    """Check a ``preset fig8`` block against per-seed reference bits."""
    check = OpCheck()
    if rc != 0:
        check.problems.append(f"exit status {rc}")
        return check
    summary = _read_json(out_dir / "summary.json", check)
    if summary is None:
        return check
    try:
        with open(out_dir / "scenarios.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        seeds = [int(r["seed"]) for r in rows]
        bits = {k: np.array([float(r[k]) for r in rows])
                for k in ("bits_iterative", "bits_distributed", "bits_naive")}
        means = summary["mean_total_bits"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        check.problems.append(f"unreadable output: {exc}")
        check.silent = True
        return check
    if seeds != list(range(start, start + count)):
        check.problems.append(f"scenarios.csv seeds {seeds}")
        check.silent = True
        return check
    consistent = all(_close(float(np.mean(v)), float(means[k]), 1e-12)
                     for k, v in bits.items())
    if not consistent:
        check.problems.append("summary mean_total_bits != scenarios.csv")
    for i, ref in enumerate(reference_bits):
        it = bits["bits_iterative"][i]
        seed_ok = _close(it, ref)
        if not seed_ok:
            check.problems.append(f"seed {start + i}: bits_iterative {it!r} "
                                  f"!= reference {ref!r}")
        for other in ("bits_distributed", "bits_naive"):
            if it < bits[other][i] - REL * max(1.0, abs(it)):
                seed_ok = False
                check.problems.append(f"seed {start + i}: bits_iterative "
                                      f"below {other}")
        check.gaps.append((ref - it) / ref)
        check.passed += int(seed_ok and consistent)
    check.silent = bool(check.problems)
    return check
