"""Command-line front end: scenario generation, solver runs, presets.

Subcommands
-----------
gen-scenario   draw a random scenario (uniform amounts, exponential
               interarrival times quantized to slots) and write it as JSON
solve-offline  two-user iterative water-filling (infinite backlog)
solve-data     penalty-method solve with data-causality constraints
online-dp      finite-horizon DP on discretized battery states
naive          constant-power baseline
distributed    per-user single-link water-filling: each user's taut string
oracle         brute-force quantized search (small instances only)
preset         canned experiments: fig7 (deterministic 20-slot instance),
               fig8 (seeded batch comparing iterative/distributed/naive)

Each subcommand takes only the flags it reads (``SOLVER_FLAGS``).  Each run
writes ``policy.csv`` (slot, p1, p2, water_level_1, water_level_2,
cumulative_bits) and ``summary.json`` into --out.  Outputs are byte-identical
for identical settings; only gen-scenario and preset fig8 read a seed.  Exit
status: 0 on success, 2 on validation errors, 3 on solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import data_causality, online, oracle
from .errors import (ConvergenceError, InfeasiblePolicyError,
                     InvalidInputError, InvalidUtilityError, OracleSizeError,
                     ShapeError)
from .iterative import (build_subproblem, iterate_offline,
                        iterate_offline_many, joint_objective)
from .model import (DataProfile, HarvestProfile, Scenario, TimeGrid, User,
                    cumulative_departure, feasibility_report,
                    scenario_from_dict, validate_scenario)
from .rates import ChannelParams, build_rate_model
from .single_user import verify_kkt

LN2 = math.log(2.0)

FIG7_E1 = [5, 0, 0, 0, 3, 0, 0, 0, 0, 0, 7, 0, 0, 0, 4, 0, 0, 0, 6, 0]
FIG7_E2 = [10, 0, 7, 0, 0, 0, 0, 0, 9, 0, 0, 5, 0, 8, 0, 5, 0, 0, 0, 0]
FIG7_CHANNEL = (0.9, 2.0)
FIG7_EMAX = 10.0
FIG8_CHANNEL = (0.7, 5.0)
FIG8_EMAX = 10.0
FIG8_MEAN_INTERARRIVAL = 5.0
FIG8_SLOTS = 20


@dataclass(frozen=True)
class ExperimentConfig:
    solver: str
    scenario_path: Optional[str] = None
    out_dir: str = "out"
    seed: int = 0
    tol: float = 1e-7
    max_sweeps: int = 200
    grid_step: float = 0.05
    violation_tol: float = 1e-4
    preset_count: int = 100
    jobs: int = 1
    write_tables: bool = False


def gen_scenario(n: int, tau: float, emax: float, mean_interarrival: float,
                 seed: int, a: float, b: float) -> Scenario:
    """Random scenario: exponential interarrival times quantized to slots,
    amounts uniform on [0, E_max]; deterministic per seed."""
    if n < 1 or not all(math.isfinite(v) and v > 0.0
                        for v in (tau, emax, mean_interarrival)):
        raise InvalidInputError(
            "generator parameters must be positive and finite")
    rng = np.random.default_rng(seed)
    users = []
    for _ in range(2):
        e = np.zeros(n)
        t = rng.exponential(mean_interarrival)
        while t < n * tau:
            e[int(t // tau)] += rng.uniform(0.0, emax)
            t += rng.exponential(mean_interarrival)
        users.append(User(HarvestProfile(e, float(emax)),
                          DataProfile.infinite()))
    scen = Scenario(TimeGrid(n, tau), tuple(users), ChannelParams(a, b))
    return validate_scenario(scen)


def fig7_scenario() -> Scenario:
    users = tuple(
        User(HarvestProfile(np.array(e, dtype=float), FIG7_EMAX),
             DataProfile.infinite())
        for e in (FIG7_E1, FIG7_E2))
    return validate_scenario(
        Scenario(TimeGrid(len(FIG7_E1), 1.0), users,
                 ChannelParams(*FIG7_CHANNEL)))


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _policy_csv(policy, scenario, rate_model) -> str:
    lines = ["slot,p1,p2,water_level_1,water_level_2,cumulative_bits"]
    levels = []
    for user in range(2):
        utils = build_subproblem(scenario, rate_model, user, policy[1 - user])
        levels.append(utils.deriv(np.maximum(policy[user], 0.0)))
    bits = cumulative_departure(policy, rate_model, scenario.grid) / LN2
    for i in range(scenario.grid.N):
        lines.append(",".join([str(i + 1), _fmt(policy[0, i]),
                               _fmt(policy[1, i]), _fmt(levels[0][i]),
                               _fmt(levels[1][i]), _fmt(bits[i])]))
    return "\n".join(lines) + "\n"


def _feasibility_summary(policy, scenario, rate_model,
                         data_tol: float = 0.0) -> dict:
    tol = 1e-9 * max(u.harvest.capacity for u in scenario.users)
    rep = feasibility_report(policy, scenario, rate_model, tol=tol)
    feasible = (rep.energy_causality.magnitude <= tol
                and rep.battery_capacity.magnitude <= tol
                and rep.data_causality.magnitude <= max(tol, data_tol))
    return {
        "feasible": feasible,
        "worst_energy_causality": rep.energy_causality.magnitude,
        "worst_battery_capacity": rep.battery_capacity.magnitude,
        "worst_data_causality": rep.data_causality.magnitude,
    }


def _kkt_summary(policy, scenario, rate_model) -> dict:
    out = {}
    for user in range(2):
        utils = build_subproblem(scenario, rate_model, user, policy[1 - user])
        try:
            cert = verify_kkt(policy[user], utils,
                              scenario.users[user].harvest, scenario.grid)
            out[f"stationarity_user{user + 1}"] = cert.stationarity_residual
            out[f"complementarity_user{user + 1}"] = cert.complementarity_residual
        except InfeasiblePolicyError:
            out[f"stationarity_user{user + 1}"] = None
    return out


def _spend_overflow(row, harvest, tau):
    """Add to each slot what the battery would lose at the next arrival.

    Lattice policies never overspend the real battery, but a truncating
    rollout or arrivals snapped down to the lattice can let it overflow.
    The cumulative loss is the running maximum of the corridor floor's
    excess over the consumption; spending it one slot early meets the
    floor, only adds consumption and leaves later battery levels alone.
    """
    loss = np.maximum.accumulate(
        np.maximum(harvest.corridor.lower - tau * np.cumsum(row), 0.0))
    return row + np.diff(loss, prepend=0.0) / tau


def _rate_model_for(scenario: Scenario):
    pmax = scenario.peak_powers
    return build_rate_model(scenario.channel.a, scenario.channel.b,
                            pmax[0], pmax[1])


def _load_scenario(path: str):
    with open(path) as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured solver and emit policy.csv + summary.json."""
    out_dir = Path(config.out_dir)
    if config.solver == "preset-fig8":
        return _run_fig8(config, out_dir)

    if config.solver == "preset-fig7":
        scenario, info = fig7_scenario(), {}
    elif config.scenario_path is not None:
        scenario, info = _load_scenario(config.scenario_path)
    else:
        raise InvalidInputError(f"solver {config.solver} needs --scenario")
    rate_model = _rate_model_for(scenario)
    summary = {
        "solver": config.solver,
        "seed": config.seed,
        "config": {k: v for k, v in asdict(config).items() if v is not None},
        "region": rate_model.region.value,
        "mirrored": rate_model.mirrored,
        "normalization": info,
    }

    solver = config.solver
    if solver in ("solve-offline", "preset-fig7"):
        policy, report = iterate_offline(scenario, rate_model,
                                         max_sweeps=config.max_sweeps,
                                         tol=config.tol)
        summary.update(sweeps=report.sweeps_used,
                       start_steps=report.start_steps,
                       polish_steps=report.polish_steps,
                       certified_starts=report.certified_starts,
                       converged=report.converged,
                       final_displacement=report.displacement_trace[-1])
        summary.update(_kkt_summary(policy, scenario, rate_model))
        if not report.converged:
            raise ConvergenceError("iterative solve did not converge",
                                   best_policy=policy)
    elif solver == "solve-data":
        policy, report = data_causality.solve_with_data(
            scenario, rate_model, max_sweeps=config.max_sweeps,
            tol=config.tol, violation_tol=config.violation_tol)
        summary.update(rounds=report.rounds_used,
                       inner_failures=report.inner_failures,
                       inner_steps=report.inner_steps,
                       final_violation=report.final_violation,
                       converged=report.converged,
                       unusable_energy=report.unusable_energy.tolist())
    elif solver == "online-dp":
        grid = online.battery_grid(scenario, config.grid_step)
        stats = online.ArrivalDistribution.deterministic(scenario)
        result = online.value_iteration(stats, rate_model, grid,
                                        tau=scenario.grid.tau)
        policy, total = online.rollout_table(result, scenario, rate_model)
        summary.update(dp_value_at_start=total,
                       dp_table_value=online.table_value_at_start(result,
                                                                  scenario))
        if config.write_tables:
            online.export_tables_csv(result, out_dir / "tables.csv")
    elif solver == "naive":
        policy = online.naive_policy(scenario)
    elif solver == "distributed":
        policy = np.vstack([
            online.distributed_policy(scenario, user) for user in range(2)])
    elif solver == "oracle":
        opts_o = oracle.OracleOptions(power_grid_step=config.grid_step)
        policy, objective = oracle.brute_force(scenario, rate_model, opts_o)
        summary.update(oracle_objective_nats=objective)
    else:
        raise InvalidInputError(f"unknown solver {solver}")
    if (solver in ("online-dp", "oracle")
            and all(u.data.is_infinite for u in scenario.users)):
        # with data arrivals overflow is the waste the data-aware oracle
        # relies on, so only infinite-backlog rows are topped up
        policy = np.vstack([
            _spend_overflow(policy[j], scenario.users[j].harvest,
                            scenario.grid.tau) for j in range(2)])

    obj = joint_objective(policy, scenario, rate_model)
    data_tol = config.violation_tol if solver == "solve-data" else 0.0
    summary.update(objective_nats=obj, objective_bits=obj / LN2,
                   feasibility=_feasibility_summary(policy, scenario,
                                                    rate_model, data_tol))
    _atomic_write(out_dir / "policy.csv",
                  _policy_csv(policy, scenario, rate_model))
    _atomic_write(out_dir / "summary.json",
                  json.dumps(summary, sort_keys=True, indent=2,
                             default=float) + "\n")
    return summary


def _run_fig8(config: ExperimentConfig, out_dir: Path) -> dict:
    if config.preset_count < 1:
        raise InvalidInputError("fig8 needs --count of at least 1")
    if config.jobs < 1:
        raise InvalidInputError("--jobs must be at least 1")
    # all seeds share N, tau and channel, so their joint starts are one
    # batch; a seed's row is the same in any batch, and --jobs changes
    # nothing (it is kept for the command lines that pass it)
    seeds = [config.seed + i for i in range(config.preset_count)]
    scenarios = [gen_scenario(FIG8_SLOTS, 1.0, FIG8_EMAX,
                              FIG8_MEAN_INTERARRIVAL, s, *FIG8_CHANNEL)
                 for s in seeds]
    rate_models = [_rate_model_for(s) for s in scenarios]
    solved = iterate_offline_many(scenarios, rate_models,
                                  max_sweeps=config.max_sweeps, tol=config.tol)
    rows = []
    for seed, scenario, rate_model, (p_iter, report) in zip(
            seeds, scenarios, rate_models, solved):
        if not report.converged:
            raise ConvergenceError(
                f"fig8 seed {seed}: iterative solve did not converge",
                best_policy=p_iter)
        p_dist = np.vstack([online.distributed_policy(scenario, u)
                            for u in range(2)])
        p_naive = online.naive_policy(scenario)
        to_bits = lambda p: joint_objective(p, scenario, rate_model) / LN2
        # a converged alternation's last traced objective is
        # joint_objective of the policy it returns, bit for bit
        rows.append({"seed": seed,
                     "bits_iterative": report.objective_trace[-1] / LN2,
                     "bits_distributed": to_bits(p_dist),
                     "bits_naive": to_bits(p_naive)})
    lines = ["seed,bits_iterative,bits_distributed,bits_naive"]
    for row in rows:
        lines.append(",".join([str(row["seed"]), _fmt(row["bits_iterative"]),
                               _fmt(row["bits_distributed"]),
                               _fmt(row["bits_naive"])]))
    means = {k: float(np.mean([r[k] for r in rows]))
             for k in ("bits_iterative", "bits_distributed", "bits_naive")}
    summary = {
        "solver": "preset-fig8",
        "seed": config.seed,
        "count": config.preset_count,
        "channel": {"a": FIG8_CHANNEL[0], "b": FIG8_CHANNEL[1]},
        "mean_total_bits": means,
        "ordering_ok": bool(means["bits_iterative"] >= means["bits_distributed"]
                            >= means["bits_naive"]),
        "distributed_over_iterative":
            means["bits_distributed"] / means["bits_iterative"],
        "config": {k: v for k, v in asdict(config).items() if v is not None},
    }
    _atomic_write(out_dir / "scenarios.csv", "\n".join(lines) + "\n")
    _atomic_write(out_dir / "summary.json",
                  json.dumps(summary, sort_keys=True, indent=2,
                             default=float) + "\n")
    return summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# every flag a solver can read, as keywords of ``add_argument``; ``dest`` is
# the ExperimentConfig field it sets
_FLAGS = {
    "--scenario": dict(dest="scenario_path", metavar="FILE",
                       help="scenario JSON file"),
    "--tol": dict(type=float),
    "--max-sweeps": dict(type=int),
    "--violation-tol": dict(type=float),
    "--grid": dict(dest="grid_step", metavar="STEP", type=float,
                   help="power grid step (oracle) / battery resolution (DP)"),
    "--tables": dict(dest="write_tables", action="store_true",
                     help="also export policy/value tables"),
    "--seed": dict(type=int),
    "--count": dict(dest="preset_count", metavar="N", type=int,
                    help="number of seeded scenarios"),
    "--jobs": dict(type=int, help="accepted and validated; no effect"),
}

# the flags each solver reads besides --out; a flag that is not given
# keeps the ExperimentConfig default, and the code that reads a setting
# validates it
SOLVER_FLAGS = {
    "solve-offline": ("--scenario", "--tol", "--max-sweeps"),
    "solve-data": ("--scenario", "--tol", "--max-sweeps", "--violation-tol"),
    "online-dp": ("--scenario", "--grid", "--tables"),
    "naive": ("--scenario",),
    "distributed": ("--scenario",),
    "oracle": ("--scenario", "--grid"),
    "preset-fig7": ("--tol", "--max-sweeps"),
    "preset-fig8": ("--seed", "--count", "--jobs", "--tol", "--max-sweeps"),
}


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="ehic",
        description="Throughput-optimal schedules for two energy-harvesting "
                    "transmitters on an interference channel")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scenario", help="draw a random scenario")
    gen.add_argument("--n", type=int, default=20)
    gen.add_argument("--tau", type=float, default=1.0)
    gen.add_argument("--emax", type=float, default=10.0)
    gen.add_argument("--mean-interarrival", type=float, default=5.0)
    gen.add_argument("--a", type=float, default=FIG8_CHANNEL[0])
    gen.add_argument("--b", type=float, default=FIG8_CHANNEL[1])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="scenario.json",
                     help="output scenario file")

    # the preset-* solvers follow the others, as subcommands of ``preset``
    group = sub
    for solver, flags in SOLVER_FLAGS.items():
        name = solver.removeprefix("preset-")
        if name != solver and group is sub:
            group = sub.add_parser("preset", help="canned experiments") \
                .add_subparsers(dest="figure", required=True)
        sp = group.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.set_defaults(solver=solver)
        sp.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="output directory")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-scenario":
            scen = gen_scenario(args.n, args.tau, args.emax,
                                args.mean_interarrival, args.seed,
                                args.a, args.b)
            from .model import scenario_to_dict
            _atomic_write(Path(args.out),
                          json.dumps(scenario_to_dict(scen), sort_keys=True,
                                     indent=2) + "\n")
            print(f"wrote {args.out}")
            return 0
        names = {f.name for f in fields(ExperimentConfig)}
        summary = run_experiment(ExperimentConfig(
            **{k: v for k, v in vars(args).items() if k in names}))
        obj = summary.get("objective_nats",
                          summary.get("mean_total_bits"))
        print(f"{args.command}: done ({obj})")
        return 0
    except ConvergenceError as exc:
        _diagnostic(exc, 3)
        return 3
    except (InvalidInputError, ShapeError, OracleSizeError,
            InfeasiblePolicyError, InvalidUtilityError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        _diagnostic(exc, 2)
        return 2


def _diagnostic(exc, code):
    doc = {"error": type(exc).__name__, "message": str(exc),
           "exit_status": code}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
