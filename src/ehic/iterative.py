"""Two-user block coordinate ascent on the joint throughput objective.

Each half-sweep fixes one user's power vector and re-solves the other user's
single-user problem, whose slot utilities are the joint rate restricted to
that user's power (constants in the fixed user's power are retained so the
per-sweep objectives are directly comparable).  For a jointly concave rate
the alternation converges to the optimum; sweeps run user 1 then user 2 and
stop when both the objective improvement and the policy displacement fall
below tolerance.

A proximal displacement penalty (epsilon > 0) is available for kernels whose
block optima are non-unique; the default relies on strict concavity of the
slot utilities plus the deterministic consume-late tie-break in the
single-user solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ShapeError
from .model import Scenario, energy_bounds, validate_scenario
from .rates import RateModel, Region
from .single_user import (GenericSlotUtilities, InterferedUtilities,
                          PiecewiseMinUtilities, ProximalUtilities,
                          ScaledLogUtilities, SlotUtilities, solve_single_user)


@dataclass(frozen=True)
class IterativeOptions:
    max_sweeps: int = 200
    objective_tol: float = 1e-9        # relative improvement per sweep
    displacement_tol: float = 1e-7     # max-norm policy change per sweep
    proximal_epsilon: float = 0.0
    initial_policy_mode: str = "zeros"  # zeros | spend-evenly | supplied
    initial_policy: Optional[np.ndarray] = None
    solver_tol: float = 1e-7

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if self.objective_tol <= 0 or self.displacement_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.proximal_epsilon < 0:
            raise ValueError("proximal epsilon must be nonnegative")
        if self.initial_policy_mode not in ("zeros", "spend-evenly", "supplied"):
            raise ValueError(f"unknown initial mode {self.initial_policy_mode}")


@dataclass
class SolveReport:
    """Trace of a solver run: objective per half-sweep plus convergence data."""

    objective_trace: list = field(default_factory=list)
    displacement_trace: list = field(default_factory=list)
    sweeps_used: int = 0
    converged: bool = False
    final_displacement: float = float("nan")
    # populated by the data-arrival solver only; round_objectives is the true
    # (unpenalized) objective after each penalty round and need not be
    # monotone, unlike objective_trace
    rounds_used: int = 0
    final_violation: float = 0.0
    violation_trace: list = field(default_factory=list)
    round_objectives: list = field(default_factory=list)
    unusable_energy: Optional[np.ndarray] = None


def build_subproblem(scenario: Scenario, rate_model: RateModel, user: int,
                     other_policy) -> SlotUtilities:
    """Slot utilities p -> r(p, other_i) for one user, other user fixed.

    The interference term enters as a per-slot fading floor where the region
    admits it, and the fixed user's own-rate term is kept as an additive
    constant so the subproblem objective equals the joint objective.
    """
    if user not in (0, 1):
        raise ShapeError("user index must be 0 or 1")
    other = np.asarray(other_policy, dtype=float)
    n = scenario.grid.N
    if other.shape != (n,):
        raise ShapeError(f"other policy must have shape ({n},)")
    region = rate_model.region
    if region is Region.GENERIC:
        if user == 0:
            value = lambda p: rate_model.sum_rate(p, other)
            deriv = lambda p: rate_model.grad(p, other)[0]
        else:
            value = lambda p: rate_model.sum_rate(other, p)
            deriv = lambda p: rate_model.grad(other, p)[1]
        return GenericSlotUtilities(value, deriv, n=n)

    cu = (1 - user) if rate_model.mirrored else user
    a, b = rate_model.canonical_gains
    const = 0.5 * np.log1p(other)
    if region is Region.VERY_STRONG:
        return ScaledLogUtilities(np.ones(n), const)
    if region is Region.ASYMMETRIC_AB_ABOVE_ONE:
        if cu == 0:
            return ScaledLogUtilities(1.0 / (1.0 + a * other), const)
        return InterferedUtilities(a, other)
    # min-form region: the active branch per slot depends only on the fixed
    # user's power through p_c
    if cu == 0:
        h = np.where(other < rate_model.p_c,
                     1.0 / (1.0 + a * other), b / (1.0 + other))
        return ScaledLogUtilities(h, const)
    return PiecewiseMinUtilities(a, b, rate_model.p_c, other)


def joint_objective(policy, scenario: Scenario, rate_model: RateModel) -> float:
    p = np.asarray(policy, dtype=float)
    r = np.atleast_1d(rate_model.sum_rate(p[0], p[1]))
    return scenario.grid.tau * float(np.sum(r))


def feasible_floor(policy_row, harvest, tau: float) -> np.ndarray:
    """Project a row onto the energy corridor (keeps it monotone in S-space)."""
    lower, upper = energy_bounds(harvest, tau)
    floor = np.maximum.accumulate(lower)
    s = tau * np.cumsum(np.maximum(policy_row, 0.0))
    s = np.minimum(np.maximum(s, floor), upper)
    return np.diff(np.concatenate([[0.0], s])) / tau


def initial_policy(scenario: Scenario, opts: IterativeOptions) -> np.ndarray:
    n = scenario.grid.N
    if opts.initial_policy_mode == "supplied":
        if opts.initial_policy is None:
            raise ValueError("supplied mode requires initial_policy")
        start = np.asarray(opts.initial_policy, dtype=float).reshape(2, n)
    elif opts.initial_policy_mode == "spend-evenly":
        from .online import naive_policy   # online imports this module
        start = naive_policy(scenario)
    else:
        start = np.zeros((2, n))
    tau = scenario.grid.tau
    return np.vstack([feasible_floor(start[j], scenario.users[j].harvest, tau)
                      for j in range(2)])


def iterate_offline(scenario: Scenario, rate_model: RateModel,
                    opts: IterativeOptions = None):
    """Alternating single-user solves until the joint objective settles.

    Data-arrival constraints are ignored here (infinite-backlog problem); the
    data-aware solver wraps this routine.  Returns ``(policy, report)`` with a
    half-sweep objective trace that is nondecreasing under the default
    (epsilon = 0) configuration.
    """
    if opts is None:
        opts = IterativeOptions()
    scen = validate_scenario(scenario)
    policy = initial_policy(scen, opts)
    obj = joint_objective(policy, scen, rate_model)
    report = SolveReport(objective_trace=[obj])
    scale = max(1.0, abs(obj))
    prev_disp = None
    for sweep in range(1, opts.max_sweeps + 1):
        prev_policy = policy.copy()
        sweep_start_obj = obj
        for user in (0, 1):
            utils = build_subproblem(scen, rate_model, user, policy[1 - user])
            if opts.proximal_epsilon > 0.0:
                utils = ProximalUtilities(utils, opts.proximal_epsilon,
                                          policy[user])
            row, _cert = solve_single_user(utils, scen.users[user].harvest,
                                           scen.grid, tol=opts.solver_tol)
            candidate = policy.copy()
            candidate[user] = row
            cand_obj = joint_objective(candidate, scen, rate_model)
            if opts.proximal_epsilon > 0.0 or cand_obj >= obj - 1e-12 * scale:
                policy, obj = candidate, cand_obj
            report.objective_trace.append(obj)
        disp = float(np.max(np.abs(policy - prev_policy)))
        report.displacement_trace.append(disp)
        report.sweeps_used = sweep
        improved = obj - sweep_start_obj
        scale = max(1.0, abs(obj))
        if improved <= opts.objective_tol * scale and disp <= opts.displacement_tol:
            report.converged = True
            break
        # geometric extrapolation along the sweep direction, accepted only
        # when it does not hurt the objective (keeps the trace monotone and
        # the fixed point unchanged; it merely skips contraction steps)
        if (prev_disp is not None and disp > opts.displacement_tol
                and 0.0 < disp < 0.999 * prev_disp):
            rho = disp / prev_disp
            theta = min(rho / (1.0 - rho), 50.0)
            jumped = policy + theta * (policy - prev_policy)
            jumped = np.vstack([
                feasible_floor(jumped[j], scen.users[j].harvest, scen.grid.tau)
                for j in range(2)])
            jumped_obj = joint_objective(jumped, scen, rate_model)
            if jumped_obj >= obj - 1e-12 * scale:
                policy, obj = jumped, jumped_obj
        prev_disp = disp
    report.final_displacement = report.displacement_trace[-1]
    return policy, report
