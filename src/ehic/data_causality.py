"""Data-arrival extension: quadratic penalty on data-causality violations.

With per-slot data arrivals the feasible set couples the users (each user's
departed bits depend on both powers) and is not convex, so the plain
alternation cannot simply be constrained.  Instead the cumulative violation

    C[j][n] = max(0, sum_{i<=n} (tau*r_j(p_1i, p_2i) - B_{j,i}))

enters the objective as -eps_k * sum C^2 with a geometrically growing
coefficient.  Early rounds explore freely; as eps_k grows the violations are
squeezed out.  In the water-filling picture the penalty gradient acts as a
per-slot offset on the generalized level: a pump that pushes consumption
forward past a violated boundary of the same user, or backward when the
other user's constraint is violated (that term vanishes identically in
regions where the other user's rate does not depend on this user's power).

Each block is one SLSQP solve under p >= 0 and the user's energy corridor
L_n <= S_n <= U_n on the cumulative consumption S_n.  SLSQP sees only the
corridor rows that p >= 0 leaves open (``model.open_rows``): S_n <= U_n
where the harvest grows in slot n+1 or n = N, and S_n >= L_n where the
floor is positive and rises.  With S nondecreasing, a ceiling that slot
n+1 does not raise is met by S_n <= S_{n+1} <= U_{n+1}, and a floor that
does not rise by S_n >= S_k >= L_k at the last kept k < n, so the feasible
set is the one of all 2N - 1 rows.  On the benchmark's N=50 data scenarios
3-21 of the 99 rows stay.  SLSQP reads each point's value and gradient from
one evaluation, and it reports its status: a block solve whose status is a
failure is counted in ``SolveReport.inner_failures``, and its row is still
kept if it does not lower the penalized objective.

Blocked-harvest contradictions (energy that data causality forbids spending
before the battery must make room for the next arrival) are resolved by
removing the provably unusable energy up front, which leaves the optimal
value unchanged.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, InvalidInputError
from .iterative import (_OBJECTIVE_TOL, feasible_floor, iterate_offline,
                        joint_objective)
from .model import (HarvestProfile, Scenario, User, energy_bounds,
                    open_rows, validate_scenario, violation)
from .rates import RateModel


_GROWTH = 4.0       # penalty coefficient factor per round, from 1
_MAX_ROUNDS = 40
_INNER_SWEEPS = 40  # cap on the block sweeps of one penalty round


def resolve_contradictions(scenario: Scenario) -> Scenario:
    """Drop harvest energy that can provably never be spent.

    While a user's cumulative data arrivals are zero it cannot transmit at
    all, so energy stored during that prefix that would have to make room for
    the next arrival is lost no matter what.  The simulation below admits
    each arrival in full and evicts the oldest stored energy when the battery
    would otherwise have to drain through a data-blocked boundary.  Identity
    when no user has such a blocked prefix; idempotent.
    """
    n = scenario.grid.N
    users = []
    changed = False
    for user in scenario.users:
        if user.data.is_infinite:
            users.append(user)
            continue
        cum_b = np.cumsum(user.data.arrivals)
        blocked = int(np.searchsorted(cum_b > 0.0, True))  # slots with no data yet
        if blocked == 0:
            users.append(user)
            continue
        emax = user.harvest.capacity
        m = min(blocked + 1, n)
        stored = user.harvest.arrivals[:m].copy()
        for i in range(m):
            overflow = float(np.sum(stored[:i + 1])) - emax
            k = 0
            while overflow > 1e-12 * emax and k < i:
                take = min(stored[k], overflow)
                stored[k] -= take
                overflow -= take
                k += 1
        new_e = user.harvest.arrivals.copy()
        if np.any(np.abs(new_e[:m] - stored) > 0.0):
            changed = True
            new_e[:m] = stored
        users.append(User(HarvestProfile(new_e, emax), user.data))
    if not changed:
        return scenario
    return replace(scenario, users=tuple(users))


# ---------------------------------------------------------------------------
# penalized block solves
# ---------------------------------------------------------------------------

def _penalized_objective(policy, scenario, rate_model, eps):
    c = violation(policy, scenario, rate_model)
    return joint_objective(policy, scenario, rate_model) - eps * float(np.sum(c * c))


def _block_fun_and_grad(scenario, rate_model, policy, user, eps):
    """Negated penalized objective and its gradient in user ``user``'s
    block, the other user's row fixed.

    Both read one evaluation per point: SLSQP asks for the gradient at the
    point whose value it has just taken, so the rates and violations of the
    last point are kept for it.  A point's value is
    ``-_penalized_objective`` of the policy with its row floored at 0, bit
    for bit.
    """
    tau = scenario.grid.tau
    n = scenario.grid.N
    full = np.empty((2, n))
    full[1 - user] = policy[1 - user]
    cum_b = [None if u.data.is_infinite else np.cumsum(u.data.arrivals)
             for u in scenario.users]
    last = {}

    def evaluate(x):
        if "x" in last and np.array_equal(x, last["x"]):
            return
        full[user] = np.maximum(x, 0.0)
        r1, r2 = rate_model.user_rates(full[0], full[1])
        bits = np.vstack([np.atleast_1d(r1), np.atleast_1d(r2)]) * tau
        c = np.zeros((2, n))
        for j in range(2):
            if cum_b[j] is not None:
                c[j] = np.maximum(0.0, np.cumsum(bits[j]) - cum_b[j])
        rate = np.atleast_1d(rate_model.sum_rate(full[0], full[1]))
        last.update(x=np.array(x, dtype=float), c=c,
                    value=tau * float(np.sum(rate))
                    - eps * float(np.sum(c * c)))

    def fun(x):
        evaluate(x)
        return -last["value"]

    def grad(x):
        evaluate(x)
        p1, p2 = full
        d_sum = rate_model.grad(p1, p2)[user]
        d11, d12, d21, d22 = rate_model.user_rate_partials(p1, p2)
        partials = ((d11, d21) if user == 0 else (d12, d22))
        g = tau * np.atleast_1d(d_sum).astype(float).copy()
        for j, c in enumerate(last["c"]):
            if not np.any(c > 0.0):
                continue
            w = np.cumsum(c[::-1])[::-1]     # sum_{m >= i} C_m
            g -= eps * 2.0 * tau * np.atleast_1d(partials[j]) * w
        return -g

    return fun, grad


def _solve_block(scenario, rate_model, policy, user, eps, start_obj):
    """One SLSQP solve of a block: ``(policy, objective, success)``.

    The block's row is kept only if it does not lower the penalized
    objective; ``success`` is SLSQP's own status either way.
    """
    tau = scenario.grid.tau
    n = scenario.grid.N
    harvest = scenario.users[user].harvest
    lower, upper = energy_bounds(harvest, tau)
    fun, grad = _block_fun_and_grad(scenario, rate_model, policy, user, eps)
    # the corridor rows that p >= 0 leaves open, as sign * (S_n - bound)
    # >= 0; they are linear, so their Jacobian is constant
    upper_rows, lower_rows = open_rows(lower, upper)
    rows = np.concatenate([np.flatnonzero(upper_rows),
                           np.flatnonzero(lower_rows)])
    sign = np.repeat([-1.0, 1.0], [np.count_nonzero(upper_rows),
                                   np.count_nonzero(lower_rows)])
    bound = np.concatenate([upper[upper_rows], lower[lower_rows]])
    jac = (sign * tau)[:, None] * np.tril(np.ones((n, n)))[rows]
    cons = {"type": "ineq",
            "fun": lambda x: sign * (tau * np.cumsum(x)[rows] - bound),
            "jac": lambda x: jac}
    res = minimize(fun, policy[user], jac=grad, method="SLSQP",
                   bounds=[(0.0, None)] * n, constraints=cons,
                   options={"ftol": 1e-12, "maxiter": 400})
    row = feasible_floor(np.maximum(res.x, 0.0), harvest, tau)
    # the floored row is nonnegative, so this is its _penalized_objective
    cand_obj = -fun(row)
    if cand_obj >= start_obj:
        candidate = policy.copy()
        candidate[user] = row
        return candidate, cand_obj, res.success
    return policy, start_obj, res.success


def _penalized_descent(scenario, rate_model, policy, eps, inner_sweeps):
    """Block sweeps on the penalized objective: ``(policy, solves,
    failures)``, with the block solves run and those SLSQP did not report
    successful."""
    obj = _penalized_objective(policy, scenario, rate_model, eps)
    solves = failures = 0
    for _ in range(inner_sweeps):
        start = obj
        for user in (0, 1):
            if float(np.sum(scenario.users[user].harvest.arrivals)) <= 0.0:
                continue
            policy, obj, success = _solve_block(scenario, rate_model, policy,
                                                user, eps, obj)
            solves += 1
            failures += not success
        # the objective alone ends a round: late in a round the two blocks
        # can trade gains of about 1e-10 relative per sweep while the powers
        # still move by about 4e-6, a crawl that a displacement bound would
        # keep going to the sweep cap
        if obj - start <= _OBJECTIVE_TOL * max(1.0, abs(obj)):
            break
    return policy, solves, failures


def solve_with_data(scenario: Scenario, rate_model: RateModel,
                    max_sweeps: int = 200, tol: float = 1e-7,
                    violation_tol: float = 1e-4):
    """Best-effort schedule under energy AND data causality.

    Outer rounds grow the penalty coefficient (1, 4, 16, ...); each round
    runs coordinate descent on the penalized objective warm-started from the
    previous round (round zero is ``iterate_offline`` with ``max_sweeps`` and
    ``tol``), until a sweep gains at most ``_OBJECTIVE_TOL`` relative or for
    at most ``_INNER_SWEEPS`` sweeps.  Terminates once the largest violation
    is at or below ``violation_tol``; after ``_MAX_ROUNDS`` rounds it raises
    ``ConvergenceError`` with the last policy attached, whose message counts
    the block solves that SLSQP reported as failed.
    """
    if not (np.isfinite(violation_tol) and violation_tol > 0.0):
        raise InvalidInputError("violation_tol must be positive and finite")
    scen = validate_scenario(scenario)
    if all(u.data.is_infinite for u in scen.users):
        policy, report = iterate_offline(scen, rate_model, max_sweeps, tol)
        report.unusable_energy = np.zeros((2, scen.grid.N))
        return policy, report

    original = scen.harvest_matrix()
    scen = resolve_contradictions(scen)

    policy, report = iterate_offline(scen, rate_model, max_sweeps, tol)
    vmax = float(np.max(violation(policy, scen, rate_model)))
    report.unusable_energy = original - scen.harvest_matrix()
    report.violation_trace = [vmax]
    inner_sweeps = min(max_sweeps, _INNER_SWEEPS)
    solves = 0
    for k in range(1, _MAX_ROUNDS + 1):
        if vmax <= violation_tol:
            break
        policy, round_solves, failures = _penalized_descent(
            scen, rate_model, policy, _GROWTH ** (k - 1), inner_sweeps)
        solves += round_solves
        report.inner_failures += failures
        vmax = float(np.max(violation(policy, scen, rate_model)))
        report.violation_trace.append(vmax)
        report.rounds_used = k
    report.final_violation = vmax
    report.converged = vmax <= violation_tol
    if not report.converged:
        worst = violation(policy, scen, rate_model)
        user, slot = np.unravel_index(np.argmax(worst), worst.shape)
        raise ConvergenceError(
            f"data-causality violation {vmax:.3g} of user {user + 1} at slot "
            f"{slot + 1} above tolerance {violation_tol:.3g} after "
            f"{_MAX_ROUNDS} rounds; SLSQP failed {report.inner_failures} of "
            f"{solves} block solves",
            best_policy=policy, residual=vmax)
    return policy, report
