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

Each round is one SLSQP solve over both users' powers x = (p_1, p_2),
warm-started from the last round, under p >= 0 and each user's energy
corridor L_n <= S_n <= U_n on its cumulative consumption S_n.  SLSQP sees
only the corridor rows that p >= 0 leaves open (``model.open_rows``):
S_n <= U_n where the harvest grows in slot n+1 or n = N, and S_n >= L_n
where the floor is positive and rises.  With S nondecreasing, a ceiling
that slot n+1 does not raise is met by S_n <= S_{n+1} <= U_{n+1}, and a
floor that does not rise by S_n >= S_k >= L_k at the last kept k < n, so
the feasible set is the one of all 2N - 1 rows.  Each row reads one user's
powers, so the two users' rows form one constraint with a block-diagonal
Jacobian; a user without harvest keeps p = 0 through its row S_N <= 0.  On
the benchmark's N=50 data scenarios 3-21 of each user's 99 rows stay.
SLSQP reads each point's value and gradient from one evaluation, and it
reports its status: a round solve whose status is a failure is counted in
``SolveReport.inner_failures``, and its answer is still kept if it does not
lower the penalized objective.  A sweep of the two users' blocks converges
only linearly under a growing penalty (Tseng, JOTA 2001); a joint SQP solve
does not crawl that way (Nocedal & Wright, Numerical Optimization, ch. 18).

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
from .iterative import feasible_floor, iterate_offline, joint_objective
from .model import (HarvestProfile, Scenario, User, energy_bounds,
                    open_rows, validate_scenario, violation)
from .rates import RateModel


_GROWTH = 4.0       # penalty coefficient factor per round, from 1
_MAX_ROUNDS = 40


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
# penalized joint solves
# ---------------------------------------------------------------------------

def _penalized_objective(policy, scenario, rate_model, eps):
    c = violation(policy, scenario, rate_model)
    return joint_objective(policy, scenario, rate_model) - eps * float(np.sum(c * c))


def _joint_fun_and_grad(scenario, rate_model, eps):
    """Negated penalized objective and its gradient over x = (p_1, p_2).

    Both read one evaluation per point: SLSQP asks for the gradient at the
    point whose value it has just taken, so the rates and violations of the
    last point are kept for it.  A point's value is
    ``-_penalized_objective`` of the policy with its rows floored at 0, bit
    for bit.  User k's gradient is tau * d(sum rate)/dp_k minus
    2 eps tau sum_j (dr_j/dp_k) w_j, where w_j,i = sum_{m >= i} C_j,m.
    """
    tau = scenario.grid.tau
    n = scenario.grid.N
    cum_b = [None if u.data.is_infinite else np.cumsum(u.data.arrivals)
             for u in scenario.users]
    last = {}

    def evaluate(x):
        if "x" in last and np.array_equal(x, last["x"]):
            return
        p = np.maximum(x, 0.0).reshape(2, n)
        r1, r2 = rate_model.user_rates(p[0], p[1])
        bits = np.vstack([np.atleast_1d(r1), np.atleast_1d(r2)]) * tau
        c = np.zeros((2, n))
        for j in range(2):
            if cum_b[j] is not None:
                c[j] = np.maximum(0.0, np.cumsum(bits[j]) - cum_b[j])
        rate = np.atleast_1d(rate_model.sum_rate(p[0], p[1]))
        last.update(x=np.array(x, dtype=float), p=p, c=c,
                    value=tau * float(np.sum(rate))
                    - eps * float(np.sum(c * c)))

    def fun(x):
        evaluate(x)
        return -last["value"]

    def grad(x):
        evaluate(x)
        p1, p2 = last["p"]
        g = tau * np.vstack([np.atleast_1d(d)
                             for d in rate_model.grad(p1, p2)])
        d11, d12, d21, d22 = rate_model.user_rate_partials(p1, p2)
        for partials, c in zip(((d11, d12), (d21, d22)), last["c"]):
            if not np.any(c > 0.0):
                continue
            w = np.cumsum(c[::-1])[::-1]     # sum_{m >= i} C_j,m
            for k in (0, 1):
                g[k] -= eps * 2.0 * tau * np.atleast_1d(partials[k]) * w
        return -g.ravel()

    return fun, grad


def _corridor_constraint(scenario):
    """Both users' open corridor rows as one SLSQP ``ineq`` constraint on
    x = (p_1, p_2), as sign * (S_n - bound) >= 0.  The rows are linear and
    each reads one user's powers, so the Jacobian is constant and block
    diagonal."""
    tau = scenario.grid.tau
    n = scenario.grid.N
    rows, sign, bound = [], [], []
    for j, user in enumerate(scenario.users):
        lower, upper = energy_bounds(user.harvest, tau)
        upper_rows, lower_rows = open_rows(lower, upper)
        rows += [j * n + np.flatnonzero(upper_rows),
                 j * n + np.flatnonzero(lower_rows)]
        sign += [np.full(np.count_nonzero(upper_rows), -1.0),
                 np.ones(np.count_nonzero(lower_rows))]
        bound += [upper[upper_rows], lower[lower_rows]]
    rows, sign, bound = (np.concatenate(v) for v in (rows, sign, bound))
    jac = (sign * tau)[:, None] * np.kron(np.eye(2),
                                          np.tril(np.ones((n, n))))[rows]
    return {"type": "ineq",
            "fun": lambda x: sign * (tau * np.cumsum(x.reshape(2, n), axis=1)
                                     .ravel()[rows] - bound),
            "jac": lambda x: jac}


def _penalty_round(scenario, rate_model, policy, eps, corridor):
    """One SLSQP solve over both users' powers: ``(policy, success)``.

    The answer, floored onto each user's corridor, is kept only if it does
    not lower the penalized objective; ``success`` is SLSQP's own status
    either way.
    """
    fun, grad = _joint_fun_and_grad(scenario, rate_model, eps)
    res = minimize(fun, policy.ravel(), jac=grad, method="SLSQP",
                   bounds=[(0.0, None)] * policy.size, constraints=corridor,
                   options={"ftol": 1e-12, "maxiter": 400})
    candidate = np.array([
        feasible_floor(row, user.harvest, scenario.grid.tau)
        for row, user in zip(res.x.reshape(policy.shape), scenario.users)])
    # the floored rows are nonnegative, so this is their _penalized_objective
    if -fun(candidate.ravel()) >= _penalized_objective(policy, scenario,
                                                       rate_model, eps):
        return candidate, res.success
    return policy, res.success


def solve_with_data(scenario: Scenario, rate_model: RateModel,
                    max_sweeps: int = 200, tol: float = 1e-7,
                    violation_tol: float = 1e-4):
    """Best-effort schedule under energy AND data causality.

    Outer rounds grow the penalty coefficient (1, 4, 16, ...); each round
    is one SLSQP solve of the penalized objective over both users' powers,
    warm-started from the previous round (round zero is ``iterate_offline``
    with ``max_sweeps`` and ``tol``).  Terminates once the largest violation
    is at or below ``violation_tol``; after ``_MAX_ROUNDS`` rounds it raises
    ``ConvergenceError`` with the last policy attached, whose message counts
    the round solves that SLSQP reported as failed.
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
    corridor = _corridor_constraint(scen)
    for k in range(1, _MAX_ROUNDS + 1):
        if vmax <= violation_tol:
            break
        policy, success = _penalty_round(scen, rate_model, policy,
                                         _GROWTH ** (k - 1), corridor)
        report.inner_failures += not success
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
            f"{report.rounds_used} round solves",
            best_policy=policy, residual=vmax)
    return policy, report
