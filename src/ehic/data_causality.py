"""Data-arrival extension: augmented-Lagrangian rounds on data causality.

With per-slot data arrivals the feasible set couples the users (each user's
departed bits depend on both powers) and is not convex, so the plain
alternation cannot simply be constrained.  Instead each user j with finite
data and each slot n carry the cumulative excess

    g[j][n] = sum_{i<=n} tau*r_j(p_1i, p_2i) - cumB_{j,n}

(the constraint is g <= 0) and a multiplier lam[j][n] >= 0, and round k
maximizes the sum rate minus the method-of-multipliers term

    eps_k * sum (max(0, lam/(2 eps_k) + g)^2 - (lam/(2 eps_k))^2)

(Rockafellar, Math. Programming 5, 1973; Nocedal & Wright, Numerical
Optimization, 17.3-17.4) with eps_k = 1, 4, 16, ....  After each round lam <-
max(0, lam + 2 eps_k g) at the policy the round kept.  Round one starts
from lam = 0, where the term is the quadratic penalty eps * sum C^2 on the
violation C = max(0, g).  A pure penalty shrinks the violation only about
as fast as eps grows and leaves the answer above the data-limited optimum
by about its leftover violation; the multipliers carry the price of each
constraint from round to round, so feasible instances meet
``violation_tol`` in 2-5 rounds where the pure penalty took 6-8.  In the
water-filling picture the term's gradient acts as a per-slot offset on
the generalized level: a pump that pushes consumption forward past a
binding boundary of the same user, or backward when the other user's
boundary binds (that term vanishes identically in regions where the other
user's rate does not depend on this user's power).

Each round is one SLSQP solve over both users' powers x = (p_1, p_2),
warm-started from the last round, under p >= 0 and each user's energy
corridor L_n <= S_n <= U_n on its cumulative consumption S_n.  SLSQP sees
only the corridor rows that p >= 0 leaves open (``model.Corridor``):
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
lower the penalized objective at the round's own (eps, lam).  A sweep of
the two users' blocks converges only linearly under a growing penalty
(Tseng, JOTA 2001); a joint SQP solve does not crawl that way (Nocedal &
Wright, Numerical Optimization, ch. 18).

Blocked-harvest contradictions (energy that data causality forbids spending
before the battery must make room for the next arrival) are resolved by
removing the provably unusable energy up front, which leaves the optimal
value unchanged.

Some instances have no feasible policy at all: a user's battery forces it to
spend energy, and so to send data, faster than its data arrive.  Before
round zero ``forced_departures`` bounds each user's departures from below:
the fewest nats the user can send through slot n anywhere in its own
corridor, with the partner at its largest single-slot power, which lowers
the user's rate in every region.  That rate is concave and nondecreasing in
the user's own power, so the sum over slots is concave in S and smallest at
a vertex of the corridor polytope (Rockafellar, Convex Analysis, Cor.
32.3.2), where every S_k lies in {0} u {L_j} u {U_j}; a forward DP over
those levels finds it exactly.  Where the bound exceeds the arrived data by
more than ``violation_tol`` no policy can pass, and the solver refuses the
instance with ``InvalidInputError`` instead of running its rounds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, InvalidInputError
from .iterative import feasible_floor, iterate_offline, joint_objective
from .model import (HarvestProfile, Scenario, User, validate_scenario,
                    violation)
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


def forced_departures(scenario: Scenario, rate_model: RateModel,
                      user: int) -> np.ndarray:
    """The fewest nats ``user`` can send through each slot n, over every S
    in its corridor L_k <= S_k <= U_k, with the partner at its largest
    single-slot power min(capacity, U_N) / tau.

    Exact for rates that do not depend on the partner (the canonical user 2
    and the very strong region).  The DP keeps, after slot k, the least
    departures that reach each level of {0} u {L_j} u {U_j} inside [L_k,
    U_k]; a slot either stays at its level (p = 0) or jumps up.
    """
    tau = scenario.grid.tau
    corridor = scenario.users[user].harvest.corridor
    partner = scenario.users[1 - user].harvest
    p_partner = min(partner.capacity, float(partner.corridor.upper[-1])) / tau

    def nats(energy):
        p = energy / tau
        pair = (p, p_partner) if user == 0 else (p_partner, p)
        return tau * rate_model.user_rates(*pair)[user]

    levels = np.unique(np.concatenate([[0.0], corridor.lower,
                                       corridor.upper]))
    first = np.searchsorted(levels, corridor.lower, side="left")
    last = np.searchsorted(levels, corridor.upper, side="right")
    forced = np.empty(scenario.grid.N)
    start, cost = 0, np.zeros(1)            # S_0 = 0 is levels[0]
    for k in range(scenario.grid.N):
        step = (levels[first[k]:last[k]][None, :]
                - levels[start:start + cost.size][:, None])
        cost = np.min(np.where(step >= 0.0,
                               cost[:, None] + nats(np.maximum(step, 0.0)),
                               np.inf), axis=0)
        start = first[k]
        forced[k] = np.min(cost)
    return forced


def _refuse_forced_violations(scenario, rate_model, violation_tol):
    """Raise ``InvalidInputError`` if some user's corridor forces it to send
    more than ``violation_tol`` nats beyond its arrived data.

    A solved row may pass each of its corridor bounds by ``feas_eps``, so
    its energy in a slot may move by twice that, and the partner's may pass
    its peak by as much.  Each rate moves by at most 1/2 nat per unit of
    either user's energy in a slot, so through slot n the departures may
    fall below the bound by n times the sum of the two users' ``feas_eps``,
    which the test allows for.
    """
    n = scenario.grid.N
    slack = np.arange(1, n + 1) * sum(u.harvest.corridor.feas_eps
                                      for u in scenario.users)
    for j, user in enumerate(scenario.users):
        if user.data.is_infinite:
            continue
        forced = forced_departures(scenario, rate_model, j)
        arrived = np.cumsum(user.data.arrivals)
        excess = forced - arrived - slack
        slot = int(np.argmax(excess))
        if excess[slot] > violation_tol:
            raise InvalidInputError(
                f"no policy meets data causality: user {j + 1}'s battery "
                f"forces it to send at least {forced[slot]:.6g} nats "
                f"through slot {slot + 1}, and only {arrived[slot]:.6g} "
                f"have arrived")


# ---------------------------------------------------------------------------
# penalized joint solves
# ---------------------------------------------------------------------------

def _cumulative_data(scenario):
    """Each user's cumulative arrivals cumB_n, None for an infinite backlog."""
    return [None if u.data.is_infinite else np.cumsum(u.data.arrivals)
            for u in scenario.users]


def _hinges(bits, cum_b, shift):
    """The shifted hinges max(0, shift + g) of the cumulative excess g_n =
    sum_{i<=n} bits_i - cumB_n, (2, N); rows of infinite-backlog users are
    zero."""
    h = np.zeros_like(bits)
    for j in range(2):
        if cum_b[j] is not None:
            h[j] = np.maximum(0.0, shift[j] + (np.cumsum(bits[j]) - cum_b[j]))
    return h


def _departures(policy, scenario, rate_model):
    """Nats each user sends in each slot, (2, N)."""
    p = np.asarray(policy, dtype=float).reshape(2, scenario.grid.N)
    r1, r2 = rate_model.user_rates(p[0], p[1])
    tau = scenario.grid.tau
    return np.vstack([np.atleast_1d(r1), np.atleast_1d(r2)]) * tau


def _penalized_objective(policy, scenario, rate_model, eps, lam):
    """The sum rate minus eps * sum (h^2 - (lam / 2 eps)^2), with h the
    hinges shifted by lam / (2 eps); with lam = 0 the penalty is eps *
    sum C^2."""
    shift = lam / (2.0 * eps)
    h = _hinges(_departures(policy, scenario, rate_model),
                _cumulative_data(scenario), shift)
    return (joint_objective(policy, scenario, rate_model)
            - eps * float(np.sum(h * h - shift * shift)))


def _joint_fun_and_grad(scenario, rate_model, eps, lam):
    """Negated penalized objective and its gradient over x = (p_1, p_2).

    Both read one evaluation per point: SLSQP asks for the gradient at the
    point whose value it has just taken, so the rates and hinges of the
    last point are kept for it.  A point's value is
    ``-_penalized_objective`` of the policy with its rows floored at 0, bit
    for bit.  User k's gradient is tau * d(sum rate)/dp_k minus
    2 eps tau sum_j (dr_j/dp_k) w_j, where w_j,i = sum_{m >= i} h_j,m.
    """
    tau = scenario.grid.tau
    n = scenario.grid.N
    cum_b = _cumulative_data(scenario)
    shift = lam / (2.0 * eps)
    last = {}

    def evaluate(x):
        if "x" in last and np.array_equal(x, last["x"]):
            return
        p = np.maximum(x, 0.0).reshape(2, n)
        h = _hinges(_departures(p, scenario, rate_model), cum_b, shift)
        rate = np.atleast_1d(rate_model.sum_rate(p[0], p[1]))
        last.update(x=np.array(x, dtype=float), p=p, h=h,
                    value=tau * float(np.sum(rate))
                    - eps * float(np.sum(h * h - shift * shift)))

    def fun(x):
        evaluate(x)
        return -last["value"]

    def grad(x):
        evaluate(x)
        p1, p2 = last["p"]
        g = tau * np.vstack([np.atleast_1d(d)
                             for d in rate_model.grad(p1, p2)])
        d11, d12, d21, d22 = rate_model.user_rate_partials(p1, p2)
        for partials, h in zip(((d11, d12), (d21, d22)), last["h"]):
            if not np.any(h > 0.0):
                continue
            w = np.cumsum(h[::-1])[::-1]     # sum_{m >= i} h_j,m
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
        c = user.harvest.corridor
        rows += [j * n + np.flatnonzero(c.upper_rows),
                 j * n + np.flatnonzero(c.lower_rows)]
        sign += [np.full(np.count_nonzero(c.upper_rows), -1.0),
                 np.ones(np.count_nonzero(c.lower_rows))]
        bound += [c.upper[c.upper_rows], c.lower[c.lower_rows]]
    rows, sign, bound = (np.concatenate(v) for v in (rows, sign, bound))
    # row j*n + m reads user j's powers through slot m
    cols = np.arange(2 * n)
    jac = (sign * tau)[:, None] * ((cols >= rows[:, None] // n * n)
                                   & (cols <= rows[:, None]))
    return {"type": "ineq",
            "fun": lambda x: sign * (tau * np.cumsum(x.reshape(2, n), axis=1)
                                     .ravel()[rows] - bound),
            "jac": lambda x: jac}


def _penalty_round(scenario, rate_model, policy, eps, lam, corridor):
    """One SLSQP solve over both users' powers: ``(policy, success)``.

    The answer, floored onto each user's corridor, is kept only if it does
    not lower the penalized objective at this round's (eps, lam);
    ``success`` is SLSQP's own status either way.
    """
    fun, grad = _joint_fun_and_grad(scenario, rate_model, eps, lam)
    res = minimize(fun, policy.ravel(), jac=grad, method="SLSQP",
                   bounds=[(0.0, None)] * policy.size, constraints=corridor,
                   options={"ftol": 1e-12, "maxiter": 400})
    candidate = np.array([
        feasible_floor(row, user.harvest, scenario.grid.tau)
        for row, user in zip(res.x.reshape(policy.shape), scenario.users)])
    # the floored rows are nonnegative, so this is their _penalized_objective
    if -fun(candidate.ravel()) >= _penalized_objective(policy, scenario,
                                                       rate_model, eps, lam):
        return candidate, res.success
    return policy, res.success


def solve_with_data(scenario: Scenario, rate_model: RateModel,
                    max_sweeps: int = 200, tol: float = 1e-7,
                    violation_tol: float = 1e-4):
    """Best-effort schedule under energy AND data causality.

    After ``resolve_contradictions``, an instance where some user's battery
    forces it to send more than ``violation_tol`` nats beyond its arrived
    data (``forced_departures``) has no policy that can pass: it raises
    ``InvalidInputError`` naming the user, the slot, the forced and the
    arrived nats, before round zero.  Otherwise outer rounds grow the
    penalty coefficient (1, 4, 16, ...) and update the multipliers after
    each round; each round is one SLSQP solve of the augmented-Lagrangian
    objective over both users' powers, warm-started from the previous
    round (round zero is ``iterate_offline`` with ``max_sweeps`` and
    ``tol``).  Terminates once the largest violation is at or below
    ``violation_tol``; after ``_MAX_ROUNDS`` rounds it raises
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
    _refuse_forced_violations(scen, rate_model, violation_tol)

    policy, report = iterate_offline(scen, rate_model, max_sweeps, tol)
    vmax = float(np.max(violation(policy, scen, rate_model)))
    report.unusable_energy = original - scen.harvest_matrix()
    report.violation_trace = [vmax]
    corridor = _corridor_constraint(scen)
    cum_b = _cumulative_data(scen)
    lam = np.zeros_like(policy)
    for k in range(1, _MAX_ROUNDS + 1):
        if vmax <= violation_tol:
            break
        eps = _GROWTH ** (k - 1)
        policy, success = _penalty_round(scen, rate_model, policy, eps, lam,
                                         corridor)
        # lam <- max(0, lam + 2 eps g), which is 2 eps times the hinges
        lam = 2.0 * eps * _hinges(_departures(policy, scen, rate_model),
                                  cum_b, lam / (2.0 * eps))
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
