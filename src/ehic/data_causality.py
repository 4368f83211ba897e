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
corridor L_n <= S_n <= U_n on its cumulative consumption S_n.  Before a
user's first harvest U_n = 0 pins its powers to 0 in every policy, so
SLSQP sees only the powers after it, with their bounds and start: 90 of
the 100 on the benchmark's feasible N=50 data scenarios; a user without
harvest has no variables.  SLSQP sees only the corridor rows that p >= 0
leaves open (``model.Corridor``) and that read a free power: S_n <= U_n
where the harvest grows in slot n+1 or n = N, and S_n >= L_n where the
floor is positive and rises.  With S nondecreasing, a ceiling that slot
n+1 does not raise is met by S_n <= S_{n+1} <= U_{n+1}, and a floor that
does not rise by S_n >= S_k >= L_k at the last kept k < n, so the feasible
set is the one of all 2N - 1 rows.  Each row reads one user's powers, so
the two users' rows form one constraint with a block-diagonal Jacobian.
On the benchmark's N=50 data scenarios 3-21 of each user's 99 rows stay.
SLSQP reads each point's value and gradient from one evaluation, and it
reports its status: a round solve whose status is a failure is counted in
``SolveReport.inner_failures`` (its iterations in ``inner_steps``), and its
answer is still kept if it does not lower the penalized objective at the
round's own (eps, lam).  A sweep of the two users' blocks converges only
linearly under a growing penalty (Tseng, JOTA 2001); a joint SQP solve does
not crawl that way (Nocedal & Wright, Numerical Optimization, ch. 18).

SLSQP starts each round's quasi-Newton model from the identity, while the
sum rate's diagonal curvature spans a factor of 31-43 across the free
powers of the benchmark's feasible units.  So each round works in scaled
powers y = x / d (Nocedal & Wright, 2.2): c is tau times the negated
diagonal of the sum rate's Hessian (``RateModel.curvature``) at the round's
start, floored at ``_CURVATURE_FLOOR`` times its largest free entry, and
d = 1 / sqrt(c), so the identity fits that curvature.  On those two units
the rounds took 36 and 41 SLSQP iterations instead of 60 and 74.

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
those levels finds it exactly, and slots with the same level ranges share
one block of nats.  Where the bound exceeds the arrived data by more than
``violation_tol`` no policy can pass, and the solver refuses the instance
with ``InvalidInputError`` instead of running its rounds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, InvalidInputError
from .iterative import feasible_floor, iterate_offline, joint_objective
from .model import (HarvestProfile, Scenario, User, departures,
                    validate_scenario, violation)
from .rates import RateModel


_GROWTH = 4.0       # penalty coefficient factor per round, from 1
_MAX_ROUNDS = 40
# smallest curvature a round's scaling uses, as a fraction of the largest
# free one: caps each scale at 10x the smallest, so powers whose curvature
# nearly vanishes (large powers) do not get near-unbounded scales
_CURVATURE_FLOOR = 1e-2


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
    U_k]; a slot either stays at its level (p = 0) or jumps up.  A slot's
    nats for each (from, to) pair of levels depend only on the level ranges
    of this slot and the last, so while those repeat (slots without harvest
    whose floor holds) the last slot's block is reused; memory stays one
    block per slot, never a levels x levels table.
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
    key = None
    for k in range(scenario.grid.N):
        if key != (start, cost.size, first[k], last[k]):
            key = (start, cost.size, first[k], last[k])
            step = (levels[first[k]:last[k]][None, :]
                    - levels[start:start + cost.size][:, None])
            block = np.where(step >= 0.0, nats(np.maximum(step, 0.0)),
                             np.inf)
        cost = np.min(cost[:, None] + block, axis=0)
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
    sum_{i<=n} bits_i - cumB_n, (2, N), from each user's row of bits; rows
    of infinite-backlog users are zero and not computed."""
    h = np.zeros(np.shape(shift))
    for j in range(2):
        if cum_b[j] is not None:
            h[j] = np.maximum(0.0, shift[j] + (np.cumsum(bits[j]) - cum_b[j]))
    return h


def _penalized_objective(policy, scenario, rate_model, eps, lam):
    """The sum rate minus eps * sum (h^2 - (lam / 2 eps)^2), with h the
    hinges shifted by lam / (2 eps); with lam = 0 the penalty is eps *
    sum C^2."""
    shift = lam / (2.0 * eps)
    h = _hinges(departures(policy, scenario, rate_model),
                _cumulative_data(scenario), shift)
    return (joint_objective(policy, scenario, rate_model)
            - eps * float(np.sum(h * h - shift * shift)))


def _joint_fun_and_grad(scenario, rate_model, eps, lam, free):
    """Negated penalized objective and its gradient over the powers x that
    the mask ``free`` (2, N) marks; the other powers are 0.

    Both read one evaluation per point: SLSQP asks for the gradient at the
    point whose value it has just taken, so the rates and hinges of the
    last point are kept for it.  A point's value is
    ``-_penalized_objective`` of the policy with its free entries floored at
    0, bit for bit.  User k's gradient is tau * d(sum rate)/dp_k minus
    2 eps tau sum_j (dr_j/dp_k) w_j, where w_j,i = sum_{m >= i} h_j,m; the
    rate partials are computed only at points where a hinge is live.
    """
    tau = scenario.grid.tau
    n = scenario.grid.N
    cum_b = _cumulative_data(scenario)
    shift = lam / (2.0 * eps)
    shift_sq = shift * shift
    last = {}

    def evaluate(x):
        if "x" in last and np.array_equal(x, last["x"]):
            return
        p = np.zeros((2, n))
        p[free] = np.maximum(x, 0.0)
        h = _hinges(departures(p, scenario, rate_model), cum_b, shift)
        rate = rate_model.sum_rate(p[0], p[1])
        last.update(x=np.array(x, dtype=float), p=p, h=h,
                    value=tau * float(np.sum(rate))
                    - eps * float(np.sum(h * h - shift_sq)))

    def fun(x):
        evaluate(x)
        return -last["value"]

    def grad(x):
        evaluate(x)
        p1, p2 = last["p"]
        g = np.empty((2, n))
        g[0], g[1] = rate_model.grad(p1, p2)
        g *= tau
        live = [j for j in (0, 1) if np.any(last["h"][j] > 0.0)]
        if live:
            d11, d12, d21, d22 = rate_model.user_rate_partials(p1, p2)
            partials = ((d11, d12), (d21, d22))
            for j in live:
                w = np.cumsum(last["h"][j][::-1])[::-1]   # sum_{m >= i} h_j,m
                for k in (0, 1):
                    g[k] -= eps * 2.0 * tau * partials[j][k] * w
        return -g[free]

    return fun, grad


def _corridor_constraint(scenario):
    """The powers that can move and both users' open corridor rows on them,
    as ``(free, constraint)``.

    ``free`` (2, N) marks the slots with U_n > 0, a suffix of each user's
    slots; before it S_n <= U_n = 0 pins every power to 0, and a user
    without harvest has no free slot.  ``constraint`` is one SLSQP ``ineq``
    constraint on the free powers x, sign * (S_n - bound) >= 0, over the
    open rows that read a free power: those at free slots.  The rows are
    linear and each reads one user's powers, so the Jacobian is constant and
    block diagonal."""
    tau = scenario.grid.tau
    n = scenario.grid.N
    free = np.array([u.harvest.corridor.upper > 0.0 for u in scenario.users])
    rows, sign, bound = [], [], []
    for j, user in enumerate(scenario.users):
        c = user.harvest.corridor
        upper, lower = c.upper_rows & free[j], c.lower_rows & free[j]
        rows += [j * n + np.flatnonzero(upper), j * n + np.flatnonzero(lower)]
        sign += [np.full(np.count_nonzero(upper), -1.0),
                 np.ones(np.count_nonzero(lower))]
        bound += [c.upper[upper], c.lower[lower]]
    rows, sign, bound = (np.concatenate(v) for v in (rows, sign, bound))
    # row j*n + m reads user j's free powers through slot m; the free
    # column of flat index j*n + i holds user j's power in slot i
    cols = np.flatnonzero(free)
    jac = (sign * tau)[:, None] * ((cols >= rows[:, None] // n * n)
                                   & (cols <= rows[:, None]))

    def fun(x):
        p = np.zeros((2, n))
        p[free] = x
        return sign * (tau * np.cumsum(p, axis=1).ravel()[rows] - bound)

    return free, {"type": "ineq", "fun": fun, "jac": lambda x: jac}


def _round_scales(scenario, rate_model, policy, free):
    """The scales d > 0 of the free powers, x = d * y, in which a round's
    SLSQP works: d = 1 / sqrt(c), where c is tau times the negated diagonal
    of the sum rate's Hessian (``RateModel.curvature``) at ``policy``,
    floored at ``_CURVATURE_FLOOR`` times its largest free entry (all ones
    if no free entry is positive)."""
    c = -scenario.grid.tau * np.array(rate_model.curvature(*policy))[free]
    top = np.max(c, initial=0.0)
    if top <= 0.0:
        return np.ones(c.size)
    return 1.0 / np.sqrt(np.maximum(c, _CURVATURE_FLOOR * top))


def _penalty_round(scenario, rate_model, policy, eps, lam, corridor):
    """One SLSQP solve over both users' free powers, ``corridor`` being
    ``_corridor_constraint``'s pair: ``(policy, result)``.

    SLSQP works in the scaled powers y = x / d of ``_round_scales``, taken
    at the round's start: value ``fun(d y)``, gradient ``d * grad(d y)``,
    corridor rows ``rows(d y)`` with the constant Jacobian's columns scaled
    by d, and the same bounds y >= 0.  Its quasi-Newton model starts from
    the identity, which in y matches the sum rate's own diagonal curvature.
    The answer x = d y, floored onto each user's corridor, is kept only if
    it does not lower the penalized objective at this round's (eps, lam);
    ``result`` is SLSQP's own (in y), with its status and iterations,
    either way.
    """
    free, constraint = corridor
    fun, grad = _joint_fun_and_grad(scenario, rate_model, eps, lam, free)
    d = _round_scales(scenario, rate_model, policy, free)
    y0 = policy[free] / d
    jac = constraint["jac"](y0) * d
    rows = constraint["fun"]
    res = minimize(lambda y: fun(d * y), y0, jac=lambda y: d * grad(d * y),
                   method="SLSQP", bounds=[(0.0, None)] * y0.size,
                   constraints={"type": "ineq", "fun": lambda y: rows(d * y),
                                "jac": lambda y: jac},
                   options={"ftol": 1e-12, "maxiter": 400})
    full = np.zeros_like(policy)
    full[free] = d * res.x
    candidate = np.array([
        feasible_floor(row, user.harvest, scenario.grid.tau)
        for row, user in zip(full, scenario.users)])
    # the floored rows are nonnegative and 0 where pinned, so this is their
    # _penalized_objective
    if -fun(candidate[free]) >= _penalized_objective(policy, scenario,
                                                     rate_model, eps, lam):
        return candidate, res
    return policy, res


def solve_with_data(scenario: Scenario, rate_model: RateModel,
                    max_sweeps: int = 200, tol: float = 1e-7,
                    violation_tol: float = 1e-4):
    """Best-effort schedule under energy AND data causality.

    With both users' backlogs infinite this is ``iterate_offline``'s
    problem: its answer, or ``ConvergenceError`` with the last policy
    attached when ``max_sweeps`` sweeps do not settle it.

    With finite data, after ``resolve_contradictions``, an instance where some
    user's battery forces it to send more than ``violation_tol`` nats beyond
    its arrived data (``forced_departures``) has no policy that can pass: it
    raises ``InvalidInputError`` naming the user, the slot, the forced and the
    arrived nats, before round zero.  Otherwise outer rounds grow the penalty
    coefficient (1, 4, 16, ...) and update the multipliers after each round;
    each round is one SLSQP solve of the augmented-Lagrangian objective over
    both users' powers, scaled by the sum rate's curvature (``_round_scales``)
    and warm-started from the previous round (round zero is ``iterate_offline``
    with ``max_sweeps`` and ``tol``).  Terminates once the largest violation is
    at or below ``violation_tol``; after ``_MAX_ROUNDS`` rounds it raises
    ``ConvergenceError`` with the last policy attached, whose message counts
    the round solves that SLSQP reported as failed.
    """
    if not (np.isfinite(violation_tol) and violation_tol > 0.0):
        raise InvalidInputError("violation_tol must be positive and finite")
    scen = validate_scenario(scenario)
    if all(u.data.is_infinite for u in scen.users):
        policy, report = iterate_offline(scen, rate_model, max_sweeps, tol)
        if not report.converged:
            raise ConvergenceError("iterative solve did not converge",
                                   best_policy=policy)
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
        policy, res = _penalty_round(scen, rate_model, policy, eps, lam,
                                     corridor)
        # lam <- max(0, lam + 2 eps g), which is 2 eps times the hinges
        lam = 2.0 * eps * _hinges(departures(policy, scen, rate_model),
                                  cum_b, lam / (2.0 * eps))
        report.inner_failures += not res.success
        report.inner_steps += res.nit
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
