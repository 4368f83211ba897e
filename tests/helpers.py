"""Shared builders for test scenarios."""

from unittest import mock

import numpy as np

from ehic import iterative
from ehic.model import (DataProfile, HarvestProfile, Scenario, TimeGrid, User,
                        validate_scenario)
from ehic.rates import ChannelParams


def two_user_scenario(e1, e2, emax, a, b, tau=1.0, b1=None, b2=None,
                      emax2=None):
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    n = e1.shape[0]
    d1 = DataProfile(np.asarray(b1, dtype=float)) if b1 is not None \
        else DataProfile.infinite()
    d2 = DataProfile(np.asarray(b2, dtype=float)) if b2 is not None \
        else DataProfile.infinite()
    users = (User(HarvestProfile(e1, emax), d1),
             User(HarvestProfile(e2, emax if emax2 is None else emax2), d2))
    return validate_scenario(Scenario(TimeGrid(n, tau), users,
                                      ChannelParams(a, b)))


def single_user_scenario(e, emax, b_arr=None, tau=1.0, a=0.5, b=2.0,
                         partner_emax=None):
    """Two-user scenario with a dormant (zero-harvest) second user."""
    e = np.asarray(e, dtype=float)
    return two_user_scenario(e, np.zeros_like(e), emax, a, b, tau=tau,
                             b1=b_arr,
                             emax2=partner_emax if partner_emax else emax)


def lattice_arrivals(rng, n, emax, step=0.05):
    """Random arrival vector on the oracle lattice (keeps gaps quadratic)."""
    k = int(round(emax / step))
    return np.minimum(rng.integers(0, k + 1, n) * step, emax)


def _zero_start(scens, rate_model):
    """A stand-in for ``iterative.joint_start``: zeros, no steps."""
    zeros = np.zeros(len(scens))
    return np.zeros((len(scens), 2, scens[0].grid.N)), zeros, zeros


def _iterate_from(start, scen, rm):
    """``iterate_offline`` with ``start`` in place of the joint start."""
    with mock.patch.object(iterative, "joint_start", start):
        return iterative.iterate_offline(scen, rm)


def loop_value_iteration(stats, rate_model, grid, tau):
    """Reference for ``online.value_iteration``: the per-action loop it
    replaced.  One interpolator call per (p1, p2) pair; the first maximum in
    (p1, p2) order wins."""
    from scipy.interpolate import RegularGridInterpolator

    from ehic.online import DPResult, _slot_outcomes

    n = stats.n_slots
    axes = [grid.e1, grid.e2]
    shape = (len(grid.e1), len(grid.e2))
    e1f, e2f = (m.ravel() for m in np.meshgrid(*axes, indexing="ij"))
    n_states = e1f.shape[0]
    acts1 = grid.e1 / tau
    acts2 = grid.e2 / tau
    values = np.zeros((n + 1,) + shape)
    policies = np.zeros((n,) + shape + (2,))
    for i in range(n - 1, -1, -1):
        interp = RegularGridInterpolator(axes, values[i + 1],
                                         bounds_error=False, fill_value=None)
        outcomes = _slot_outcomes(stats, i)
        best = np.full(n_states, -np.inf)
        best_act = np.zeros((n_states, 2))
        for p1 in acts1:
            feas1 = e1f + 1e-12 >= p1 * tau
            if not np.any(feas1):
                continue
            for p2 in acts2:
                feas = feas1 & (e2f + 1e-12 >= p2 * tau)
                if not np.any(feas):
                    continue
                r_sum = float(rate_model.sum_rate(p1, p2))
                idx = np.nonzero(feas)[0]
                total = np.full(idx.shape[0], tau * r_sum)
                for ev, prob in outcomes:
                    ne1 = np.clip(e1f[idx] - p1 * tau + ev[0], 0.0,
                                  grid.e1[-1])
                    ne2 = np.clip(e2f[idx] - p2 * tau + ev[1], 0.0,
                                  grid.e2[-1])
                    total += prob * interp(np.column_stack([ne1, ne2]))
                better = total > best[idx]
                sel = idx[better]
                best[sel] = total[better]
                best_act[sel, 0] = p1
                best_act[sel, 1] = p2
        values[i] = best.reshape(shape)
        policies[i] = best_act.reshape(shape + (2,))
    return DPResult(values=values, policies=policies, grid=grid)


def loop_search_batteries(scenario, rate_model, opts):
    """Reference for ``oracle._search_batteries``: the per-(s1, s2) slice
    loop it replaced.  Strict improvement, so the smallest action wins."""
    from ehic.oracle import _lattice, _rate_tables

    n = scenario.grid.N
    tau = scenario.grid.tau
    dp = opts.power_grid_step
    _quantum, caps, arr = _lattice(scenario, opts)
    k1, k2 = caps
    r_total = tau * _rate_tables(rate_model, caps, dp)
    value = np.zeros((k1 + 1, k2 + 1))
    actions = []
    for i in range(n - 1, -1, -1):
        new_val = np.full((k1 + 1, k2 + 1), -np.inf)
        act = np.zeros((k1 + 1, k2 + 1, 2), dtype=np.int32)
        last = i == n - 1
        a1n = 0 if last else int(arr[0][i + 1])
        a2n = 0 if last else int(arr[1][i + 1])
        for s1 in range(k1 + 1):
            lo1, hi1 = s1, k1 if last else min(k1, k1 + s1 - a1n)
            if hi1 < lo1:
                continue
            for s2 in range(k2 + 1):
                lo2, hi2 = s2, k2 if last else min(k2, k2 + s2 - a2n)
                if hi2 < lo2:
                    continue
                if last:
                    cand = r_total[s1, s2]
                else:
                    cand = r_total[s1, s2] + value[
                        lo1 - s1 + a1n:hi1 - s1 + a1n + 1,
                        lo2 - s2 + a2n:hi2 - s2 + a2n + 1]
                blk = new_val[lo1:hi1 + 1, lo2:hi2 + 1]
                better = cand > blk
                if np.any(better):
                    np.copyto(blk, cand, where=better)
                    act[lo1:hi1 + 1, lo2:hi2 + 1][better] = (s1, s2)
        value = new_val
        actions.append(act)
    actions.reverse()

    b1 = min(int(arr[0][0]), k1)
    b2 = min(int(arr[1][0]), k2)
    policy = np.zeros((2, n))
    objective = 0.0
    for i in range(n):
        s1, s2 = actions[i][b1, b2]
        policy[0, i] = s1 * dp
        policy[1, i] = s2 * dp
        objective += float(r_total[s1, s2])
        if i < n - 1:
            b1 = b1 - int(s1) + int(arr[0][i + 1])
            b2 = b2 - int(s2) + int(arr[1][i + 1])
    return policy, objective


def bisect_equalize(utilities, idx, target):
    """Reference for ``single_user._equalize``: the level search it replaced.
    A bisection first turn, Newton in the level clamped to 2% of the bracket
    from each end, and fresh probes at both bracket ends for the
    distributor."""
    from ehic.errors import ConvergenceError

    _INF = np.inf
    m = idx.shape[0]
    if target <= 1e-15 * (1.0 + abs(target)):
        return np.zeros(m)
    hi = float(np.max(utilities.deriv_at_zero[idx]))
    # find lo with total demand at least target: descend from hi through 0
    # and into negative levels if the utilities ever slope down
    lo = None
    level = hi
    for _ in range(200):
        if level > 0.0:
            level = 0.0 if level < 1e-280 else 0.5 * level
        elif level == 0.0:
            level = -1.0
        else:
            level = 2.0 * level
        if np.sum(utilities.inv_deriv(level, idx)) >= target:
            lo = level
            break
    if lo is None:
        raise ConvergenceError(
            "forced consumption exceeds the range of the slot utilities")
    # bracketed root search on the monotone total-demand curve: a Newton step
    # (analytic demand slope) or a secant step alternates with plain bisection
    # so the bracket provably halves every other iteration; plateaus and
    # jumps always fall back to bisection
    t_lo, t_hi = None, 0.0   # total demand at lo (>= target) and hi (<= target)
    newton_from = None       # (level, total, slope) at the last probe
    fast_turn = False
    last_err = _INF
    exit_tol = 1e-12 * (1.0 + target)
    for _ in range(200):
        width = hi - lo
        if width <= 1e-15 * max(abs(hi), abs(lo), 1e-12):
            break
        mid = None
        if fast_turn:
            if newton_from is not None:
                lvl, tot, slope = newton_from
                if np.isfinite(slope) and slope < 0.0:
                    mid = lvl - (tot - target) / slope
            if mid is None and t_lo is not None and np.isfinite(t_lo) \
                    and t_lo > t_hi:
                mid = lo + (t_lo - target) * width / (t_lo - t_hi)
            if mid is not None:
                if not (lo + 0.02 * width <= mid <= hi - 0.02 * width):
                    mid = min(max(mid, lo + 0.02 * width), hi - 0.02 * width)
        if mid is None:
            mid = 0.5 * (lo + hi)
        qmin = qmax = utilities.inv_deriv(mid, idx)
        tmin = float(np.sum(qmin))
        err = abs(tmin - target)
        # stay on Newton while it contracts quadratically, else alternate
        # with bisection so the bracket provably halves every other step
        fast_turn = (err <= 0.25 * last_err) or not fast_turn
        last_err = err
        newton_from = (mid, tmin, utilities.inv_deriv_slope(mid, idx, qmin))
        if tmin > target:
            lo, t_lo = mid, tmin
            if err <= exit_tol:
                hi = mid   # overshoot is dust; trimmed by the distributor
                break
        elif np.sum(qmax) >= target:
            lo = hi = mid
            break
        else:
            hi, t_hi = mid, tmin
            if err <= exit_tol:
                break
    qmin = utilities.inv_deriv(hi, idx)
    qmax = utilities.inv_deriv(lo, idx)
    powers = qmin.copy()
    extra = target - float(np.sum(powers))
    if extra > 0.0:
        room = qmax - powers
        for k in range(m - 1, -1, -1):       # latest slots first
            take = min(room[k], extra)
            if take > 0.0:
                powers[k] += take
                extra -= take
            if extra <= 1e-18 * (1.0 + target):
                break
        if extra > 0.0:
            powers[-1] += extra
    elif extra < 0.0:
        for k in range(m - 1, -1, -1):
            take = min(powers[k], -extra)
            powers[k] -= take
            extra += take
            if extra >= -1e-18 * (1.0 + target):
                break
    return powers


def reference_verify_kkt(policy_row, utilities, harvest, grid):
    """Reference for ``single_user.verify_kkt``: the same certificate with
    its per-slot passes on numpy scalars and arrays, as it was written before
    they moved to Python floats.  Both must agree bit for bit."""
    import math

    from ehic.errors import InfeasiblePolicyError
    from ehic.single_user import KKTCertificate

    _INF = np.inf
    p = np.asarray(policy_row, dtype=float)
    n = grid.N
    if p.shape != (n,):
        raise InfeasiblePolicyError(f"policy row must have shape ({n},)")
    if not np.all(np.isfinite(p)):
        # NaN compares false everywhere below and would certify as optimal
        raise InfeasiblePolicyError("policy row must be finite")
    tau = grid.tau
    # the corridor and the binding scale from the arrivals, independent of
    # the program's Corridor record
    scale_e = max(1.0, harvest.capacity)
    binding_tol = 1e-7 * scale_e
    cum_e = np.cumsum(harvest.arrivals)
    upper = cum_e
    l_raw = np.empty(n)
    l_raw[:-1] = cum_e[1:] - harvest.capacity if n > 1 else 0.0
    l_raw[-1] = -_INF                      # no capacity bound after the end
    s = tau * np.cumsum(p)
    feas_tol = 1e-6 * scale_e
    worst = max(float(np.max(s - upper)),
                float(np.max(l_raw[:-1] - s[:-1])) if n > 1 else 0.0,
                float(np.max(-p)) * tau)
    if worst > feas_tol:
        raise InfeasiblePolicyError(
            f"policy violates the energy corridor by {worst:.3g}",
            report={"violation": worst})

    g_lo, g_hi = utilities.deriv_range(np.maximum(p, 0.0))
    g_lo, g_hi = np.atleast_1d(g_lo), np.atleast_1d(g_hi)
    pos = p > 1e-11 * max(1.0, scale_e / tau)
    empty = (upper - s) <= binding_tol
    full = np.zeros(n, dtype=bool)
    if n > 1:
        full[:-1] = (s[:-1] - l_raw[:-1]) <= binding_tol

    # backward pass: propagate the interval of admissible levels.  The level
    # may rise across boundary k only while the battery is empty there, and
    # fall only while it is full.  A positive-power slot requires the level
    # to lie in its derivative interval (a point unless the utility has a
    # kink at p); an idle slot only bounds the level below.
    stat_resid = 0.0
    intervals = np.empty((n, 2))
    j_lo, j_hi = 0.0, 0.0
    for k in range(n - 1, -1, -1):
        b_lo = -_INF if (k < n - 1 and full[k]) else j_lo
        b_hi = _INF if empty[k] else j_hi
        if pos[k]:
            i_lo, i_hi = max(g_lo[k], b_lo), min(g_hi[k], b_hi)
            if i_lo > i_hi:
                gap = max(g_lo[k] - b_hi, b_lo - g_hi[k])
                stat_resid = max(stat_resid, gap)
                d = b_hi if g_lo[k] > b_hi else b_lo
                i_lo = i_hi = d
        else:
            if b_hi >= g_lo[k]:
                i_lo, i_hi = max(g_lo[k], b_lo), b_hi
            else:
                stat_resid = max(stat_resid, g_lo[k] - b_hi)
                i_lo = i_hi = b_hi
        intervals[k] = (i_lo, i_hi)
        j_lo, j_hi = i_lo, i_hi

    # forward pass: concrete levels, moving only as the constraints allow and
    # as little as possible (smallest multipliers)
    lam = np.zeros(n)
    mu = np.zeros(max(n - 1, 0))
    eta = np.zeros(n)
    levels = np.zeros(n)
    d_prev = None
    for k in range(n):
        i_lo, i_hi = intervals[k]
        if d_prev is None:
            d = i_lo if math.isfinite(i_lo) else min(i_hi, 0.0)
        else:
            # increment d_prev - d must lie in the allowed set of boundary k-1
            a_lo = -_INF if (k - 1 < n - 1 and full[k - 1]) else 0.0
            a_hi = _INF if empty[k - 1] else 0.0
            r_lo, r_hi = d_prev - a_hi, d_prev - a_lo
            lo, hi = max(i_lo, r_lo), min(i_hi, r_hi)
            if lo > hi:   # only via accumulated residual dust
                lo = hi = min(max(d_prev, i_lo), i_hi)
            d = min(max(d_prev, lo), hi)
            delta = d_prev - d
            if empty[k - 1]:
                lam[k - 1] = max(0.0, delta)
            if k - 1 < n - 1 and full[k - 1]:
                mu[k - 1] = max(0.0, -delta)
        if not pos[k]:
            eta[k] = tau * max(0.0, d - g_lo[k])
        levels[k] = d
        d_prev = d
    # closing boundary at the deadline
    if empty[n - 1]:
        lam[n - 1] = max(0.0, d_prev)
    elif d_prev > binding_tol:
        stat_resid = max(stat_resid, d_prev)

    comp = 0.0
    for k in range(n):
        comp = max(comp, lam[k] * max(0.0, upper[k] - s[k]))
        if k < n - 1:
            comp = max(comp, mu[k] * max(0.0, s[k] - l_raw[k]))
        comp = max(comp, eta[k] * max(0.0, p[k]))
    return KKTCertificate(lam=lam, mu=mu, eta=eta, water_levels=levels,
                          stationarity_residual=float(stat_resid),
                          complementarity_residual=float(comp))


def enumerate_forced_departures(scenario, rate_model, user, step):
    """Reference for ``data_causality.forced_departures``: the least nats
    ``user`` sends through each slot over every lattice path S of step
    ``step`` through its corridor, with the partner at min(capacity, total
    harvest) / tau.  The corridor comes from the arrivals here, not from the
    program's ``Corridor``.  With arrivals and capacity on the lattice every
    vertex of the corridor lies on it, so for a concave rate the lattice
    minimum is the exact one."""
    tau = scenario.grid.tau
    n = scenario.grid.N
    harvest = scenario.users[user].harvest
    partner = scenario.users[1 - user].harvest
    p_partner = min(partner.capacity, float(np.sum(partner.arrivals))) / tau
    cum_e = np.cumsum(harvest.arrivals)
    floor = np.zeros(n)
    floor[:-1] = np.maximum(0.0, cum_e[1:] - harvest.capacity)
    ticks = np.round(cum_e / step).astype(int)
    floor_ticks = np.round(floor / step).astype(int)
    # every nondecreasing path, one slot at a time, in lattice ticks
    paths = np.zeros((1, 0), dtype=int)
    for k in range(n):
        last = paths[:, -1] if k else np.zeros(paths.shape[0], dtype=int)
        grown = [np.column_stack([paths[last <= t],
                                  np.full(np.count_nonzero(last <= t), t)])
                 for t in range(floor_ticks[k], ticks[k] + 1)]
        paths = np.vstack(grown)
    powers = np.diff(paths * step, axis=1, prepend=0.0) / tau
    pair = (powers, p_partner) if user == 0 else (p_partner, powers)
    nats = tau * np.asarray(rate_model.user_rates(*pair)[user])
    return np.min(np.cumsum(nats, axis=1), axis=0)


def loop_forced_departures(scenario, rate_model, user):
    """Reference for ``data_causality.forced_departures``: the same DP with
    a fresh block of nats in every slot, as it was written before slots with
    the same level ranges shared one.  Both must agree bit for bit."""
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
    start, cost = 0, np.zeros(1)
    for k in range(scenario.grid.N):
        step = (levels[first[k]:last[k]][None, :]
                - levels[start:start + cost.size][:, None])
        cost = np.min(np.where(step >= 0.0,
                               cost[:, None] + nats(np.maximum(step, 0.0)),
                               np.inf), axis=0)
        start = first[k]
        forced[k] = np.min(cost)
    return forced


def full_coordinate_round(scenario, rate_model, policy, eps, lam, corridor):
    """Reference for ``data_causality._penalty_round``: one SLSQP solve over
    all 2N powers, with every open corridor row of both users, as it was
    written before the powers pinned at 0 (U_n = 0) left the solve.  It is
    preconditioned as the round is: SLSQP works in y = x / d, with the free
    powers' scales from ``_round_scales`` and scale 1 on the pinned ones.
    ``corridor`` is ignored; the rows are built here."""
    from scipy.optimize import minimize

    from ehic.data_causality import (_joint_fun_and_grad,
                                     _penalized_objective, _round_scales)
    from ehic.iterative import feasible_floor

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
    free = np.array([u.harvest.corridor.upper > 0.0 for u in scenario.users])
    d = np.ones(2 * n)
    d[free.ravel()] = _round_scales(scenario, rate_model, policy, free)
    cols = np.arange(2 * n)
    jac = (sign * tau)[:, None] * ((cols >= rows[:, None] // n * n)
                                   & (cols <= rows[:, None])) * d
    constraint = {"type": "ineq",
                  "fun": lambda y: sign * (tau * np.cumsum(
                      (d * y).reshape(2, n), axis=1).ravel()[rows] - bound),
                  "jac": lambda y: jac}
    fun, grad = _joint_fun_and_grad(scenario, rate_model, eps, lam,
                                    np.ones((2, n), dtype=bool))
    res = minimize(lambda y: fun(d * y), policy.ravel() / d,
                   jac=lambda y: d * grad(d * y), method="SLSQP",
                   bounds=[(0.0, None)] * policy.size, constraints=constraint,
                   options={"ftol": 1e-12, "maxiter": 400})
    candidate = np.array([
        feasible_floor(row, user.harvest, tau)
        for row, user in zip((d * res.x).reshape(policy.shape),
                             scenario.users)])
    if -fun(candidate.ravel()) >= _penalized_objective(policy, scenario,
                                                       rate_model, eps, lam):
        return candidate, res
    return policy, res
