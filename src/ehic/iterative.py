"""Two-user block coordinate ascent on the joint throughput objective.

Each half-sweep fixes one user's power vector and re-solves the other user's
single-user problem, whose slot utilities are the joint rate restricted to
that user's power (constants in the fixed user's power are retained so the
per-sweep objectives are directly comparable).  For a jointly concave rate
the alternation converges to the optimum; sweeps run user 1 then user 2 and
stop when both the objective improvement and the policy displacement fall
below tolerance.

Where to start: in the a*b > 1 region (either orientation) the sum rate is
smooth and jointly concave, and the alternation starts from ``joint_start``,
a log-barrier Newton method on both users at once whose Newton systems are
block-tridiagonal and cost O(N).  From it the alternation certifies in one
sweep on every fig8 seed (80 sweeps over seeds 0-79, against 883 from
zeros; fig7 1 against 38).  The start decides nothing: the same alternation
runs from it, every block solve is checked by ``verify_kkt``, and the same
convergence tests end it.

Each block solve is offered the block's current row as its start, and
returns it unsolved when its certificate already meets the tolerance
(counted in ``SolveReport.certified_starts``).  Each user's constraints
involve only that user, so where the sum rate is smooth and jointly concave
a point at which both blocks certify is the joint optimum.  At the barrier
gap ``_GAP_TOL`` of 1e-10 the joint start itself certifies both blocks on
77 of the 80 fig8 seeds, and the certifying sweep costs two certificates.
A smaller gap certifies more (all 80 from 3e-11 down), but from 5e-11 down
the N=400 start touches its corridor in floating point.

Elsewhere (the min-form a*b <= 1 region with its kink, very strong,
generic) the alternation starts from zeros, and a geometric
extrapolation along the sweep direction shortens the cold alternation:
without it, mean sweeps rise from 11.0 to 19.3 over fig8 seeds 0-79 from
zeros and from 11.6 to 16.7 at a=0.5, b=1.5, N=50 (seeds 0-19).

No proximal term is needed: in the regions with a known sum capacity the
slot utilities are strictly concave, so each block optimum is unique, and
the single-user solver breaks ties under flat marginals deterministically
(consume late).

A sweep counts as converged once its objective gain is at most
``_OBJECTIVE_TOL`` relative and its largest power change at most
``_DISPLACEMENT_TOL`` relative to max(1, largest power): the block solves'
own sweep-to-sweep jitter grows with the powers (5e-7 at powers of 2e3), so
an absolute bound cannot be met once powers reach the thousands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError, ShapeError
from .model import Scenario, energy_bounds, validate_scenario
from .rates import RateModel, Region
from .single_user import (GenericSlotUtilities, InterferedUtilities,
                          PiecewiseMinUtilities, ScaledLogUtilities,
                          SlotUtilities, solve_single_user)

_OBJECTIVE_TOL = 1e-9      # relative objective gain of a converged sweep
_DISPLACEMENT_TOL = 1e-7   # largest power change of a converged sweep,
                           # relative to max(1, largest power)


@dataclass
class SolveReport:
    """Trace of a solver run: objective per half-sweep plus convergence data."""

    objective_trace: list = field(default_factory=list)
    displacement_trace: list = field(default_factory=list)
    sweeps_used: int = 0
    start_steps: int = 0     # Newton steps of the joint start (0: not run)
    certified_starts: int = 0   # block solves that returned their start
    converged: bool = False
    final_displacement: float = float("nan")
    # populated by the data-arrival solver only
    rounds_used: int = 0
    final_violation: float = 0.0
    violation_trace: list = field(default_factory=list)
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


def block_tridiag_solve(diag, off, rhs) -> np.ndarray:
    """Solve a symmetric block-tridiagonal system with 2x2 blocks in O(N).

    ``diag`` (N, 2, 2) holds the diagonal blocks, ``off`` (N-1, 2, 2) the
    blocks coupling block n (rows) to block n+1 (columns), and ``rhs`` is
    (N, 2).  Block Gaussian elimination without pivoting, so the matrix must
    be positive definite (a barrier Hessian is).  The sweep runs on Python
    floats: at the N of interest a loop over 2x2 blocks costs less than the
    per-call overhead of numpy on them.
    """
    n = rhs.shape[0]
    d = np.asarray(diag, dtype=float).reshape(n, 4).tolist()
    b = np.asarray(off, dtype=float).reshape(max(n - 1, 0), 4).tolist()
    r = np.asarray(rhs, dtype=float).tolist()
    cs, ys = [], []
    c00 = c01 = c10 = c11 = y0 = y1 = 0.0
    for i in range(n):
        m00, m01, m10, m11 = d[i]
        r0, r1 = r[i]
        if i:
            # subtract A_i C_{i-1} and A_i y_{i-1}, where A_i = off[i-1]^T
            e00, e01, e10, e11 = b[i - 1]
            m00 -= e00 * c00 + e10 * c10
            m01 -= e00 * c01 + e10 * c11
            m10 -= e01 * c00 + e11 * c10
            m11 -= e01 * c01 + e11 * c11
            r0 -= e00 * y0 + e10 * y1
            r1 -= e01 * y0 + e11 * y1
        det = m00 * m11 - m01 * m10
        i00, i01, i10, i11 = m11 / det, -m01 / det, -m10 / det, m00 / det
        y0, y1 = i00 * r0 + i01 * r1, i10 * r0 + i11 * r1
        ys.append((y0, y1))
        if i < n - 1:
            e00, e01, e10, e11 = b[i]
            c00, c01 = i00 * e00 + i01 * e10, i00 * e01 + i01 * e11
            c10, c11 = i10 * e00 + i11 * e10, i10 * e01 + i11 * e11
            cs.append((c00, c01, c10, c11))
    x = [None] * n
    x0, x1 = ys[-1]
    x[-1] = (x0, x1)
    for i in range(n - 2, -1, -1):
        c00, c01, c10, c11 = cs[i]
        y0, y1 = ys[i]
        x0, x1 = y0 - (c00 * x0 + c01 * x1), y1 - (c10 * x0 + c11 * x1)
        x[i] = (x0, x1)
    return np.array(x)


_GAP_TOL = 1e-10      # the joint start stops once the barrier gap m/t is below
_MAX_NEWTON = 300     # Newton step cap of the joint start
_T_GROWTH = 10.0      # barrier weight factor per centering
_CENTERED = 1e-6      # Newton decrement^2 / 2 that counts as centered
_FULL_STEP = 0.25     # Newton decrement^2 below which no line search is run
_T_START = 1e4        # first barrier weight over m / (total harvest)


def joint_start(scenario: Scenario, rate_model: RateModel):
    """Both users' joint optimum in the a*b > 1 region, by barrier Newton.

    Maximizes tau * sum_n r(p_1n, p_2n) over the cumulative consumptions
    S_jn = tau * sum_{i<=n} p_ji, where the sum rate is smooth and jointly
    concave (Boyd & Vandenberghe, Convex Optimization, ch. 11).  Log
    barriers keep S above its floor (the battery corridor's lower bound made
    monotone), below the cumulative harvest and increasing in n, which is
    p > 0; barriers that another one implies are left out.  Entries whose
    corridor has zero width are pinned and dropped from the Newton system:
    slots before a user's first arrival, slots followed by an arrival of a
    full battery, and the last slot (the rate grows in each power, so all
    energy is spent).  Each Newton system is block-tridiagonal with 2x2
    blocks, since the users couple only within a slot.

    Steps stop at the boundary fraction 0.99 and backtrack while the Newton
    decrement is large.  The barrier weight t starts where the objective's
    pull far outweighs that of barriers at their mean slack (a smaller start
    spends its steps centering far from the optimum), and grows by
    ``_T_GROWTH`` per centering until the duality gap m/t (m barriers) is at
    most ``_GAP_TOL``; each new centering starts from a step along the central
    path's tangent taken linear in 1/t, which is exact for the slack of an
    active constraint (it shrinks as 1/t).  The barriers' arguments are
    carried and updated by their own increments instead of being recomputed
    from S: near the end they are around 1/t, far below the resolution of S
    itself, and the line search compares merits through those relative
    changes for the same reason.

    Returns ``(policy, newton_steps)`` in the caller's user order.  Never
    raises: at the step cap, or on a numerical breakdown, it returns its last
    strictly feasible iterate.  Nothing certifies this start; the
    alternation that follows it does.
    """
    n, tau = scenario.grid.N, scenario.grid.tau
    order = [1, 0] if rate_model.mirrored else [0, 1]
    a = rate_model.canonical_gains[0]
    floor = np.empty((2, n))
    upper = np.empty((2, n))
    for row, j in enumerate(order):
        lower, upper[row] = energy_bounds(scenario.users[j].harvest, tau)
        floor[row] = np.maximum.accumulate(lower)
    floor[:, -1] = upper[:, -1]
    pinned = upper - floor <= 1e-12 * max(1.0, float(np.max(upper[:, -1])))
    free = ~pinned
    # a strictly feasible start: weights rising in n keep the increments
    # positive between a nondecreasing floor and harvest
    w = np.arange(1, n + 1) / (n + 1.0)
    cum = np.where(pinned, upper, floor + w * (upper - floor))
    # active barriers: increments touching a free entry, floors that rise,
    # and cumulative harvests that grow in the next slot
    mono = free.copy()
    mono[:, 1:] |= free[:, :-1]
    rises = floor > np.concatenate([np.zeros((2, 1)), floor[:, :-1]], axis=1)
    grows = np.zeros((2, n), dtype=bool)
    grows[:, :-1] = upper[:, :-1] < upper[:, 1:]
    lo_idx = np.flatnonzero(free & rises)
    up_idx = np.flatnonzero(free & grows)
    # the state z holds every increment tau*p (pinned pairs' ones are
    # constant), then the floor slacks, then the harvest slacks; barriers
    # act on z[act]
    flat = cum.ravel()
    z = np.concatenate([np.diff(cum, axis=1, prepend=0.0).ravel(),
                        flat[lo_idx] - floor.ravel()[lo_idx],
                        upper.ravel()[up_idx] - flat[up_idx]])
    act = np.concatenate([np.flatnonzero(mono),
                          np.arange(2 * n, z.size)])
    m = act.size

    def to_policy(z):
        return z[:2 * n].reshape(2, n)[order] / tau

    if m == 0 or z[act].min() <= 0.0:
        return to_policy(z), 0

    def direction(ds):
        """Change of z along a change ``ds`` of S."""
        dd = ds.copy()
        dd[:, 1:] -= ds[:, :-1]
        flat = ds.ravel()
        return np.concatenate([dd.ravel(), flat[lo_idx], -flat[up_idx]])

    def boundary_step(dz, z):
        """Largest step along dz, up to 1, keeping 1% of every argument."""
        worst = -float((dz[act] / z[act]).min())
        return 1.0 if worst <= 0.99 else 0.99 / worst

    def merit_change(z, dz, t):
        """Change of -t * objective - sum(log args) from z to z + dz, from
        the relative changes (the merit itself is too large to difference
        once t is)."""
        p = z[:2 * n].reshape(2, n) / tau
        dp = dz[:2 * n].reshape(2, n) / tau
        v = 1.0 + a * p[1]
        dv = a * dp[1]
        rate = (np.log1p((dv + dp[0]) / (v + p[0])) - np.log1p(dv / v)
                + np.log1p(dp[1] / (1.0 + p[1])))
        return (-0.5 * t * tau * float(rate.sum())
                - float(np.log1p(dz[act] / z[act]).sum()))

    keep = ~mono
    fw = free.astype(float)
    # pinned rows and columns of the Newton system become the identity
    dw = (fw[0], fw[0] * fw[1], fw[1])
    ow = (fw[0, :-1] * fw[0, 1:], fw[0, :-1] * fw[1, 1:],
          fw[1, :-1] * fw[0, 1:], fw[1, :-1] * fw[1, 1:])
    diag = np.empty((n, 2, 2))
    off = np.empty((n - 1, 2, 2))
    hpad = np.zeros((3, n + 1))
    n_lo = lo_idx.size
    t = _T_START * m / max(1.0, float(np.sum(upper[:, -1])))
    steps = 0
    with np.errstate(all="ignore"):
        while steps < _MAX_NEWTON:
            d = z[:2 * n].reshape(2, n)
            sl = z[2 * n:2 * n + n_lo]
            su = z[2 * n + n_lo:]
            p1, p2 = d / tau
            v = 1.0 + a * p2
            # gradient and negated Hessian of the sum rate in (p_1, p_2)
            g1 = 0.5 / (v + p1)
            av = 0.5 * a / v
            hy = 0.5 / (1.0 + p2)
            g2 = a * g1 - av + hy
            k11 = 2.0 * g1 * g1
            k12 = a * k11
            k22 = a * k12 - 2.0 * av * av + 2.0 * hy * hy
            # the same in the increments, times t, plus their barrier
            inv_d = 1.0 / d
            inv_d[keep] = 0.0
            tg = t * np.vstack([g1, g2])
            grad = -tg - inv_d
            grad[:, :-1] -= grad[:, 1:].copy()
            gflat = grad.ravel()
            gflat[lo_idx] -= 1.0 / sl
            gflat[up_idx] += 1.0 / su
            grad *= fw
            c = t / tau
            hpad[0, :n] = c * k11 + inv_d[0] * inv_d[0]
            hpad[1, :n] = c * k12
            hpad[2, :n] = c * k22 + inv_d[1] * inv_d[1]
            # S-space blocks: D^T blockdiag(H) D plus the slack curvature
            hsum = hpad[:, :n] + hpad[:, 1:]
            box = np.zeros(2 * n)
            box[lo_idx] += sl ** -2.0
            box[up_idx] += su ** -2.0
            box = box.reshape(2, n)
            diag[:, 0, 0] = (hsum[0] + box[0]) * dw[0] + pinned[0]
            diag[:, 0, 1] = diag[:, 1, 0] = hsum[1] * dw[1]
            diag[:, 1, 1] = (hsum[2] + box[1]) * dw[2] + pinned[1]
            h1 = hpad[:, 1:n]
            off[:, 0, 0] = -h1[0] * ow[0]
            off[:, 0, 1] = -h1[1] * ow[1]
            off[:, 1, 0] = -h1[1] * ow[2]
            off[:, 1, 1] = -h1[2] * ow[3]
            try:
                ds = block_tridiag_solve(diag, off, -grad.T).T
            except ZeroDivisionError:
                break
            decrement = -float(np.sum(grad * ds))
            if not (np.isfinite(decrement) and decrement >= 0.0):
                break
            if decrement <= 2.0 * _CENTERED:
                if m / t <= _GAP_TOL:
                    break
                # predict the next center along the path's tangent in 1/t:
                # dS/dt = H^-1 grad F, scaled by (1 - 1/growth) * t
                tg[:, :-1] -= tg[:, 1:].copy()
                tg *= (1.0 - 1.0 / _T_GROWTH) * fw
                try:
                    move = direction(block_tridiag_solve(diag, off, tg.T).T)
                except ZeroDivisionError:
                    break
                z = z + boundary_step(move, z) * move
                t *= _T_GROWTH
                continue
            dz = direction(ds)
            alpha = boundary_step(dz, z)
            if decrement > _FULL_STEP:
                while (alpha > 1e-12 and merit_change(z, alpha * dz, t)
                       > -0.25 * alpha * decrement):
                    alpha *= 0.5
            steps += 1
            cand = z + alpha * dz
            if alpha <= 1e-12 or not cand[act].min() > 0.0:
                break
            z = cand
    return to_policy(z), steps


def iterate_offline(scenario: Scenario, rate_model: RateModel,
                    max_sweeps: int = 200, tol: float = 1e-7):
    """Alternating single-user solves until the joint objective settles.

    Starts from ``joint_start`` in the a*b > 1 region and from zeros
    elsewhere, floored onto each user's energy corridor.  Every block solve
    must reach KKT residuals of at most ``tol``.  Data-arrival constraints
    are ignored here (infinite-backlog problem); the data-aware solver wraps
    this routine.  Returns ``(policy, report)`` with a nondecreasing
    half-sweep objective trace; ``report.converged`` is False when
    ``max_sweeps`` sweeps did not settle.
    """
    if max_sweeps < 1:
        raise InvalidInputError("max_sweeps must be at least 1")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInputError("tol must be positive and finite")
    scen = validate_scenario(scenario)
    tau = scen.grid.tau
    start, start_steps = np.zeros((2, scen.grid.N)), 0
    if rate_model.region is Region.ASYMMETRIC_AB_ABOVE_ONE:
        start, start_steps = joint_start(scen, rate_model)
    policy = np.vstack([feasible_floor(start[j], scen.users[j].harvest, tau)
                        for j in range(2)])
    obj = joint_objective(policy, scen, rate_model)
    report = SolveReport(objective_trace=[obj], start_steps=start_steps)
    scale = max(1.0, abs(obj))
    prev_disp = None
    for sweep in range(1, max_sweeps + 1):
        prev_policy = policy.copy()
        sweep_start_obj = obj
        for user in (0, 1):
            utils = build_subproblem(scen, rate_model, user, policy[1 - user])
            row, _cert = solve_single_user(utils, scen.users[user].harvest,
                                           scen.grid, tol=tol,
                                           start=policy[user])
            # a row equal to its start means the start certified: a solved
            # row that equal would have certified as the start already
            report.certified_starts += int(np.array_equal(row, policy[user]))
            candidate = policy.copy()
            candidate[user] = row
            cand_obj = joint_objective(candidate, scen, rate_model)
            if cand_obj >= obj - 1e-12 * scale:
                policy, obj = candidate, cand_obj
            report.objective_trace.append(obj)
        disp = float(np.max(np.abs(policy - prev_policy)))
        report.displacement_trace.append(disp)
        report.sweeps_used = sweep
        scale = max(1.0, abs(obj))
        disp_tol = _DISPLACEMENT_TOL * max(1.0, float(np.max(np.abs(policy))))
        if obj - sweep_start_obj <= _OBJECTIVE_TOL * scale and disp <= disp_tol:
            report.converged = True
            break
        # geometric extrapolation along the sweep direction, accepted only
        # when it does not hurt the objective (keeps the trace monotone and
        # the fixed point unchanged; it merely skips contraction steps)
        if (prev_disp is not None and disp > disp_tol
                and disp < 0.999 * prev_disp):
            rho = disp / prev_disp
            theta = min(rho / (1.0 - rho), 50.0)
            jumped = policy + theta * (policy - prev_policy)
            jumped = np.vstack([
                feasible_floor(jumped[j], scen.users[j].harvest, tau)
                for j in range(2)])
            jumped_obj = joint_objective(jumped, scen, rate_model)
            if jumped_obj >= obj - 1e-12 * scale:
                policy, obj = jumped, jumped_obj
        prev_disp = disp
    report.final_displacement = report.displacement_trace[-1]
    return policy, report
