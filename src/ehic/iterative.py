"""Two-user block coordinate ascent on the joint throughput objective.

Each half-sweep fixes one user's power vector and re-solves the other user's
single-user problem, whose slot utilities are the joint rate restricted to
that user's power, given by its marginal in that power; the sweeps compare
``joint_objective``.  For a jointly concave rate the alternation converges to
the optimum; sweeps run user 1 then user 2 and stop when both the objective
improvement and the policy displacement fall below tolerance.

Where to start: in the a*b > 1 region (either orientation) the sum rate is
smooth and jointly concave, and the alternation starts from ``joint_start``,
a primal-dual interior-point method (Mehrotra's predictor-corrector) on
both users at once whose Newton systems are bands of half-width 3, solved
in O(N) by LAPACK's banded Cholesky.  It runs on a batch of scenarios that
share N, tau and channel, two LAPACK calls per iteration for all of them,
and gives each scenario the start it would get alone;
``iterate_offline_many`` batches its scenarios so, and ``iterate_offline``
is its batch of one.  From the joint start the alternation certifies in
one sweep on every fig8 seed (80 sweeps over seeds 0-79, against 883 from
zeros; fig7 1 against 38).  The start decides nothing: the same
alternation runs from it, every block solve is checked by ``verify_kkt``,
and the same convergence tests end it.

Each block solve is offered the block's current row as its start, and
returns it unsolved when its certificate already meets the tolerance
(counted in ``SolveReport.certified_starts``).  Each user's constraints
involve only that user, so where the sum rate is smooth and jointly concave
a point at which both blocks certify is the joint optimum.  At the joint
start's stopping gap ``_GAP_TOL`` of 1e-11 both blocks certify at the
start on fig7 and on all 80 fig8 seeds, so the certifying sweep costs two
certificates.

Elsewhere (the min-form a*b <= 1 region with its kink, very strong) the
alternation starts from zeros, and a geometric extrapolation along the sweep
direction shortens the cold alternation: without it, mean sweeps rise from
11.0 to 19.3 over fig8 seeds 0-79 from zeros and from 11.6 to 16.7 at
a=0.5, b=1.5, N=50 (seeds 0-19).

No proximal term is needed: in the regions with a known sum capacity the
slot utilities are strictly concave, so each block optimum is unique.

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
from scipy.linalg.lapack import dpbsv as _dpbsv

from .errors import InvalidInputError, ShapeError
from .model import Scenario, validate_scenario
from .rates import RateModel, Region
from .single_user import (InterferedUtilities, PiecewiseMinUtilities,
                          ScaledLogUtilities, SlotUtilities,
                          solve_single_user)

_OBJECTIVE_TOL = 1e-9      # relative objective gain of a converged sweep
_DISPLACEMENT_TOL = 1e-7   # largest power change of a converged sweep,
                           # relative to max(1, largest power)


@dataclass
class SolveReport:
    """Trace of a solver run: objective per half-sweep plus convergence data."""

    objective_trace: list = field(default_factory=list)
    displacement_trace: list = field(default_factory=list)
    sweeps_used: int = 0
    start_steps: int = 0     # interior-point iterations of the joint start
                             # (0: not run)
    certified_starts: int = 0   # block solves that returned their start
    converged: bool = False
    # populated by the data-arrival solver only
    rounds_used: int = 0
    inner_failures: int = 0  # round solves whose SLSQP status is a failure
    inner_steps: int = 0     # SLSQP iterations (nit) over the round solves
    final_violation: float = 0.0
    violation_trace: list = field(default_factory=list)
    unusable_energy: Optional[np.ndarray] = None


def build_subproblem(scenario: Scenario, rate_model: RateModel, user: int,
                     other_policy) -> SlotUtilities:
    """Slot utilities p -> r(p, other_i) for one user, other user fixed.

    The interference term enters as a per-slot fading floor where the region
    admits it.  The utilities' marginal in the user's power equals the joint
    rate's partial in it, which is all the single-user solver reads.
    """
    if user not in (0, 1):
        raise ShapeError("user index must be 0 or 1")
    other = np.asarray(other_policy, dtype=float)
    n = scenario.grid.N
    if other.shape != (n,):
        raise ShapeError(f"other policy must have shape ({n},)")
    region = rate_model.region
    cu = (1 - user) if rate_model.mirrored else user
    a, b = rate_model.canonical_gains
    if region is Region.VERY_STRONG:
        return ScaledLogUtilities(np.ones(n))
    if region is Region.ASYMMETRIC_AB_ABOVE_ONE:
        if cu == 0:
            return ScaledLogUtilities(1.0 / (1.0 + a * other))
        return InterferedUtilities(a, other)
    # min-form region: the active branch per slot depends only on the fixed
    # user's power through p_c
    if cu == 0:
        h = np.where(other < rate_model.p_c,
                     1.0 / (1.0 + a * other), b / (1.0 + other))
        return ScaledLogUtilities(h)
    return PiecewiseMinUtilities(a, b, rate_model.p_c, other)


def joint_objective(policy, scenario: Scenario, rate_model: RateModel) -> float:
    p = np.asarray(policy, dtype=float)
    r = np.atleast_1d(rate_model.sum_rate(p[0], p[1]))
    return scenario.grid.tau * float(np.sum(r))


def feasible_floor(policy_row, harvest, tau: float) -> np.ndarray:
    """Project a row onto the energy corridor (keeps it monotone in S-space)."""
    corridor = harvest.corridor
    s = tau * np.cumsum(np.maximum(policy_row, 0.0))
    s = np.minimum(np.maximum(s, corridor.floor), corridor.upper)
    return np.diff(np.concatenate([[0.0], s])) / tau


def band_solve(band, rhs):
    """Solve stacked symmetric positive definite band systems at once.

    ``band`` (kd+1, B, m) holds B systems of order m in LAPACK's lower band
    storage, ``band[k, b, j] = A_b[j + k, j]``, with zeros past each
    system's last row, and ``rhs`` (B, m, r) their right-hand sides.  The
    stacked matrix is block diagonal, and one call of LAPACK's banded
    Cholesky ``dpbsv`` (Golub & Van Loan, Matrix Computations, sec. 4.3)
    solves it in O(B m kd^2).  Its factorization works column by column and
    the blocks never meet, so each system solves bit-identically alone or
    stacked.

    Returns ``(x, ok)``.  ``ok[b]`` is False for a system that breaks down:
    one with a non-finite entry (checked first, since a NaN would leak into
    the next system through the zero coupling), or one that is not positive
    definite, which ``dpbsv`` reports as a non-positive pivot; the other
    systems are then solved again without it.  A broken system's rows of
    ``x`` are NaN.
    """
    kd1, _, m = band.shape
    ok = (np.isfinite(band).all(axis=(0, 2))
          & np.isfinite(rhs).all(axis=(1, 2)))
    if ok.all():
        _, sol, info = _dpbsv(band.reshape(kd1, -1),
                              rhs.reshape(-1, rhs.shape[2]), lower=1)
        if info == 0:
            return sol.reshape(rhs.shape), ok
    x = np.full(rhs.shape, np.nan)
    live = np.flatnonzero(ok)
    while live.size:
        _, sol, info = _dpbsv(band[:, live].reshape(kd1, -1),
                              rhs[live].reshape(-1, rhs.shape[2]), lower=1)
        if info < 0:
            raise ValueError(f"dpbsv: illegal argument {-info}")
        if info == 0:
            x[live] = sol.reshape(live.size, m, -1)
            break
        ok[live[(info - 1) // m]] = False
        live = np.flatnonzero(ok)
    return x, ok


_GAP_TOL = 1e-11      # the joint start stops once z^T lambda is at most this
_DUAL_TOL = 1e-9      # and its dual residual is at most this
_MAX_STEPS = 100      # interior-point iteration cap of the joint start
_MU0 = 0.03           # z * lambda of every constraint at the start, in nats
_SIGMA_MIN = 0.01     # least centering of the corrector


def joint_start(scenarios, rate_model: RateModel):
    """Both users' joint optimum in the a*b > 1 region, by a primal-dual
    interior-point method, for a batch of scenarios that share N, tau and
    channel.

    Maximizes tau * sum_n r(p_1n, p_2n) over the cumulative consumptions
    S_jn = tau * sum_{i<=n} p_ji, where the sum rate is smooth and jointly
    concave.  The constraints z >= 0 keep S above its floor (the battery
    corridor's lower bound made monotone), below the cumulative harvest and
    increasing in n, which is p > 0; constraints that another one implies
    are masked out.  Entries whose corridor has zero width are pinned:
    slots before a user's first arrival, slots followed by an arrival of a
    full battery, and the last slot (the rate grows in each power, so all
    energy is spent).  The users couple only within a slot, so with S
    ordered (S_1n, S_2n) slot by slot each Newton system is a band of
    half-width 3, positive definite with the pinned rows set to the
    identity; ``band_solve`` solves the systems of every scenario still
    iterating in one LAPACK call.

    Each constraint carries a multiplier lambda, and each iteration is
    Mehrotra's predictor-corrector (Mehrotra, SIAM J. Optim. 2 (1992);
    Boyd & Vandenberghe, Convex Optimization, sec. 11.7): an affine step
    that drives every z * lambda to zero, then a corrector from the same
    matrix that aims at sigma * mu with sigma = (mu_aff / mu)^3, at least
    ``_SIGMA_MIN``, and the affine step's second-order term.  The
    constraint curvature in the system is lambda / z.  The steps of S and
    of lambda stop separately at the boundary fraction 0.99; there is no
    centering phase and no line search.  A scenario stops once z^T lambda
    is at most ``_GAP_TOL`` and its dual residual at most ``_DUAL_TOL``: at
    that gap both blocks of the start certify on fig7 and on every fig8
    seed 0-79.  The state is S itself and the slacks are computed from it,
    so a step is taken only if the S it returns is strictly inside its
    corridor in floating point.  Near the end the slacks of active
    constraints shrink toward the resolution of S; the floor on sigma
    keeps them near mu / lambda rather than far below it, and on long
    horizons (N=2000) a scenario stops where they reach that resolution.

    Every scenario keeps its own iterate, step lengths and stop, and every
    reduction runs over one scenario's entries, so a scenario's start is
    bit-identical whatever else is in the batch.  Returns ``(starts,
    steps)``: arrays of shape (B, 2, N) in the callers' user order and
    (B,), the interior-point iterations taken.  Never raises: at the
    iteration cap, or on a numerical breakdown (a system that is not
    positive definite, a non-finite residual, a step that leaves the
    interior), a scenario stops at its last strictly feasible iterate and
    the others go on.  Nothing certifies these starts; the alternation that
    follows does.
    """
    n, tau = scenarios[0].grid.N, scenarios[0].grid.tau
    if any((s.grid.N, s.grid.tau) != (n, tau) for s in scenarios):
        raise InvalidInputError("a joint start batch must share N and tau")
    order = [1, 0] if rate_model.mirrored else [0, 1]
    a = rate_model.canonical_gains[0]
    size = len(scenarios)
    # state and masks are (scenario, slot, user), so that a scenario's S is
    # one contiguous run of its band system's unknowns
    floor = np.empty((size, n, 2))
    upper = np.empty((size, n, 2))
    # the corridor rows that p >= 0 leaves open: harvests that grow in the
    # next slot and floors that rise
    grows = np.empty((size, n, 2), dtype=bool)
    rises = np.empty((size, n, 2), dtype=bool)
    for k, scen in enumerate(scenarios):
        for col, j in enumerate(order):
            c = scen.users[j].harvest.corridor
            floor[k, :, col], upper[k, :, col] = c.floor, c.upper
            grows[k, :, col], rises[k, :, col] = c.upper_rows, c.lower_rows
    floor[:, -1] = upper[:, -1]
    scale = np.maximum(1.0, upper[:, -1].max(axis=1))
    pinned = upper - floor <= 1e-12 * scale[:, None, None]
    free = ~pinned
    # a strictly feasible start: weights rising in n keep the increments
    # positive between a nondecreasing floor and harvest
    w = (np.arange(1, n + 1) / (n + 1.0))[:, None]
    cum = np.where(pinned, upper, floor + w * (upper - floor))
    # constraints: increments touching a free entry and the open rows of
    # free entries (the last entry is pinned)
    mono = free.copy()
    mono[:, 1:] |= free[:, :-1]
    # z stacks the increments tau*p, the floor slacks and the harvest
    # slacks, all computed from S; constraints act on z[act], and an entry
    # without one is held at 1 with lambda 0
    act = np.stack([mono, free & rises, free & grows], axis=1)

    def slacks(cum):
        z = np.stack([np.diff(cum, axis=1, prepend=0.0), cum - floor,
                      upper - cum], axis=1)
        return np.where(act, z, 1.0)

    z = slacks(cum)
    starts = np.diff(cum, axis=1, prepend=0.0)
    m = act.reshape(size, -1).sum(axis=1)
    steps = np.zeros(size, dtype=int)
    live = np.flatnonzero((m > 0) & (z.reshape(size, -1).min(axis=1) > 0.0))
    # the working set holds the live scenarios' rows only
    cum, z, act, free, m = cum[live], z[live], act[live], free[live], m[live]
    floor, upper = floor[live], upper[live]
    actf = act.astype(float)
    lam = _MU0 * actf / z
    fw = free.astype(float)
    pin_f = 1.0 - fw
    # the band's entries that survive pinning (lower storage, columns
    # (S_1n, S_2n) slot by slot, row k of column j coupling it to j + k)
    nxt = np.concatenate([fw[:, 1:], np.zeros((live.size, 1, 2))], axis=1)
    bmask = np.zeros((4, live.size, n, 2))
    bmask[0] = fw
    bmask[1, ..., 0] = fw[..., 0] * fw[..., 1]
    bmask[1, ..., 1] = fw[..., 1] * nxt[..., 0]
    bmask[2] = fw * nxt
    bmask[3, ..., 0] = fw[..., 0] * nxt[..., 1]
    band = np.zeros((4, live.size, n, 2))
    hp = np.zeros((live.size, n + 1, 3))
    taken = np.zeros(live.size, dtype=int)   # iterations of the live ones
    broken = np.zeros(live.size, dtype=bool)
    nd = 2 * n

    def rows_of(x):
        return x.reshape(len(x), -1)

    def boundary_step(v, dv, frac):
        """Largest step along dv, up to 1, that keeps 1 - frac of every v
        (fmax skips the 0 / 0 of a multiplier without a constraint)."""
        worst = np.fmax.reduce(rows_of(-dv / v), axis=1)
        return np.where(worst <= frac, 1.0, frac / worst)[:, None, None, None]

    def newton(g, w, target):
        """The Newton step whose complementarity rows move z * lambda to
        ``target``: S from the band system, then z and lambda."""
        u = actf * target / z
        rhs = g + u[:, 0]
        rhs[:, :-1] -= rhs[:, 1:].copy()
        rhs += u[:, 1]
        rhs -= u[:, 2]
        rhs *= fw
        x, ok = band_solve(band.reshape(4, -1, nd), rhs.reshape(-1, nd, 1))
        ds = x.reshape(-1, n, 2)
        dz = np.stack([np.diff(ds, axis=1, prepend=0.0), ds, -ds], axis=1)
        dz *= actf
        return ds, dz, u - lam - w * dz, ok

    with np.errstate(all="ignore"):
        while live.size:
            p = np.diff(cum, axis=1, prepend=0.0) / tau
            v = 1.0 + a * p[..., 1]
            # gradient and negated Hessian of the sum rate in (p_1, p_2)
            g = np.empty(p.shape)
            g1 = 0.5 / (v + p[..., 0])
            av = 0.5 * a / v
            hy = 0.5 / (1.0 + p[..., 1])
            g[..., 0] = g1
            g[..., 1] = a * g1 - av + hy
            k = np.empty(p.shape[:2] + (3,))
            k[..., 0] = 2.0 * g1 * g1
            k[..., 1] = a * k[..., 0]
            k[..., 2] = a * k[..., 1] - 2.0 * av * av + 2.0 * hy * hy
            # the dual residual grad_S(-objective) - G^T lambda
            rd = -g - lam[:, 0]
            rd[:, :-1] -= rd[:, 1:].copy()
            rd -= lam[:, 1]
            rd += lam[:, 2]
            rd *= fw
            gap = rows_of(z * lam).sum(axis=1)
            dual = rows_of(np.abs(rd)).max(axis=1)
            stop = broken | ~(np.isfinite(gap) & np.isfinite(dual))
            stop |= (gap <= _GAP_TOL) & (dual <= _DUAL_TOL)
            stop |= taken >= _MAX_STEPS
            if stop.any():
                rows = live[stop]
                starts[rows] = np.diff(cum[stop], axis=1, prepend=0.0)
                steps[rows] = taken[stop]
                keep = ~stop
                live = live[keep]
                if not live.size:
                    break
                (cum, z, lam, act, actf, fw, pin_f, m, floor, upper, hp,
                 taken, broken, g, k, gap) = (
                    arr[keep] for arr in (cum, z, lam, act, actf, fw, pin_f,
                                          m, floor, upper, hp, taken, broken,
                                          g, k, gap))
                bmask, band = bmask[:, keep], band[:, keep]
            # S-space system: D^T blockdiag(H / tau + lambda_0 / z_0) D plus
            # the slacks' lambda / z on the diagonal
            w = lam / z
            hp[:, :n] = k / tau
            hp[:, :n, ::2] += w[:, 0]
            hsum = hp[:, :n] + hp[:, 1:]
            hnext = hp[:, 1:]
            band[0] = hsum[..., ::2] + w[:, 1] + w[:, 2]
            band[1, ..., 0] = hsum[..., 1]
            band[1, ..., 1] = -hnext[..., 1]
            band[2] = -hnext[..., ::2]
            band[3, ..., 0] = -hnext[..., 1]
            band *= bmask
            band[0] += pin_f
            # the affine predictor, then Mehrotra's corrector
            _, dz, dl, ok = newton(g, w, 0.0)
            alpha = np.minimum(boundary_step(z, dz, 1.0),
                               boundary_step(lam, dl, 1.0))
            mu = gap / m
            mu_aff = rows_of((z + alpha * dz) * (lam + alpha * dl)).sum(
                axis=1) / m
            sigma = np.maximum((mu_aff / mu) ** 3, _SIGMA_MIN)
            ds, dz, dl, solved = newton(g, w, (sigma * mu)[:, None, None, None]
                                        - dz * dl)
            c_cum = cum + boundary_step(z, dz, 0.99)[:, 0] * ds
            cz = slacks(c_cum)
            cl = lam + boundary_step(lam, dl, 0.99) * dl
            broken = ~(ok & solved & (rows_of(cz).min(axis=1) > 0.0))
            cum = np.where(broken[:, None, None], cum, c_cum)
            z = np.where(broken[:, None, None, None], z, cz)
            lam = np.where(broken[:, None, None, None], lam, cl)
            taken += ~broken
    return starts.transpose(0, 2, 1)[:, order] / tau, steps


def _alternate(scen: Scenario, rate_model: RateModel, start, start_steps,
               max_sweeps: int, tol: float):
    """The alternation of ``iterate_offline`` from ``start``."""
    tau = scen.grid.tau
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
            # row that equal would have certified as the start already.  The
            # policy is then unchanged, and so is its objective, bit for bit
            if np.array_equal(row, policy[user]):
                report.certified_starts += 1
            else:
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
    return policy, report


def iterate_offline_many(scenarios, rate_models, max_sweeps: int = 200,
                         tol: float = 1e-7):
    """``iterate_offline`` for each scenario, with one joint start per batch.

    The a*b > 1 scenarios that share N, tau and channel get their joint
    starts from one ``joint_start`` call; a scenario's start, and so its
    result, is the same in any batch.  The alternations then run one after
    the other, in the given order.  Returns a list of ``(policy, report)``.
    """
    if max_sweeps < 1:
        raise InvalidInputError("max_sweeps must be at least 1")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInputError("tol must be positive and finite")
    scens = [validate_scenario(s) for s in scenarios]
    starts = [(np.zeros((2, s.grid.N)), 0) for s in scens]
    batches = {}
    for k, (scen, rm) in enumerate(zip(scens, rate_models)):
        if rm.region is Region.ASYMMETRIC_AB_ABOVE_ONE:
            key = (scen.grid.N, scen.grid.tau, rm.canonical_gains, rm.mirrored)
            batches.setdefault(key, []).append(k)
    for ks in batches.values():
        policies, steps = joint_start([scens[k] for k in ks], rate_models[ks[0]])
        for k, start, count in zip(ks, policies, steps):
            starts[k] = (start, int(count))
    return [_alternate(scen, rm, start, count, max_sweeps, tol)
            for scen, rm, (start, count) in zip(scens, rate_models, starts)]


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
    return iterate_offline_many([scenario], [rate_model], max_sweeps, tol)[0]
