"""Two-user block coordinate ascent on the joint throughput objective.

Each half-sweep fixes one user's power vector and re-solves the other user's
single-user problem, whose slot utilities are the joint rate restricted to
that user's power, given by its marginal in that power; the sweeps compare
``joint_objective``.  For a jointly concave rate the alternation converges to
the optimum; sweeps run user 1 then user 2 and stop when both the objective
improvement and the policy displacement fall below tolerance.

Where to start: in every region, at ``joint_start``, a primal-dual
interior-point method (Mehrotra's predictor-corrector) on both users at
once, stopped at the loose gap ``_POLISH_GAP`` and finished by Newton
steps on the active set its iterate identifies (``_polish``).  Both read
the sum rate's gradient and Hessian from the rate model's own jet, and
solve their Newton systems, bands of half-width 3 from one assembly
(``_newton_system``), in O(N) by LAPACK's banded Cholesky, one call per
solve for a batch of scenarios that share N, tau and channel; each
scenario gets the start it would get alone.  ``iterate_offline_many``
batches its scenarios so, and ``iterate_offline`` is its batch of one.
The start decides nothing: the same alternation runs from it, every block
solve is checked by ``verify_kkt``, and the same convergence tests end it.

Each block solve is offered the block's current row as its start, and
returns it unsolved when its certificate already meets the tolerance
(counted in ``SolveReport.certified_starts``).  Each user's constraints
involve only that user, so where the sum rate is smooth and jointly concave
a point at which both blocks certify is the joint optimum.  The polished
start lies on its active set, idle powers exactly 0, and both of its blocks
certify on fig7 and on all 80 fig8 seeds, so the certifying sweep costs two
certificates (fig8 seeds 0-79: 80 sweeps, against 883 from zeros).  A
polish that fails its checks hands its scenario back to the interior-point
loop, which then runs to the tight stop ``_GAP_TOL``.

The min-form sum rate (a*b <= 1) has a kink at p_2 = p_c, for which the
polish has no pin.  Over 300 random min-form scenarios (both orientations,
a = 0 and a*b = 1 among them, N = 5-40), 183 starts were polished and 48
loops ran to their cap ``_MAX_STEPS``, yet mean sweeps fell from 6.3 from
zeros to 1.4.  Where a start does not certify, a geometric extrapolation
along the sweep direction shortens the alternation: without it, sweeps at
a = 0.5, b = 1.5, N = 2000 (seeds 0-2) rise from 10, 13 and 16 to 14, 15
and 27.

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
                             # (0: its loop did not run)
    polish_steps: int = 0    # Newton solves of the joint start's polish
                             # (0: not run, or not taken)
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

    The utilities' marginal in the user's power equals the joint rate's
    partial in it, which is all the single-user solver reads.  In every
    region the canonical user 1's sum rate is (1/2)ln(1 + h_i p) plus a
    term free of p, so its gains h_i are twice the rate model's jet partial
    at p = 0: the interference enters as a per-slot fading floor.
    """
    if user not in (0, 1):
        raise ShapeError("user index must be 0 or 1")
    other = np.asarray(other_policy, dtype=float)
    n = scenario.grid.N
    if other.shape != (n,):
        raise ShapeError(f"other policy must have shape ({n},)")
    if user == (1 if rate_model.mirrored else 0):    # canonical user 1
        return ScaledLogUtilities(
            2.0 * rate_model._jet(np.zeros(n), other, 1).g1)
    a, b = rate_model.canonical_gains
    if rate_model.region is Region.VERY_STRONG:
        return ScaledLogUtilities(np.ones(n))
    if rate_model.region is Region.ASYMMETRIC_AB_ABOVE_ONE:
        return InterferedUtilities(a, other)
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


_POLISH_GAP = 1e-4    # the interior-point loop hands a scenario to the
                      # polish once z^T lambda is at most this
_GAP_TOL = 1e-11      # a scenario that the polish fails stops once z^T
                      # lambda is at most this
_DUAL_TOL = 1e-9      # and its dual residual is at most this
_MAX_STEPS = 100      # interior-point iteration cap of the joint start
_MU0 = 0.03           # z * lambda of every constraint at the start, in nats
_SIGMA_MIN = 0.01     # least centering of the corrector
_POLISH_STEPS = 8     # Newton solves of the polish
_PENALTY = 1e6        # weight of an idle increment that no pin holds,
                      # relative to its slot's curvature


def _increments(cum):
    """``np.diff(cum, axis=1, prepend=0.0)``, without its concatenation."""
    out = np.empty_like(cum)
    out[:, 0] = cum[:, 0]
    np.subtract(cum[:, 1:], cum[:, :-1], out=out[:, 1:])
    return out


def _slot_derivatives(cum, tau, jet):
    """Gradient (B, N, 2) and negated Hessian (B, N, 3), the entries 11, 12
    and 22, of the canonical sum rate in (p_1, p_2) at every slot of the
    cumulative consumptions ``cum``, from the rate model's ``jet``."""
    p = _increments(cum) / tau
    g = np.empty(p.shape)
    k = np.empty(p.shape[:2] + (3,))
    g[..., 0], g[..., 1] = jet(p[..., 0], p[..., 1], 1)[:2]
    k[..., 0], k[..., 1], k[..., 2] = jet(p[..., 0], p[..., 1], 2)
    return g, -k


def _d_transpose(x, *terms, fw=1.0):
    """``fw * (D^T x + sum(terms))`` in place of ``x``, D the increments of
    S: the S-space form of slot-wise rows ``x`` (B, N, 2), row n of D^T x
    being x_n - x_{n+1}, masked to the free entries ``fw``."""
    x[:, :-1] -= x[:, 1:]      # numpy buffers the overlapping operands
    for term in terms:
        x += term
    x *= fw
    return x


def _band_mask(fw):
    """The band entries that survive pinning, for the free entries ``fw``
    (1.0 free, 0.0 pinned): lower storage, columns (S_1n, S_2n) slot by
    slot, row k of column j coupling it to j + k."""
    nxt = np.concatenate([fw[:, 1:], np.zeros((len(fw), 1, 2))], axis=1)
    bmask = np.zeros((4,) + fw.shape)
    bmask[0] = fw
    bmask[1, ..., 0] = fw[..., 0] * fw[..., 1]
    bmask[1, ..., 1] = fw[..., 1] * nxt[..., 0]
    bmask[2] = fw * nxt
    bmask[3, ..., 0] = fw[..., 0] * nxt[..., 1]
    return bmask


def _newton_system(k, tau, bmask, on_increments, *on_entries):
    """The band D^T blockdiag(k / tau + on_increments) D plus the terms
    ``on_entries`` on its diagonal, the rows that ``bmask`` pins set to the
    identity; ``k`` (B, N, 3) holds each slot's negated 2x2 Hessian in the
    powers.  Returns ``solve``: right-hand sides (B, N, 2) to
    ``band_solve``'s ``(x, ok)``, in one call."""
    size, n = k.shape[:2]
    hp = np.zeros((size, n + 1, 3))     # a zero slot N + 1 closes the band
    hp[:, :n] = k / tau
    hp[:, :n, ::2] += on_increments
    hsum = hp[:, :-1] + hp[:, 1:]
    hnext = hp[:, 1:]
    band = np.zeros((4, size, n, 2))
    band[0] = hsum[..., ::2]
    for term in on_entries:
        band[0] += term
    band[1, ..., 0] = hsum[..., 1]
    band[1, ..., 1] = -hnext[..., 1]
    band[2] = -hnext[..., ::2]
    band[3, ..., 0] = -hnext[..., 1]
    band *= bmask
    band[0] += 1.0 - bmask[0]
    band = band.reshape(4, -1, 2 * n)

    def solve(rhs):
        x, ok = band_solve(band, rhs.reshape(-1, 2 * n, 1))
        return x.reshape(rhs.shape), ok
    return solve


def _rows(x):
    return x.reshape(len(x), -1)


def _slacks(cum, floor, upper, act):
    """z of ``cum``: its increments tau*p, floor slacks and harvest slacks
    stacked (B, 3, N, 2), and 1 where ``act`` holds no constraint."""
    z = np.empty(act.shape)
    z[:, 0], z[:, 1], z[:, 2] = _increments(cum), cum - floor, upper - cum
    return np.where(act, z, 1.0)


def joint_start(scenarios, rate_model: RateModel):
    """Both users' joint optimum, by a primal-dual interior-point method
    finished by a Newton polish on the active set it identifies, for a
    batch of scenarios that share N, tau and channel, in any region.

    Maximizes tau * sum_n r(p_1n, p_2n) over the cumulative consumptions
    S_jn = tau * sum_{i<=n} p_ji, reading r's gradient and Hessian from
    ``rate_model``'s own jet.  The constraints z >= 0 keep S above its
    floor (the battery corridor's lower bound made monotone), below the
    cumulative harvest and increasing in n, which is p > 0; constraints
    that another one implies are masked out.  Entries whose corridor has
    zero width are pinned: slots before a user's first arrival, slots
    followed by an arrival of a full battery, and the last slot (the rate
    grows in each power, so all energy is spent).  The users couple only
    within a slot, so with S ordered (S_1n, S_2n) slot by slot each Newton
    system is a band of half-width 3, positive definite with the pinned
    rows set to the identity; ``band_solve`` solves the systems of every
    scenario still iterating in one LAPACK call.

    Each constraint carries a multiplier lambda, and each iteration is
    Mehrotra's predictor-corrector (Mehrotra, SIAM J. Optim. 2 (1992);
    Boyd & Vandenberghe, Convex Optimization, sec. 11.7): an affine step
    that drives every z * lambda to zero, then a corrector from the same
    matrix that aims at sigma * mu with sigma = (mu_aff / mu)^3, at least
    ``_SIGMA_MIN``, and the affine step's second-order term.  The
    constraint curvature in the system is lambda / z.  The steps of S and
    of lambda stop separately at the boundary fraction 0.99; there is no
    centering phase and no line search.  The state is S itself and the
    slacks are computed from it, so a step is taken only if the S it
    returns is strictly inside its corridor in floating point.

    A scenario leaves the loop once z^T lambda is at most ``_POLISH_GAP``;
    ``_polish`` then finishes it on the constraints with lambda > z.  A
    scenario whose polish fails its checks goes on with the same loop
    until z^T lambda is at most ``_GAP_TOL`` and its dual residual at most
    ``_DUAL_TOL``; near that end the slacks of active constraints shrink
    toward the resolution of S, and the floor on sigma keeps them near
    mu / lambda rather than far below it.

    Every scenario keeps its own iterate, step lengths, polish and stop,
    and every reduction runs over one scenario's entries, so a scenario's
    start is bit-identical whatever else is in the batch.  Returns
    ``(starts, steps, polish_steps)``: arrays of shape (B, 2, N) in the
    callers' user order, and (B,) the interior-point iterations taken and
    the polish's Newton solves (0 where the polish did not run or failed).
    Never raises: at the iteration cap, or on a numerical breakdown (a
    system that is not positive definite, a non-finite residual, a step
    that leaves the interior), a scenario stops at its last strictly
    feasible iterate, unpolished, and the others go on.  At the min-form
    kink p_2 = p_c the jet gives the decode-limited branch's right-hand
    derivatives and no pin holds a slot there, so a start with slots at the
    kink may be refused its polish and run the loop to its tight stop or
    its cap.  Nothing certifies these starts; the alternation that follows
    does.
    """
    n, tau = scenarios[0].grid.N, scenarios[0].grid.tau
    if any((s.grid.N, s.grid.tau) != (n, tau) for s in scenarios):
        raise InvalidInputError("a joint start batch must share N and tau")
    order = [1, 0] if rate_model.mirrored else [0, 1]
    jet = rate_model._jet
    size = len(scenarios)
    # state and masks are (scenario, slot, user), so that a scenario's S is
    # one contiguous run of its band system's unknowns
    floor, upper = np.empty((2, size, n, 2))
    # the corridor rows that p >= 0 leaves open: harvests that grow in the
    # next slot and floors that rise
    grows, rises = np.empty((2, size, n, 2), dtype=bool)
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
    z = _slacks(cum, floor, upper, act)
    m = _rows(act).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = _MU0 * act / z
    taken, polish_steps = np.zeros((2, size), dtype=int)

    def boundary_step(v, dv, frac):
        """Largest step along dv, up to 1, that keeps 1 - frac of every v
        (fmin skips the 0 / 0 of a multiplier without a constraint)."""
        worst = -np.fmin.reduce(_rows(dv / v), axis=1)
        return np.where(worst <= frac, 1.0, frac / worst)[:, None, None, None]

    def iterate(live, gap_tol, dual_tol):
        """Predictor-corrector iterations on the scenarios ``live`` until
        each stops; their state is written back to the batch arrays.
        Returns the mask of ``live`` that met both tolerances."""
        met = np.zeros(live.size, dtype=bool)
        rows = np.arange(live.size)   # positions in ``live`` still iterating
        # the working set holds the live scenarios' rows only
        (cum_w, z_w, lam_w, act_w, fl, up, sc_m, it) = (
            cum[live], z[live], lam[live], act[live], floor[live],
            upper[live], m[live], taken[live])
        actf = act_w.astype(float)
        fw = free[live].astype(float)
        bmask = _band_mask(fw)
        broken = np.zeros(live.size, dtype=bool)

        def newton(solve, g, w, target):
            """The Newton step whose complementarity rows move z * lambda
            to ``target``: S from the band system, then z and lambda."""
            u = actf * target / z_w
            ds, ok = solve(_d_transpose(g + u[:, 0], u[:, 1], -u[:, 2],
                                        fw=fw))
            dz = np.empty(z_w.shape)
            dz[:, 0], dz[:, 1], dz[:, 2] = _increments(ds), ds, -ds
            dz *= actf
            return ds, dz, u - lam_w - w * dz, ok

        while rows.size:
            g, k = _slot_derivatives(cum_w, tau, jet)
            # the dual residual grad_S(-objective) - G^T lambda
            rd = _d_transpose(-g - lam_w[:, 0], -lam_w[:, 1], lam_w[:, 2],
                              fw=fw)
            gap = _rows(z_w * lam_w).sum(axis=1)
            dual = _rows(np.abs(rd)).max(axis=1)
            done = (gap <= gap_tol) & (dual <= dual_tol) & ~broken
            met[rows[done]] = True
            stop = done | broken | ~(np.isfinite(gap) & np.isfinite(dual))
            stop |= it >= _MAX_STEPS
            if stop.any():
                back = live[rows[stop]]
                cum[back], z[back], lam[back] = (
                    cum_w[stop], z_w[stop], lam_w[stop])
                taken[back] = it[stop]
                keep = ~stop
                rows = rows[keep]
                if not rows.size:
                    break
                (cum_w, z_w, lam_w, act_w, actf, fw, fl, up, sc_m, it,
                 broken, g, k, gap) = (
                    arr[keep] for arr in (cum_w, z_w, lam_w, act_w, actf, fw,
                                          fl, up, sc_m, it, broken, g, k,
                                          gap))
                bmask = bmask[:, keep]
            # S-space system: D^T blockdiag(H / tau + lambda_0 / z_0) D plus
            # the slacks' lambda / z on the diagonal
            w = lam_w / z_w
            solve = _newton_system(k, tau, bmask, w[:, 0], w[:, 1], w[:, 2])
            # the affine predictor, then Mehrotra's corrector
            _, dz, dl, ok = newton(solve, g, w, 0.0)
            alpha = np.minimum(boundary_step(z_w, dz, 1.0),
                               boundary_step(lam_w, dl, 1.0))
            mu = gap / sc_m
            mu_aff = _rows((z_w + alpha * dz) * (lam_w + alpha * dl)).sum(
                axis=1) / sc_m
            sigma = np.maximum((mu_aff / mu) ** 3, _SIGMA_MIN)
            ds, dz, dl, solved = newton(
                solve, g, w, (sigma * mu)[:, None, None, None] - dz * dl)
            c_cum = cum_w + boundary_step(z_w, dz, 0.99)[:, 0] * ds
            cz = _slacks(c_cum, fl, up, act_w)
            cl = lam_w + boundary_step(lam_w, dl, 0.99) * dl
            broken = ~(ok & solved & (_rows(cz).min(axis=1) > 0.0))
            if broken.any():
                cum_w = np.where(broken[:, None, None], cum_w, c_cum)
                z_w = np.where(broken[:, None, None, None], z_w, cz)
                lam_w = np.where(broken[:, None, None, None], lam_w, cl)
            else:
                cum_w, z_w, lam_w = c_cum, cz, cl
            it += ~broken
        return met

    live = np.flatnonzero((m > 0) & (_rows(z).min(axis=1) > 0.0))
    with np.errstate(all="ignore"):
        ready = live[iterate(live, _POLISH_GAP, np.inf)]
        if ready.size:
            s, solves = _polish(cum[ready], z[ready], lam[ready], act[ready],
                                floor[ready], upper[ready], pinned[ready],
                                tau, jet)
            took = solves > 0
            cum[ready[took]] = s[took]
            polish_steps[ready] = solves
            if not took.all():
                iterate(ready[~took], _GAP_TOL, _DUAL_TOL)
    starts = _increments(cum) / tau
    return starts.transpose(0, 2, 1)[:, order], taken, polish_steps


def _polish(cum, z, lam, act, floor, upper, pinned, tau, jet):
    """Newton steps on the active set of interior-point iterates: a
    crossover (Mehrotra & Ye, Math. Programming 62 (1993)).

    Arguments are ``joint_start``'s arrays for the scenarios to polish.  A
    constraint is active where lambda > z: a floor or a harvest bound pins
    its S entry there, and an idle increment holds S_n = S_{n-1}.  An idle
    run that holds a pinned entry, or starts at the origin, is pinned with
    it; an idle run that floats keeps its entries as unknowns, tied by a
    weight ``_PENALTY`` times the slot's curvature on each increment and
    by the increment's multiplier, which each step updates (the method of
    multipliers), and after each solve its entries take the run's first
    value, so idle powers are exactly 0.  The systems come from the
    interior point's ``_newton_system``, with the sum rate's exact slot
    Hessians and no barrier terms, one ``band_solve`` call per step for
    every scenario still stepping.  After each step, an entry that crosses
    its floor or harvest is pinned there, and an increment that turns
    negative is idled.

    A scenario converges once a step changed no constraint and its
    residual, the gradient in S with the floating runs' multipliers, is at
    most ``_DUAL_TOL`` on the unpinned entries.  Its polish is taken when
    it converged within ``_POLISH_STEPS`` solves, every solve was positive
    definite, it lies in its corridor with p >= 0 and every idle power
    exactly 0 (the pins of a run agree), and the multipliers of its active
    set, read off the gradient as partial sums over each run, are at least
    -``_DUAL_TOL``: a wrongly identified constraint shows as a negative
    one.  Returns ``(cum, solves)``, the polished iterates and, per
    scenario, the solves taken, 0 for a polish that is not taken.
    """
    size, n, _ = cum.shape
    idx = np.arange(n)[None, :, None]
    idle, low, high = np.moveaxis(act & (lam > z), 1, 0)
    nu = np.where(idle, lam[:, 0], 0.0)
    s = cum
    solves = np.zeros(size, dtype=int)
    stepping = np.ones(size, dtype=bool)
    moved = np.ones(size, dtype=bool)    # a constraint changed in the step
    solved = np.ones(size, dtype=bool)
    for _ in range(_POLISH_STEPS + 1):
        if moved.any():
            # the run of entry n starts at lead[n], the last entry whose
            # increment is not idle (-1: the origin), and ends before
            # after[n], the next such entry
            lead = np.maximum.accumulate(np.where(idle, -1, idx), axis=1)
            after = np.minimum.accumulate(
                np.where(idle[:, :0:-1], n, idx[:, :0:-1]), axis=1)[:, ::-1]
            after = np.concatenate([after, np.full((size, 1, 2), n)], axis=1)
            pin = pinned | low | high
            prev = np.maximum.accumulate(np.where(pin, idx, -1), axis=1)
            nxt = np.minimum.accumulate(
                np.where(pin[:, ::-1], idx[:, ::-1], n), axis=1)[:, ::-1]
            origin = lead < 0
            held = origin | (prev >= lead) | (nxt < after)
            by = np.where(prev >= lead, prev, np.minimum(nxt, n - 1))
            value = np.take_along_axis(np.where(low, floor, upper), by, 1)
            value[origin] = 0.0
            floating = idle & ~held
            fw = (~held).astype(float)
            bmask = _band_mask(fw)
            first = np.maximum(lead, 0)
        # pinned entries at their bounds, a floating run at its first value
        s = np.where(held, value, np.take_along_axis(s, first, 1))
        g, k = _slot_derivatives(s, tau, jet)
        res = _d_transpose(g + nu * floating, fw=fw)
        worst = _rows(np.abs(res)).max(axis=1)
        stepping &= (moved | ~(worst <= _DUAL_TOL)) & solved
        stepping &= np.isfinite(worst)
        live = np.flatnonzero(stepping & (solves < _POLISH_STEPS))
        if not live.size:
            break
        if live.size == size:
            live = slice(None)
        kl = k[live]
        pen = _PENALTY / tau * kl[..., ::2] * floating[live]
        d, ok = _newton_system(kl, tau, bmask[:, live], pen)(res[live])
        solved[live] = ok
        solves[live] += 1
        step = s[live] + d
        nu[live] -= pen * _increments(d)
        grew = (act[live, 1] & ~pin[live] & (step < floor[live]),
                act[live, 2] & ~pin[live] & (step > upper[live]),
                act[live, 0] & ~idle[live] & (_increments(step) < 0.0))
        low[live] |= grew[0]
        high[live] |= grew[1]
        idle[live] |= grew[2]
        moved[:] = False
        moved[live] = _rows(grew[0] | grew[1] | grew[2]).any(axis=1)
        s[live] = step
    # the active constraints' multipliers from the gradient: in a run, an
    # idle increment's multiplier is a partial sum of the rows from the
    # run's start, up to its first pin, or to its end, back to its last pin
    csum = np.zeros((size, n + 1, 2))
    np.cumsum(_d_transpose(g), axis=1, out=csum[:, 1:])
    head = np.take_along_axis(csum, first, 1)
    tail = np.take_along_axis(csum, after, 1)
    left = csum[:, 1:] - head          # of increment n + 1
    right = csum[:, :-1] - tail        # of increment n
    # the bound multiplier of a run's only pin is minus its rows' sum
    alone = (np.take_along_axis(prev, after - 1, 1)
             == np.take_along_axis(nxt, first, 1))
    alone &= ~origin & ~pinned
    bad = ~origin & (prev < lead) & (after > idx + 1) & (left < -_DUAL_TOL)
    bad |= idle & (nxt >= after) & (right < -_DUAL_TOL)
    bad |= alone & low & (tail - head > _DUAL_TOL)
    bad |= alone & high & (tail - head < -_DUAL_TOL)
    # and the pins of one run must agree
    p = _increments(s)
    bad |= (s < floor) | (s > upper) | (p < 0.0) | (idle & (p != 0.0))
    taken = ~stepping & solved & ~_rows(bad).any(axis=1)
    return s, np.where(taken, solves, 0)


def _alternate(scen: Scenario, rate_model: RateModel, start, start_steps,
               polish_steps, max_sweeps: int, tol: float):
    """The alternation of ``iterate_offline`` from ``start``."""
    tau = scen.grid.tau
    policy = np.vstack([feasible_floor(start[j], scen.users[j].harvest, tau)
                        for j in range(2)])
    obj = joint_objective(policy, scen, rate_model)
    report = SolveReport(objective_trace=[obj], start_steps=start_steps,
                         polish_steps=polish_steps)
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

    ``rate_models[k]`` is the rate model of ``scenarios[k]``; lists of
    different lengths raise ``ShapeError``.  The scenarios that share N,
    tau and channel get their joint starts from one ``joint_start`` call;
    a scenario's start, and so its result, is the same in any batch.  The
    alternations then run one after the other, in the given order.
    Returns a list of ``(policy, report)``.
    """
    if max_sweeps < 1:
        raise InvalidInputError("max_sweeps must be at least 1")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInputError("tol must be positive and finite")
    if len(scenarios) != len(rate_models):
        raise ShapeError(f"{len(scenarios)} scenarios but {len(rate_models)} "
                         "rate models")
    scens = [validate_scenario(s) for s in scenarios]
    starts = [None] * len(scens)
    batches = {}
    for k, (scen, rm) in enumerate(zip(scens, rate_models)):
        key = (scen.grid.N, scen.grid.tau, rm.canonical_gains, rm.mirrored)
        batches.setdefault(key, []).append(k)
    for ks in batches.values():
        policies, steps, polish = joint_start([scens[k] for k in ks],
                                              rate_models[ks[0]])
        for k, start, count, solves in zip(ks, policies, steps, polish):
            starts[k] = (start, int(count), int(solves))
    return [_alternate(scen, rm, *start, max_sweeps, tol)
            for scen, rm, start in zip(scens, rate_models, starts)]


def iterate_offline(scenario: Scenario, rate_model: RateModel,
                    max_sweeps: int = 200, tol: float = 1e-7):
    """Alternating single-user solves until the joint objective settles.

    Starts from ``joint_start``, in every region, floored onto each user's
    energy corridor.  Every block solve must reach KKT residuals of at most
    ``tol``.  Data-arrival constraints are ignored here (infinite-backlog
    problem); the data-aware solver wraps this routine.  Returns
    ``(policy, report)`` with a nondecreasing half-sweep objective trace;
    ``report.converged`` is False when ``max_sweeps`` sweeps did not
    settle.
    """
    return iterate_offline_many([scenario], [rate_model], max_sweeps, tol)[0]
