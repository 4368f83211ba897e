"""Single-user throughput maximization over the energy corridor.

The problem: maximize sum_i tau*f_i(p_i) over p >= 0 subject to cumulative
consumption bounds L_n <= tau*sum_{i<=n} p_i <= U_n, where U is cumulative
harvest (energy causality) and L keeps room in the battery for the next
arrival (capacity).  Each f_i is concave and continuously differentiable.

The solver equalizes the marginal rate f_i'(p_i) -- the generalized water
level -- across maximal runs of slots, and splits a run only where a
cumulative bound binds: the level may rise across a boundary only when the
battery is empty there, and fall only when it is full.  Those are exactly the
KKT conditions of the concave program, so the construction is certified by
reconstructing multipliers from the active-constraint structure
(``verify_kkt``) and reporting stationarity/complementarity residuals.

A window's common level is found by one root search on its total demand,
from the even split, in a bracket that is closed from the start: every
family's demand is infinite at level 0 and zero at the window's largest
f_i'(0).  Where every slot's marginal is the same there
(every window of a utility that is the same in every slot, every one-slot
window), the even split meets the window's KKT condition: the families
whose derivative inverse is a root solve (interfered, min-form) return it
without a probe, and ``verify_kkt`` gates the row as any other.  Otherwise the first probe is
the mean marginal at the even split, exact when the marginals are
identical.  After each probe the step is Newton in 1/level (every
family's demand is close to alpha + beta/level) from the analytic demand
slope, or else bisection.  A fast step outside the bracket is not taken,
and while fast steps do not cut the error 4x per probe they take every
other turn only.  Per-slot powers at a given level come from
inverting f_i', analytically where possible and by safeguarded Newton or
bisection otherwise.

There is one solve path and ``verify_kkt`` is its only gate: a policy whose
residuals miss the tolerance raises ``ConvergenceError`` carrying that policy
and its residual.  No second method is tried.  A caller may offer a start
row; if its certificate already meets the tolerance it is returned without
a solve, so the same gate decides both outcomes.

The three closed-form families (``_CLOSED_FORM``), one per region with a
known sum capacity, check in their constructors the parameters that make
them concave.  ``solve_single_user`` accepts exactly these types and raises
``InvalidUtilityError`` for any other, subclasses included: a subclass could
override the marginal unchecked.  The interfered and min-form marginals,
their curvature and the min-form kink's one-sided values are read from the
sum rate's jets in ``rates``, the same formulas as ``RateModel``'s kernels;
what is written here is each family's derivative inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConvergenceError, InfeasiblePolicyError,
                     InvalidUtilityError)
from .model import HarvestProfile, TimeGrid
from .rates import decode_jet, min_form_jet, noise_treated_jet

_INF = math.inf


# ---------------------------------------------------------------------------
# slot utilities
# ---------------------------------------------------------------------------

class SlotUtilities:
    """Per-slot concave utilities f_i, given by their marginals f_i' alone.

    The solver and its certificate read only f_i' (``deriv_at(idx, p)`` on
    slots ``idx``), its inverse and the inverse's slope.  Every family has a
    positive, strictly decreasing marginal, so ``inv_deriv(level, idx)``
    returns the one per-slot power at which f_i' equals ``level``: 0 where
    f_i'(0) is at most the level, inf at levels at or below 0.  It is
    nonincreasing in the level, so a window's total demand is infinite at
    level 0 and zero at its largest f_i'(0): the level search brackets
    every target between the two from its first probe.
    ``inv_deriv_slope(level, idx, q)`` is d(total demand)/d(level) at the
    demand ``q`` and a level above 0; it speeds up the level search, and
    correctness never depends on it.
    """

    n = 0

    def deriv(self, p):
        return self.deriv_at(slice(None), p)

    def deriv_range(self, p):
        """One-sided derivative interval (right, left) at p.

        Differs from a point only at kinks of piecewise utilities, where
        stationarity holds for any level inside the interval.
        """
        d = self.deriv(p)
        return d, d

    @cached_property
    def deriv_at_zero(self):
        """f_i'(0) per slot, built on first use."""
        return self.deriv(np.zeros(self.n))

    @cached_property
    def demand_at_zero(self):
        """Per-slot power at level 0, built on first use: inf in every
        family, whose marginal never reaches 0."""
        return self.inv_deriv(0.0)

    def _all_idx(self, idx):
        return np.arange(self.n) if idx is None else np.asarray(idx)


def _real_cubic_roots(c3, c2, c1, c0):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0 (c3 > 0), vectorized.

    Returns a (3, n) array; rows beyond the number of real roots are NaN.
    """
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    disc = 0.25 * q * q + p ** 3 / 27.0
    shift = a / 3.0
    roots = np.full((3,) + a.shape, np.nan)
    one = disc > 0.0
    if one.all():
        # the common case: one real root everywhere, no masked gathers
        sq = np.sqrt(disc)
        roots[0] = np.cbrt(-0.5 * q + sq) + np.cbrt(-0.5 * q - sq) - shift
        return roots
    if one.any():
        sq = np.sqrt(disc[one])
        u = np.cbrt(-0.5 * q[one] + sq)
        v = np.cbrt(-0.5 * q[one] - sq)
        roots[0][one] = u + v - shift[one]
    three = ~one
    if three.any():
        pp = p[three]
        qq = q[three]
        m = 2.0 * np.sqrt(np.maximum(-pp / 3.0, 0.0))
        den = pp * m
        arg = np.where(np.abs(den) > 1e-300, 3.0 * qq / np.where(den == 0, 1.0, den), 0.0)
        theta = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
        sh = shift[three]
        roots[0][three] = m * np.cos(theta) - sh
        roots[1][three] = m * np.cos(theta - 2.0 * np.pi / 3.0) - sh
        roots[2][three] = m * np.cos(theta - 4.0 * np.pi / 3.0) - sh
    return roots


def _finite(values, name):
    """``values`` as a float array, or ``InvalidUtilityError`` if any entry
    is not finite."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidUtilityError(f"{name} must be finite")
    return arr


def _bisect_inv(deriv_fn, level, n, hi):
    """Inverse of a vectorized decreasing derivative on n slots, by
    bisection of [0, hi]: the derivative is above ``level`` at 0 and at
    most it at ``hi``."""
    lo = np.zeros(n)
    hi = np.full(n, hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = deriv_fn(mid) > level
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


class ScaledLogUtilities(SlotUtilities):
    """f_i(p) = (1/2) ln(1 + h_i p), the fading-channel slot utility."""

    def __init__(self, h):
        self.h = _finite(h, "channel gains")
        self.n = self.h.shape[0]
        if np.any(self.h <= 0):
            raise InvalidUtilityError("channel gains must be positive")

    def deriv_at(self, idx, p):
        h = self.h[idx]
        return h / (2.0 * (1.0 + h * p))

    def inv_deriv(self, level, idx=None):
        idx = self._all_idx(idx)
        if level <= 0.0:
            return np.full(idx.shape, _INF)
        return np.maximum(0.0, 1.0 / (2.0 * level) - 1.0 / self.h[idx])

    def inv_deriv_slope(self, level, idx, q):
        return -float(np.count_nonzero(q > 0.0)) / (2.0 * level * level)


class InterferedUtilities(SlotUtilities):
    """Own-rate-plus-interferee slot utility for the noise-treated branch.

    f(p) = (1/2) ln(1 + P_i / (1 + a p)) + (1/2) ln(1 + p), where P_i is the
    other transmitter's fixed power in slot i and ``a`` the cross gain into
    this user's receiver.  Concave in p for a <= 1, which the constructor
    requires, with P_i finite and nonnegative.  The derivative is the
    generalized water level, the canonical user 2's partial of the
    noise-treated sum rate (``rates.noise_treated_jet``); its inverse is the
    root of a cubic, polished by Newton steps with the jet's curvature.
    """

    def __init__(self, a, p_other):
        self.a = float(a)
        # a <= 1 is what makes f concave: a/(1 + a p) <= 1/(1 + p), so f'' < 0
        if not 0.0 <= self.a <= 1.0:
            raise InvalidUtilityError(
                f"cross gain must lie in [0, 1], got {a!r}")
        self.p_other = _finite(p_other, "other-user powers")
        self.n = self.p_other.shape[0]
        if np.any(self.p_other < 0):
            raise InvalidUtilityError("other-user powers must be nonnegative")

    def _curv(self, p, po):
        """f''(p) at other-user powers ``po``."""
        return noise_treated_jet(self.a, po, p, 2).h22

    def inv_deriv(self, level, idx=None):
        idx = self._all_idx(idx)
        po = self.p_other[idx]
        a = self.a
        if level <= 0.0:
            return np.full(idx.shape, _INF)
        zero = self.deriv_at_zero[idx] <= level
        hi = max(0.0, 1.0 / (2.0 * level) - 1.0)   # f' <= 1/(2(1+p))
        if a == 0.0 or hi == 0.0:
            return np.where(zero, 0.0, hi)
        # clearing denominators turns f'(x) = level into a cubic in x with a
        # single root on [0, hi]; two Newton polish steps absorb roundoff
        k2, k1, k0, m0 = self._cubic_terms
        d2 = 2.0 * level
        c2 = d2 * k2[idx] - a * a
        c1 = d2 * k1[idx] - 2.0 * a
        c0 = d2 * k0[idx] - 1.0 - m0[idx]
        roots = _real_cubic_roots(d2 * a * a, c2, c1, c0)
        x = np.full(idx.shape, 0.5 * hi)
        found = np.zeros(idx.shape, dtype=bool)
        pad = 1e-9 * (1.0 + hi)
        for k in (0, 2, 1):
            cand = roots[k]
            ok = ~found & np.isfinite(cand) & (cand >= -pad) & (cand <= hi + pad)
            if ok.any():
                x = np.where(ok, cand, x)
                found |= ok
        x = np.minimum(np.maximum(x, 0.0), hi)
        for _ in range(2):
            step = (self.deriv_at(idx, x) - level) / self._curv(x, po)
            x = np.minimum(np.maximum(x - step, 0.0), hi)
        bad = np.abs(self.deriv_at(idx, x) - level) > 1e-9 * (1.0 + level)
        bad &= ~zero
        if bad.any():
            # f'(0) > level on these slots, and f' <= 1/(2(1+p)) <= level
            # from p = hi on
            sub = idx[bad]
            x[bad] = _bisect_inv(lambda pp: self.deriv_at(sub, pp), level,
                                 sub.shape[0], max(hi, 1.0))
        return np.where(zero, 0.0, x)

    @cached_property
    def _cubic_terms(self):
        """The parts of the cubic's coefficients that depend on p_other only.

        Built on first use, as ``deriv_at_zero`` is: every level probe
        needs them.  ``inv_deriv`` only combines them with the level
        elementwise.
        """
        a, po = self.a, self.p_other
        return (a * a + a * (2.0 + po), a * (2.0 + po) + 1.0 + po, 1.0 + po,
                po * (1.0 - a))

    def deriv_at(self, idx, p):
        return noise_treated_jet(self.a, self.p_other[idx], p, 1).g2

    def inv_deriv_slope(self, level, idx, q):
        # d q / d level summed over slots with positive power
        active = q > 0.0
        return float(np.sum(1.0 / self._curv(q[active],
                                             self.p_other[idx][active])))


class PiecewiseMinUtilities(SlotUtilities):
    """Slot utility for the min-form region as a function of own power p2.

    Below the threshold p_c the noise-treated branch is active; at and above
    it the decode-limited branch (1/2)ln(1 + b P_i + p) takes over.  The
    utility is the pointwise min of two concave branches, hence concave with
    a downward derivative kink at p_c.  The constructor checks that kink:
    at any other p_c the derivative could jump up there.  The derivative is
    ``rates.min_form_jet``'s partial in p2, with its branch rule.
    """

    def __init__(self, a, b, p_c, p_other):
        self._branch1 = InterferedUtilities(a, p_other)
        self.a = self._branch1.a
        self.b = float(b)
        self.p_c = float(p_c)
        self.p_other = self._branch1.p_other
        self.n = self.p_other.shape[0]
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise InvalidUtilityError(
                f"decode gain must be finite and nonnegative, got {b!r}")
        if not self.p_c >= 0.0:
            raise InvalidUtilityError(
                f"threshold power must be nonnegative or inf, got {p_c!r}")
        if math.isfinite(self.p_c):
            above, below = self.deriv_range(np.full(self.n, self.p_c))
            if np.any(above > below + 1e-9 * (1.0 + np.abs(below))):
                raise InvalidUtilityError(
                    "utility derivative rises at the threshold power")

    def deriv_at(self, idx, p):
        return min_form_jet(self.a, self.b, self.p_c, self.p_other[idx], p,
                            1).g2

    def _kink_values(self, idx):
        """The one-sided marginals (right, left) at p_c on slots ``idx``:
        the decode-limited branch's and the noise-treated branch's."""
        po = self.p_other[idx]
        return (decode_jet(self.b, po, self.p_c, 1).g2,
                noise_treated_jet(self.a, po, self.p_c, 1).g2)

    def deriv_range(self, p):
        d = self.deriv(p)
        if not math.isfinite(self.p_c):
            return d, d
        at_kink = np.abs(p - self.p_c) <= 1e-9 * (1.0 + self.p_c)
        if not np.any(at_kink):
            return d, d
        right, left = self._kink_values(slice(None))
        return np.where(at_kink, right, d), np.where(at_kink, left, d)

    def inv_deriv(self, level, idx=None):
        idx = self._all_idx(idx)
        po = self.p_other[idx]
        if not math.isfinite(self.p_c):
            return self._branch1.inv_deriv(level, idx)
        if level <= 0.0:
            return np.full(idx.shape, _INF)
        pc = self.p_c
        d_lo, d_hi = self._kink_values(idx)
        q = np.empty(idx.shape)
        on1 = level > d_hi            # strictly inside branch 1, q < p_c
        on2 = level < d_lo            # strictly inside branch 2, q > p_c
        at_kink = ~on1 & ~on2
        if np.any(on1):
            q[on1] = np.minimum(self._branch1.inv_deriv(level, idx[on1]), pc)
        if np.any(on2):
            q[on2] = np.maximum(pc, 1.0 / (2.0 * level) - 1.0 - self.b * po[on2])
        q[at_kink] = pc
        return q

    def inv_deriv_slope(self, level, idx, q):
        if not math.isfinite(self.p_c):
            return self._branch1.inv_deriv_slope(level, idx, q)
        active = q > 0.0
        q = q[active]
        po = self.p_other[idx][active]
        tol = 1e-9 * (1.0 + self.p_c)
        slope = np.zeros(q.shape)
        b1 = q < self.p_c - tol
        b2 = q > self.p_c + tol
        if np.any(b1):
            slope[b1] = 1.0 / self._branch1._curv(q[b1], po[b1])
        slope[b2] = -1.0 / (2.0 * level * level)
        return float(np.sum(slope))


# the only types ``solve_single_user`` accepts: the slot utilities of the
# three regions with a known sum capacity
_CLOSED_FORM = (ScaledLogUtilities, InterferedUtilities,
                PiecewiseMinUtilities)
# the closed-form families whose derivative inverse is a root solve; for
# these ``_equalize`` returns the even split of a window whose marginals are
# all equal there without a probe.  ScaledLog's inverse costs no more than
# that check
_ROOT_SOLVED_INVERSE = (InterferedUtilities, PiecewiseMinUtilities)


# ---------------------------------------------------------------------------
# level equalization within a window
# ---------------------------------------------------------------------------

def _equalize(utilities, idx, target):
    """Common-level allocation of ``target`` total power over slots ``idx``."""
    m = idx.shape[0]
    if target <= 1e-15 * (1.0 + abs(target)):
        return np.zeros(m)
    # the bracket: total demand is above the target at lo and at most the
    # target at hi, closed from the start, since every family's demand is
    # infinite at level 0 and zero at the window's largest f'(0)
    lo, hi = 0.0, float(np.max(utilities.deriv_at_zero[idx]))
    at_lo = at_hi = None     # demand probed at lo and hi
    exit_tol = 1e-12 * (1.0 + target)
    # root search on the monotone total-demand curve.  The first probe is
    # the mean marginal at the even split: exact when the window's marginals
    # are identical.  Every family's demand is close to alpha + beta/level
    # (exact for ScaledLog on a fixed active set), so the fast step is Newton
    # in 1/level on the analytic slope.  Without a fast step, and on the
    # turn after any probe that did not cut the error 4x, bisection takes
    # over, so the bracket provably halves every other probe
    even = np.full(m, target / m)
    marg = utilities.deriv_at(idx, even)
    if type(utilities) in _ROOT_SOLVED_INVERSE and np.all(marg == marg[0]):
        # a split at which every slot has the same marginal meets the
        # window's KKT condition: it is the common level's allocation, and
        # probing the root-solved inverse at that level would only return
        # the split again, up to roundoff
        return _distribute_late(even, None, target)
    mid = float(np.mean(marg))
    fast_turn = False
    last_err = _INF
    for _ in range(200):
        q = utilities.inv_deriv(mid, idx)
        total = float(np.sum(q))
        err = abs(total - target)
        # stay on Newton while it contracts quadratically, else alternate
        fast_turn = (err <= 0.25 * last_err) or not fast_turn
        last_err = err
        if total > target:
            lo, at_lo = mid, q
            if err <= exit_tol:
                hi, at_hi = lo, at_lo   # overshoot is dust; trimmed below
                break
        elif total == target:
            lo = hi = mid
            at_lo = at_hi = q
            break
        else:
            hi, at_hi = mid, q
            if err <= exit_tol:
                break
        if at_lo is not None and hi - lo <= 1e-15 * max(hi, 1e-12):
            break
        step = None
        if fast_turn:
            slope = utilities.inv_deriv_slope(mid, idx, q)
            if slope < 0.0:
                # fit total = alpha + beta/mid with this slope; an infinite
                # slope makes the step NaN, which the bracket test refuses
                beta = -slope * mid * mid
                alpha = total + slope * mid
                if target > alpha:
                    step = beta / (target - alpha)
        if step is not None and lo < step < hi:
            mid = step
        else:
            mid = 0.5 * (lo + hi)
    if at_hi is None:   # hi is still max f'(0), where no slot has demand
        at_hi = np.zeros(m)
    return _distribute_late(at_hi, at_lo, target)


def _distribute_late(powers, q_lo, target):
    """Trim the demand ``powers`` at the bracket's high end to ``target``.

    What is missing goes to the latest slots first, each up to its demand
    ``q_lo`` at the low end (None when no low end was probed: then any slot
    with power can take more, as a hair lower level would give it); what is
    over comes off the latest slots first.
    """
    extra = target - float(np.sum(powers))
    if extra > 0.0:
        room = (np.where(powers > 0.0, _INF, 0.0) if q_lo is None
                else q_lo - powers).tolist()
    # the loops run on Python floats: the same IEEE operations as on numpy
    # scalars, at a fraction of the cost per slot
    m = powers.shape[0]
    powers = powers.tolist()
    if extra > 0.0:
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
    return np.array(powers)


# ---------------------------------------------------------------------------
# corridor decomposition
# ---------------------------------------------------------------------------

def _solve_corridor(utilities, tau, corridor, z_total):
    """Equalize the whole horizon; where that breaks the corridor, pin the
    worst boundary to the bound it violates and solve both halves alike."""
    lower, upper, feas_eps = corridor.lower, corridor.upper, corridor.feas_eps

    def solve(lo, hi, a_val, b_val):
        powers = _equalize(utilities, np.arange(lo, hi + 1),
                           max(0.0, (b_val - a_val) / tau))
        if hi == lo:
            return powers
        s_interior = a_val + tau * np.cumsum(powers)[:-1]
        over = s_interior - upper[lo:hi]
        under = lower[lo:hi] - s_interior
        worst = np.maximum(over, under)
        if np.max(worst) <= feas_eps:
            return powers
        # argsort's first entry, not argmax: they break ties between equally
        # violated boundaries differently, and the tie rule shapes the output
        k = int(np.argsort(-worst)[0])
        pin = upper[lo + k] if over[k] >= under[k] else lower[lo + k]
        return np.concatenate([solve(lo, lo + k, a_val, pin),
                               solve(lo + k + 1, hi, pin, b_val)])

    return solve(0, lower.shape[0] - 1, 0.0, z_total)


def _as_tight_as_solved(row, tau, corridor, z_total):
    """Whether ``row`` meets the corridor as tightly as ``_solve_corridor``'s
    rows do: nonnegative, within ``feas_eps`` of both bounds, and spending
    the optimal total ``z_total``.  ``verify_kkt`` allows 1e-6 of the
    capacity on the corridor and counts a bound within 1e-7 of it as
    binding; this keeps a returned start as exact as a solved row."""
    row = np.asarray(row, dtype=float)
    lower, upper, eps = corridor.lower, corridor.upper, corridor.feas_eps
    if row.shape != lower.shape or not np.all(row >= 0.0):
        return False
    s = tau * np.cumsum(row)
    return bool(np.all(s <= upper + eps) and np.all(s >= lower - eps)
                and abs(s[-1] - z_total) <= eps)


def _total_at_level_zero(q0, tau, corridor):
    """Total consumption at the optimum: every slot takes its demand at
    level 0, where its marginal reaches zero, unless the corridor forces
    more (a full battery) or allows less (an empty one)."""
    if np.all(np.isinf(q0)):
        return float(corridor.upper[-1])     # spend everything
    s = 0.0
    for u, f, q in zip(corridor.upper.tolist(), corridor.floor.tolist(),
                       (tau * q0).tolist()):
        s = min(u, max(f, s + q))
    return s


# ---------------------------------------------------------------------------
# KKT certificate
# ---------------------------------------------------------------------------

@dataclass
class KKTCertificate:
    """Multipliers reconstructed from the active-constraint structure.

    ``lam`` (energy causality) and ``mu`` (battery capacity) are in marginal
    rate units; ``eta`` (nonnegativity) carries the tau scaling of the
    objective.  ``water_levels`` is the per-slot generalized level the
    stationarity equations imply.  Residuals at (or below) solver tolerance
    certify optimality of the concave program.
    """

    lam: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    water_levels: np.ndarray
    stationarity_residual: float
    complementarity_residual: float


def verify_kkt(policy_row, utilities: SlotUtilities, harvest: HarvestProfile,
               grid: TimeGrid) -> KKTCertificate:
    """Reconstruct multipliers for a policy and report KKT residuals.

    The level profile is rebuilt backward from the deadline: positive-power
    slots pin the level at f'(p); level changes between slots are projected
    onto what the active constraints allow (up only where the battery is
    empty, down only where full).  The worst projection distance is the
    stationarity residual.
    """
    p = np.asarray(policy_row, dtype=float)
    n = grid.N
    if p.shape != (n,):
        raise InfeasiblePolicyError(f"policy row must have shape ({n},)")
    if not np.all(np.isfinite(p)):
        # NaN compares false everywhere below and would certify as optimal
        raise InfeasiblePolicyError("policy row must be finite")
    tau = grid.tau
    scale_e = max(1.0, harvest.capacity)
    c = harvest.corridor
    # the unclipped floor, -inf after the last slot, where no arrival follows
    upper, l_raw, binding_tol = c.upper, c.raw_floor, c.binding_tol
    s = tau * np.cumsum(p)
    feas_tol = 1e-6 * scale_e
    worst = max(float(np.max(s - upper)), float(np.max(l_raw - s)),
                float(np.max(-p)) * tau)
    if worst > feas_tol:
        raise InfeasiblePolicyError(
            f"policy violates the energy corridor by {worst:.3g}",
            report={"violation": worst})

    g_lo, g_hi = utilities.deriv_range(np.maximum(p, 0.0))
    # the per-slot passes run on Python floats: the same IEEE operations and
    # builtin max/min as on numpy scalars, at a fraction of the cost per slot
    g_lo = np.atleast_1d(g_lo).tolist()
    g_hi = np.atleast_1d(g_hi).tolist()
    pos = (p > 1e-11 * max(1.0, scale_e / tau)).tolist()
    empty = ((upper - s) <= binding_tol).tolist()
    full = ((s - l_raw) <= binding_tol).tolist()

    # backward pass: propagate the interval of admissible levels.  The level
    # may rise across boundary k only while the battery is empty there, and
    # fall only while it is full.  A positive-power slot requires the level
    # to lie in its derivative interval (a point unless the utility has a
    # kink at p); an idle slot only bounds the level below.
    stat_resid = 0.0
    intervals = [None] * n
    j_lo, j_hi = 0.0, 0.0
    for k in range(n - 1, -1, -1):
        b_lo = -_INF if full[k] else j_lo
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
    lam = [0.0] * n
    mu = [0.0] * max(n - 1, 0)
    eta = [0.0] * n
    levels = [0.0] * n
    d_prev = None
    for k in range(n):
        i_lo, i_hi = intervals[k]
        if d_prev is None:
            d = i_lo if math.isfinite(i_lo) else min(i_hi, 0.0)
        else:
            # increment d_prev - d must lie in the allowed set of boundary k-1
            a_lo = -_INF if full[k - 1] else 0.0
            a_hi = _INF if empty[k - 1] else 0.0
            r_lo, r_hi = d_prev - a_hi, d_prev - a_lo
            lo, hi = max(i_lo, r_lo), min(i_hi, r_hi)
            if lo > hi:   # only via accumulated residual dust
                lo = hi = min(max(d_prev, i_lo), i_hi)
            d = min(max(d_prev, lo), hi)
            delta = d_prev - d
            if empty[k - 1]:
                lam[k - 1] = max(0.0, delta)
            if full[k - 1]:
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
    upper_l, s_l, l_raw_l, p_l = (upper.tolist(), s.tolist(), l_raw.tolist(),
                                  p.tolist())
    for k in range(n):
        comp = max(comp, lam[k] * max(0.0, upper_l[k] - s_l[k]))
        if k < n - 1:
            comp = max(comp, mu[k] * max(0.0, s_l[k] - l_raw_l[k]))
        comp = max(comp, eta[k] * max(0.0, p_l[k]))
    return KKTCertificate(lam=np.array(lam), mu=np.array(mu),
                          eta=np.array(eta), water_levels=np.array(levels),
                          stationarity_residual=float(stat_resid),
                          complementarity_residual=float(comp))


# ---------------------------------------------------------------------------
# solver entry point
# ---------------------------------------------------------------------------

def solve_single_user(utilities: SlotUtilities, harvest: HarvestProfile,
                      grid: TimeGrid, tol: float = 1e-7, start=None):
    """Optimal own-power schedule for one user; returns (powers, certificate).

    The certificate is produced by ``verify_kkt`` on the returned policy; the
    post-condition is residuals at or below ``tol``.  Otherwise this raises
    ``ConvergenceError`` with the policy as ``best_policy`` and the larger of
    its two residuals as ``residual``.

    A ``start`` row whose own certificate has both residuals at or below
    ``tol`` is returned as it is, with that certificate, provided it meets
    the corridor and spends the optimal total as tightly as a solved row
    does.  Any other start is ignored and the problem solved from scratch,
    so the certificate is the gate either way.
    """
    n = grid.N
    if utilities.n != n:
        raise InvalidUtilityError(
            f"{utilities.n} slot utilities for {n} slots")
    if type(utilities) not in _CLOSED_FORM:
        raise InvalidUtilityError(
            f"{type(utilities).__name__} is not one of the closed-form slot "
            "utility families "
            f"({', '.join(cls.__name__ for cls in _CLOSED_FORM)})")
    tau = grid.tau
    corridor = harvest.corridor
    z_total = _total_at_level_zero(utilities.demand_at_zero, tau, corridor)
    if start is not None and _as_tight_as_solved(start, tau, corridor,
                                                 z_total):
        try:
            cert = verify_kkt(start, utilities, harvest, grid)
        except InfeasiblePolicyError:
            cert = None
        if (cert is not None and cert.stationarity_residual <= tol
                and cert.complementarity_residual <= tol):
            return np.array(start, dtype=float), cert
    powers = _solve_corridor(utilities, tau, corridor, z_total)
    cert = verify_kkt(powers, utilities, harvest, grid)
    residual = max(cert.stationarity_residual, cert.complementarity_residual)
    if residual > tol:
        raise ConvergenceError(
            "single-user solve did not reach the requested KKT residual",
            best_policy=powers, residual=residual)
    return powers, cert
