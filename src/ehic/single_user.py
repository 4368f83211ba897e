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

A window's common level is found by one bracketed root search on its total
demand.  The first probe is the mean marginal at the even split, which is
exact when the window's marginals are identical (every window of the
distributed baseline).  After each probe the step is, in order: Newton in
1/level (every family's demand is close to alpha + beta/level) from the
analytic demand slope; a secant step across the bracket where the family
has no slope; bisection once both ends exist; and while the bracket has no
low end, a descent that halves a positive level, jumps to -1 where the
window's demand at level 0 falls short of the target, and doubles a
negative one.  A fast step outside the bracket is not taken, and while fast
steps do not cut the error 4x per probe they take every other turn only.
Per-slot powers at a given level come from inverting f_i', analytically
where possible and by safeguarded Newton or bisection otherwise.  Ties under flat
marginals (linear utilities) are broken by consuming as late as possible,
which keeps the output deterministic and maximizes forward flexibility.

There is one solve path and ``verify_kkt`` is its only gate: a policy whose
residuals miss the tolerance raises ``ConvergenceError`` carrying that policy
and its residual.  No second method is tried.  A caller may offer a start
row; if its certificate already meets the tolerance it is returned without
a solve, so the same gate decides both outcomes.

The closed-form families (``_CHECKED_EXACTLY``) check in their constructors
the parameters that make them concave; any other utilities, subclasses of
those families included, go through ``check_utilities``' sampling on every
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, InfeasiblePolicyError,
                     InvalidUtilityError)
from .model import HarvestProfile, TimeGrid, energy_bounds

_INF = math.inf
# slack, relative to max(1, battery capacity), within which verify_kkt counts
# a cumulative bound as binding
_BINDING_TOL = 1e-7
# slack of a solved row on its corridor, relative to max(1, total harvest)
_FEAS_EPS = 1e-10


# ---------------------------------------------------------------------------
# slot utilities
# ---------------------------------------------------------------------------

class SlotUtilities:
    """Per-slot concave utilities f_i with derivative and derivative inverse.

    ``inv_deriv(level, idx)`` returns per-slot (qmin, qmax): the smallest and
    largest powers at which f_i' equals ``level`` (a range only where f_i' is
    flat at that value; qmax may be inf).  qmin/qmax are nonincreasing in the
    level, which is what the bracketed level search relies on.
    """

    n = 0

    def value(self, p):
        raise NotImplementedError

    def deriv(self, p):
        raise NotImplementedError

    def deriv_range(self, p):
        """One-sided derivative interval (right, left) at p.

        Differs from a point only at kinks of piecewise utilities, where
        stationarity holds for any level inside the interval.
        """
        d = self.deriv(p)
        return d, d

    def deriv_at_zero(self):
        cached = getattr(self, "_d0_cache", None)
        if cached is None:
            cached = self.deriv(np.zeros(self.n))
            self._d0_cache = cached
        return cached

    def demand_at_zero(self):
        """Per-slot largest power at level 0 (``inv_deriv``'s qmax), cached
        like ``deriv_at_zero``; inf wherever the marginal never reaches 0."""
        cached = getattr(self, "_q0_cache", None)
        if cached is None:
            cached = self.inv_deriv(0.0)[1]
            self._q0_cache = cached
        return cached

    def deriv_at(self, idx, p):
        """f_i'(p) on slots ``idx`` only, for powers ``p`` of those slots."""
        full = np.zeros(self.n)
        full[idx] = p
        return self.deriv(full)[idx]

    def inv_deriv(self, level, idx=None):
        raise NotImplementedError

    def inv_deriv_slope(self, level, idx, qmin):
        """d(total demand)/d(level) at this level, or None when unavailable.

        Speeds up the level search; correctness never depends on it.
        """
        return None

    def _all_idx(self, idx):
        return np.arange(self.n) if idx is None else np.asarray(idx)

    def _bisect_inv_deriv(self, level, idx, hi_start=1.0):
        """Bisection inverse of ``deriv`` on slots ``idx``, others at zero."""
        idx = self._all_idx(idx)
        return _bisect_inv(lambda sub: self.deriv_at(idx, sub), level,
                           idx.shape[0], hi_start=hi_start)


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


def _bisect_inv(deriv_fn, level, n, hi_start=1.0):
    """Generic monotone inverse of a vectorized nonincreasing derivative."""
    lo = np.zeros(n)
    d0 = deriv_fn(lo)
    done_zero = d0 <= level
    hi = np.full(n, hi_start)
    for _ in range(80):
        need = deriv_fn(hi) > level
        if not np.any(need & ~done_zero):
            break
        hi = np.where(need, hi * 2.0, hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = deriv_fn(mid) > level
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    q = np.where(done_zero, 0.0, 0.5 * (lo + hi))
    return q, q.copy()


class ScaledLogUtilities(SlotUtilities):
    """f_i(p) = (1/2) ln(1 + h_i p) + c_i, the fading-channel slot utility."""

    def __init__(self, h, const=None):
        self.h = _finite(h, "channel gains")
        self.n = self.h.shape[0]
        self.const = (np.zeros(self.n) if const is None
                      else _finite(const, "utility constants"))
        if np.any(self.h <= 0):
            raise InvalidUtilityError("channel gains must be positive")

    def value(self, p):
        return 0.5 * np.log1p(self.h * p) + self.const

    def deriv(self, p):
        return self.h / (2.0 * (1.0 + self.h * p))

    def deriv_at(self, idx, p):
        h = self.h[idx]
        return h / (2.0 * (1.0 + h * p))

    def inv_deriv(self, level, idx=None):
        idx = self._all_idx(idx)
        h = self.h[idx]
        if level <= 0.0:
            q = np.full(idx.shape, _INF)
            return q, q
        q = np.maximum(0.0, 1.0 / (2.0 * level) - 1.0 / h)
        return q, q

    def inv_deriv_slope(self, level, idx, qmin):
        if level <= 0.0:
            return None
        return -float(np.count_nonzero(qmin > 0.0)) / (2.0 * level * level)


class LinearUtilities(SlotUtilities):
    """f_i(p) = c_i p: flat marginal, used for linear power-rate curves."""

    def __init__(self, slope):
        self.slope = _finite(slope, "slopes")
        self.n = self.slope.shape[0]
        if np.any(self.slope < 0):
            raise InvalidUtilityError("slopes must be nonnegative")

    def value(self, p):
        return self.slope * p

    def deriv(self, p):
        return np.broadcast_to(self.slope, np.shape(p)).copy()

    def deriv_at(self, idx, p):
        return np.broadcast_to(self.slope[idx], np.shape(p)).copy()

    def inv_deriv(self, level, idx=None):
        idx = self._all_idx(idx)
        c = self.slope[idx]
        qmin = np.where(c > level, _INF, 0.0)
        qmax = np.where(c >= level, _INF, 0.0)
        return qmin, qmax


class InterferedUtilities(SlotUtilities):
    """Own-rate-plus-interferee slot utility for the noise-treated branch.

    f(p) = (1/2) ln(1 + P_i / (1 + a p)) + (1/2) ln(1 + p), where P_i is the
    other transmitter's fixed power in slot i and ``a`` the cross gain into
    this user's receiver.  Concave in p for a <= 1, which the constructor
    requires, with P_i finite and nonnegative.  The derivative is the
    generalized water level; its inverse is the root of a cubic, polished by
    Newton steps with analytic curvature.
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

    def value(self, p):
        return 0.5 * np.log1p(self.p_other / (1.0 + self.a * p)) \
            + 0.5 * np.log1p(p)

    def deriv(self, p):
        return self.deriv_at(slice(None), p)

    def _deriv_curv(self, p, po):
        """f'(p) and f''(p) for other-user powers ``po``.

        Computed together because they share subexpressions; f' here equals
        ``deriv_at`` bit for bit (the same operations, with the sum's terms
        swapped).
        """
        a = self.a
        a1 = 1.0 + po + a * p
        a2 = 1.0 + a * p
        a3 = 1.0 + p
        return (1.0 / (2.0 * a3) - a * po / (2.0 * a1 * a2),
                a * a / (2.0 * a2 * a2) - a * a / (2.0 * a1 * a1)
                - 1.0 / (2.0 * a3 * a3))

    def inv_deriv(self, level, idx=None):
        idx = self._all_idx(idx)
        po = self.p_other[idx]
        a = self.a
        if level <= 0.0:
            q = np.full(idx.shape, _INF)
            return q, q
        zero = self.deriv_at_zero()[idx] <= level
        hi = max(0.0, 1.0 / (2.0 * level) - 1.0)   # f' <= 1/(2(1+p))
        if a == 0.0 or hi == 0.0:
            q = np.where(zero, 0.0, hi)
            return q, q
        # clearing denominators turns f'(x) = level into a cubic in x with a
        # single root on [0, hi]; two Newton polish steps absorb roundoff
        k2, k1, k0, m0 = self._cubic_terms()
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
            d, curv = self._deriv_curv(x, po)
            x = np.minimum(np.maximum(x - (d - level) / curv, 0.0), hi)
        bad = np.abs(self.deriv_at(idx, x) - level) > 1e-9 * (1.0 + level)
        bad &= ~zero
        if bad.any():
            sub = idx[bad]
            x_bad, _ = _bisect_inv(
                lambda pp: self.deriv_at(sub, pp), level, sub.shape[0],
                hi_start=max(hi, 1.0))
            x[bad] = x_bad
        q = np.where(zero, 0.0, x)
        return q, q

    def _cubic_terms(self):
        """The parts of the cubic's coefficients that depend on p_other only.

        Cached per instance, as ``deriv_at_zero`` is: every level probe
        needs them.  ``inv_deriv`` only combines them with the level
        elementwise.
        """
        cached = getattr(self, "_cubic_cache", None)
        if cached is None:
            a, po = self.a, self.p_other
            cached = (a * a + a * (2.0 + po), a * (2.0 + po) + 1.0 + po,
                      1.0 + po, po * (1.0 - a))
            self._cubic_cache = cached
        return cached

    def deriv_at(self, idx, p):
        po = self.p_other[idx]
        a = self.a
        base = 1.0 + a * p
        return -a * po / (2.0 * (1.0 + po + a * p) * base) \
            + 1.0 / (2.0 * (1.0 + p))

    def inv_deriv_slope(self, level, idx, qmin):
        # d q / d level summed over slots with positive power
        po = self.p_other[idx]
        active = qmin > 0.0
        if not np.any(active):
            return 0.0
        _, curv = self._deriv_curv(qmin[active], po[active])
        return float(np.sum(1.0 / curv))


class PiecewiseMinUtilities(SlotUtilities):
    """Slot utility for the min-form region as a function of own power p2.

    Below the threshold p_c the noise-treated branch is active; at and above
    it the decode-limited branch (1/2)ln(1 + b P_i + p) takes over.  The
    utility is the pointwise min of two concave branches, hence concave with
    a downward derivative kink at p_c.  The constructor checks that kink:
    at any other p_c the derivative could jump up there.
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

    def _expr2(self, p):
        return 0.5 * np.log1p(self.b * self.p_other + p)

    def value(self, p):
        return np.minimum(self._branch1.value(p), self._expr2(p))

    def deriv(self, p):
        return self.deriv_at(slice(None), p)

    def deriv_at(self, idx, p):
        d1 = self._branch1.deriv_at(idx, p)
        d2 = 1.0 / (2.0 * (1.0 + self.b * self.p_other[idx] + p))
        return np.where(p >= self.p_c, d2, d1)

    def deriv_range(self, p):
        d = self.deriv(p)
        if not math.isfinite(self.p_c):
            return d, d
        at_kink = np.abs(p - self.p_c) <= 1e-9 * (1.0 + self.p_c)
        if not np.any(at_kink):
            return d, d
        d1 = self._branch1.deriv(np.full_like(np.asarray(p, dtype=float),
                                              self.p_c))
        d2 = 1.0 / (2.0 * (1.0 + self.b * self.p_other + self.p_c))
        return np.where(at_kink, d2, d), np.where(at_kink, d1, d)

    def inv_deriv(self, level, idx=None):
        idx = self._all_idx(idx)
        po = self.p_other[idx]
        if not math.isfinite(self.p_c):
            return self._branch1.inv_deriv(level, idx)
        if level <= 0.0:
            q = np.full(idx.shape, _INF)
            return q, q.copy()
        # one-sided derivatives at the kink
        pc = self.p_c
        d_hi = self._branch1.deriv_at(idx, pc)
        d_lo = 1.0 / (2.0 * (1.0 + self.b * po + pc))
        q = np.empty(idx.shape)
        on1 = level > d_hi            # strictly inside branch 1, q < p_c
        on2 = level < d_lo            # strictly inside branch 2, q > p_c
        at_kink = ~on1 & ~on2
        if np.any(on1):
            q1, _ = self._branch1.inv_deriv(level, idx[on1])
            q[on1] = np.minimum(q1, pc)
        if np.any(on2):
            q[on2] = np.maximum(pc, 1.0 / (2.0 * level) - 1.0 - self.b * po[on2])
        q[at_kink] = pc
        return q, q

    def inv_deriv_slope(self, level, idx, qmin):
        if level <= 0.0 or not math.isfinite(self.p_c):
            return self._branch1.inv_deriv_slope(level, idx, qmin)
        active = qmin > 0.0
        if not np.any(active):
            return 0.0
        q = qmin[active]
        po = self.p_other[idx][active]
        tol = 1e-9 * (1.0 + self.p_c)
        slope = np.zeros(q.shape)
        b1 = q < self.p_c - tol
        b2 = q > self.p_c + tol
        if np.any(b1):
            slope[b1] = 1.0 / self._branch1._deriv_curv(q[b1], po[b1])[1]
        slope[b2] = -1.0 / (2.0 * level * level)
        return float(np.sum(slope))


class GenericSlotUtilities(SlotUtilities):
    """Utilities on ``n`` slots defined by callables: ``value_fn(p)`` and its
    derivative ``deriv_fn(p)``, each mapping a power vector to per-slot
    values; the derivative inverse is by bisection."""

    def __init__(self, value_fn, deriv_fn, n):
        self._value_fn = value_fn
        self._deriv_fn = deriv_fn
        self.n = n

    def value(self, p):
        return np.asarray(self._value_fn(p), dtype=float)

    def deriv(self, p):
        return np.asarray(self._deriv_fn(p), dtype=float)

    def inv_deriv(self, level, idx=None):
        return self._bisect_inv_deriv(level, idx)


def check_utilities(utilities: SlotUtilities, p_max: float):
    """Sampled concavity check: f' must be nonincreasing on [0, p_max].

    ``solve_single_user`` skips it for instances of exactly the closed-form
    classes in ``_CHECKED_EXACTLY``: their constructors check the parameters
    that make them concave, finite and differentiable, which is exact where
    33 samples are not.  A subclass may override ``deriv`` and is sampled.
    """
    grid = np.linspace(0.0, max(p_max, 1e-6), 33)
    derivs = np.stack([utilities.deriv(np.full(utilities.n, g)) for g in grid])
    if not np.all(np.isfinite(derivs)):
        raise InvalidUtilityError("utility derivative is not finite")
    slack = 1e-9 * (1.0 + np.max(np.abs(derivs)))
    if np.any(np.diff(derivs, axis=0) > slack):
        raise InvalidUtilityError(
            "utility derivative increases somewhere on the sampled grid")
    v0 = utilities.value(np.zeros(utilities.n))
    if not np.all(np.isfinite(v0)):
        raise InvalidUtilityError("utility must be finite at zero power")


_CHECKED_EXACTLY = (ScaledLogUtilities, LinearUtilities, InterferedUtilities,
                    PiecewiseMinUtilities)


# ---------------------------------------------------------------------------
# level equalization within a window
# ---------------------------------------------------------------------------

def _equalize(utilities, idx, target):
    """Common-level allocation of ``target`` total power over slots ``idx``.

    Flat stretches of f' are resolved by assigning the slack to the latest
    slots first.
    """
    m = idx.shape[0]
    if target <= 1e-15 * (1.0 + abs(target)):
        return np.zeros(m)
    # the bracket: total demand (qmin side) is above the target at lo and at
    # most the target at hi.  lo stays open until a probe's demand (qmax
    # side) covers the target
    lo, hi = -_INF, float(np.max(utilities.deriv_at_zero()[idx]))
    t_lo, t_hi = None, 0.0   # total demand at lo and hi
    at_lo = at_hi = None     # (qmin, qmax) probed at lo and hi
    exit_tol = 1e-12 * (1.0 + target)
    # root search on the monotone total-demand curve.  The first probe is
    # the mean marginal at the even split: exact when the window's marginals
    # are identical.  Every family's demand is close to alpha + beta/level
    # (exact for ScaledLog on a fixed active set), so the fast step is Newton
    # in 1/level on the analytic slope, else a secant step across the
    # bracket.  Without a fast step, and on the turn after any probe that
    # did not cut the error 4x, bisection takes over, so a closed bracket
    # provably halves every other probe; while lo is open the level descends
    # instead, into negative levels where the window's demand at level 0
    # falls short of the target
    mid = float(np.mean(utilities.deriv_at(idx, np.full(m, target / m))))
    fast_turn = False
    last_err = _INF
    for _ in range(200):
        qmin, qmax = utilities.inv_deriv(mid, idx)
        tmin = float(np.sum(qmin))
        err = abs(tmin - target)
        # stay on Newton while it contracts quadratically, else alternate
        fast_turn = (err <= 0.25 * last_err) or not fast_turn
        last_err = err
        if tmin > target:
            lo, t_lo, at_lo = mid, tmin, (qmin, qmax)
            if err <= exit_tol:
                hi, at_hi = lo, at_lo   # overshoot is dust; trimmed below
                break
        elif np.sum(qmax) >= target:
            lo = hi = mid
            at_lo = at_hi = (qmin, qmax)
            break
        else:
            hi, t_hi, at_hi = mid, tmin, (qmin, qmax)
            if err <= exit_tol:
                break
        if at_lo is not None and \
                hi - lo <= 1e-15 * max(abs(hi), abs(lo), 1e-12):
            break
        step = None
        if fast_turn:
            slope = utilities.inv_deriv_slope(mid, idx, qmin)
            if slope is not None and np.isfinite(slope) and slope < 0.0:
                # fit tmin = alpha + beta/mid with this slope
                beta = -slope * mid * mid
                alpha = tmin + slope * mid
                if mid > 0.0 and target > alpha:
                    step = beta / (target - alpha)
            elif t_lo is not None and np.isfinite(t_lo) and t_lo > t_hi:
                step = lo + (t_lo - target) * (hi - lo) / (t_lo - t_hi)
        if step is not None and lo < step < hi:
            mid = step
        elif at_lo is not None:
            mid = 0.5 * (lo + hi)
        elif mid > 0.0 and \
                float(np.sum(utilities.demand_at_zero()[idx])) >= target:
            mid = 0.0 if mid < 1e-280 else 0.5 * mid
        else:
            mid = 2.0 * mid if mid < 0.0 else -1.0
    else:
        if at_lo is None:
            raise ConvergenceError(
                "forced consumption exceeds the range of the slot utilities")
    if at_hi is None:   # hi is still max f'(0), never probed
        at_hi = utilities.inv_deriv(hi, idx)
    return _distribute_late(at_hi[0], None if at_lo is None else at_lo[1],
                            target)


def _distribute_late(powers, qmax_lo, target):
    """Trim the demand ``powers`` at the bracket's high end to ``target``.

    What is missing goes to the latest slots first, each up to its demand
    ``qmax_lo`` at the low end (None when no low end was probed: then any
    slot with power can take more, as a hair lower level would give it);
    what is over comes off the latest slots first.
    """
    powers = powers.copy()
    m = powers.shape[0]
    extra = target - float(np.sum(powers))
    if extra > 0.0:
        room = (np.where(powers > 0.0, _INF, 0.0) if qmax_lo is None
                else qmax_lo - powers)
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


# ---------------------------------------------------------------------------
# corridor decomposition
# ---------------------------------------------------------------------------

def _solve_corridor(utilities, tau, lower, upper, z_total):
    """Equalize the whole horizon; where that breaks the corridor, pin the
    worst boundary to the bound it violates and solve both halves alike."""
    n = lower.shape[0]
    feas_eps = _FEAS_EPS * max(float(upper[-1]), 1.0)

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

    return solve(0, n - 1, 0.0, z_total)


def _as_tight_as_solved(row, tau, lower, upper, z_total):
    """Whether ``row`` meets the corridor as tightly as ``_solve_corridor``'s
    rows do: nonnegative, within ``_FEAS_EPS`` of both bounds, and spending
    the optimal total ``z_total``.  ``verify_kkt`` allows 1e-6 of the
    capacity on the corridor and counts a bound within 1e-7 of it as
    binding; this keeps a returned start as exact as a solved row."""
    row = np.asarray(row, dtype=float)
    if row.shape != lower.shape or not np.all(row >= 0.0):
        return False
    s = tau * np.cumsum(row)
    eps = _FEAS_EPS * max(float(upper[-1]), 1.0)
    return bool(np.all(s <= upper + eps) and np.all(s >= lower - eps)
                and abs(s[-1] - z_total) <= eps)


def _total_at_level_zero(q0, tau, lower, upper):
    """Total consumption at the optimum: every slot takes its demand at
    level 0, where its marginal reaches zero, unless the corridor forces
    more (a full battery) or allows less (an empty one)."""
    if np.all(np.isinf(q0)):
        return float(upper[-1])     # spend everything
    floor = np.maximum.accumulate(lower)
    s = 0.0
    for k, q in enumerate((tau * q0).tolist()):
        s = min(float(upper[k]), max(float(floor[k]), s + q))
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
    binding_tol = _BINDING_TOL * scale_e
    lower, upper = energy_bounds(harvest, tau)
    cum_e = np.cumsum(harvest.arrivals)
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
    tau = grid.tau
    if type(utilities) not in _CHECKED_EXACTLY:
        check_utilities(utilities, float(np.sum(harvest.arrivals)) / tau)
    lower, upper = energy_bounds(harvest, tau)
    z_total = _total_at_level_zero(utilities.demand_at_zero(), tau, lower,
                                   upper)
    if start is not None and _as_tight_as_solved(start, tau, lower, upper,
                                                 z_total):
        try:
            cert = verify_kkt(start, utilities, harvest, grid)
        except InfeasiblePolicyError:
            cert = None
        if (cert is not None and cert.stationarity_residual <= tol
                and cert.complementarity_residual <= tol):
            return np.array(start, dtype=float), cert
    powers = _solve_corridor(utilities, tau, lower, upper, z_total)
    cert = verify_kkt(powers, utilities, harvest, grid)
    residual = max(cert.stationarity_residual, cert.complementarity_residual)
    if residual > tol:
        raise ConvergenceError(
            "single-user solve did not reach the requested KKT residual",
            best_policy=powers, residual=residual)
    return powers, cert
