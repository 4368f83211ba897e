"""Interference-region classification and sum-rate kernels.

Everything here works in normalized units: direct channel gains and receiver
noise variances are 1, so a transmit power p produces a single-link rate of
(1/2)ln(1+p) nats per channel use.  The two cross gains ``a`` (into receiver 1)
and ``b`` (into receiver 2) select one of the three regions with a known sum
capacity, each with its closed-form sum rate:

* ``ASYMMETRIC_AB_ABOVE_ONE``  (a <= 1 <= b, a*b > 1): receiver 2 decodes and
  removes the strong interferer, receiver 1 treats the weak one as noise.
* ``ASYMMETRIC_AB_AT_MOST_ONE`` (a <= 1 <= b, a*b <= 1): the rate of user 1 is
  the minimum of what the two receivers can decode; which branch is active
  depends only on p2 through the threshold power ``p_c = (b-1)/(1-a*b)``.
* ``VERY_STRONG``: both receivers remove the interference entirely, the links
  decouple into two single-user channels.

Any other (a, b) has no known sum capacity and is rejected.

When a >= 1 >= b the user indices are swapped internally (``mirrored``) so the
canonical orientation a <= 1 <= b applies, and results are swapped back.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class ChannelParams:
    """Normalized cross gains: ``a`` into receiver 1, ``b`` into receiver 2."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise InvalidInputError("cross gains must be nonnegative")


class Region(enum.Enum):
    ASYMMETRIC_AB_ABOVE_ONE = "asymmetric-ab>1"
    ASYMMETRIC_AB_AT_MOST_ONE = "asymmetric-ab<=1"
    VERY_STRONG = "very-strong"


_ASYMMETRIC = (Region.ASYMMETRIC_AB_ABOVE_ONE,
               Region.ASYMMETRIC_AB_AT_MOST_ONE)


@dataclass(frozen=True)
class RegionTag:
    region: Region
    mirrored: bool = False


def classify_region(a: float, b: float, p1_max: float, p2_max: float) -> RegionTag:
    """Pick the sum-rate kernel for cross gains (a, b) and peak powers.

    The very-strong test compares each cross gain against 1 plus the largest
    single-slot power the interfering transmitter can produce, so the
    decode-and-remove argument holds for every reachable power pair.  Any
    (a, b) outside the three regions raises ``InvalidInputError``.
    """
    if a < 0 or b < 0:
        raise InvalidInputError("cross gains must be nonnegative")
    # swap the users where only the swapped order has a <= 1 <= b
    mirrored = b <= 1.0 <= a and not a <= 1.0 <= b
    ac, bc, pm1, pm2 = (b, a, p2_max, p1_max) if mirrored else (a, b, p1_max, p2_max)
    if ac > 1.0 + pm1 and bc > 1.0 + pm2:
        return RegionTag(Region.VERY_STRONG, mirrored)
    if ac <= 1.0 <= bc:
        if ac * bc > 1.0:
            return RegionTag(Region.ASYMMETRIC_AB_ABOVE_ONE, mirrored)
        return RegionTag(Region.ASYMMETRIC_AB_AT_MOST_ONE, mirrored)
    raise InvalidInputError(
        f"cross gains a={a!r}, b={b!r} have no known sum capacity: the "
        "model covers a*b > 1 and a*b <= 1 with a <= 1 <= b (either "
        "orientation) and the very strong region")


def _asym_r1(p1, p2, a):
    # rate of the canonical first user when its interference is treated as noise
    return 0.5 * np.log1p(p1 / (1.0 + a * p2))


class RateModel:
    """Region-tagged sum-rate, per-user rate and gradient kernels.

    Every public kernel takes nonnegative powers in the caller's user order
    and returns per-user results in it, as floats for scalar input; the
    mirrored swap is internal.  Rates are nats per channel use.
    """

    def __init__(self, channel: ChannelParams, tag: RegionTag):
        self.channel = channel
        self.region = tag.region
        self.mirrored = tag.mirrored
        # canonical gains: a <= 1 <= b orientation for the asymmetric regions
        if tag.mirrored:
            self._a, self._b = channel.b, channel.a
        else:
            self._a, self._b = channel.a, channel.b
        if self.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
            ab = self._a * self._b
            self.p_c = (self._b - 1.0) / (1.0 - ab) if ab < 1.0 else math.inf
        else:
            self.p_c = None

    @property
    def canonical_gains(self):
        """Cross gains in the canonical a <= 1 <= b orientation."""
        return self._a, self._b

    # -- kernels ---------------------------------------------------------------

    def _canonical(self, p1, p2):
        """Powers as float arrays, checked nonnegative, in canonical order."""
        p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
        if (p1 < 0).any() or (p2 < 0).any():
            raise InvalidInputError("powers must be nonnegative")
        return (p2, p1) if self.mirrored else (p1, p2)

    def _public_pair(self, x1, x2):
        """A canonical per-user pair in the caller's order and one shape."""
        if self.mirrored:
            x1, x2 = x2, x1
        if np.shape(x1) != np.shape(x2):
            x1, x2 = np.broadcast_arrays(x1, x2)
        if np.ndim(x1) == 0:
            return float(x1), float(x2)
        return x1, x2

    def sum_rate(self, p1, p2):
        out = self._sum_rate_canonical(*self._canonical(p1, p2))
        return out if out.ndim else float(out)

    def _sum_rate_canonical(self, p1, p2):
        a, b = self._a, self._b
        if self.region is Region.ASYMMETRIC_AB_ABOVE_ONE:
            return _asym_r1(p1, p2, a) + 0.5 * np.log1p(p2)
        if self.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
            e1 = _asym_r1(p1, p2, a) + 0.5 * np.log1p(p2)
            e2 = 0.5 * np.log1p(b * p1 + p2)
            return np.minimum(e1, e2)
        return 0.5 * np.log1p(p1) + 0.5 * np.log1p(p2)

    def user_rates(self, p1, p2):
        """Per-user achievable rates (r1, r2); they sum to ``sum_rate``."""
        return self._public_pair(
            *self._user_rates_canonical(*self._canonical(p1, p2)))

    def _user_rates_canonical(self, p1, p2):
        a, b = self._a, self._b
        if self.region is Region.ASYMMETRIC_AB_ABOVE_ONE:
            return _asym_r1(p1, p2, a), 0.5 * np.log1p(p2)
        if self.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
            r1 = np.minimum(_asym_r1(p1, p2, a),
                            0.5 * np.log1p(b * p1 / (1.0 + p2)))
            return r1, 0.5 * np.log1p(p2)
        return 0.5 * np.log1p(p1), 0.5 * np.log1p(p2)

    def grad(self, p1, p2):
        """Analytic partials (d sum_rate/d p1, d sum_rate/d p2).

        On the kinked branch boundary of the min-form region the branch is
        selected by the p2 threshold (>= p_c picks the decode-limited branch),
        matching the branch rule used by the subproblem builders.
        """
        d1, d2 = self._grad_canonical(*self._canonical(p1, p2))
        return self._public_pair(d1, d2)

    def _tin_partials(self, p1, p2):
        """(d11, d12) of the canonical user 1's noise-treated rate."""
        a = self._a
        base = 1.0 + a * p2
        return (1.0 / (2.0 * (base + p1)),
                -a * p1 / (2.0 * (1.0 + p1 + a * p2) * base))

    def _grad_canonical(self, p1, p2):
        if self.region in _ASYMMETRIC:
            d1, d12 = self._tin_partials(p1, p2)
            d2 = d12 + 1.0 / (2.0 * (1.0 + p2))
            if self.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
                den = 2.0 * (1.0 + self._b * p1 + p2)
                on_b = p2 >= self.p_c
                d1 = np.where(on_b, self._b / den, d1)
                d2 = np.where(on_b, 1.0 / den, d2)
            return d1, d2
        return 0.5 / (1.0 + p1), 0.5 / (1.0 + p2)

    def user_rate_partials(self, p1, p2):
        """Jacobian of (r1, r2) in (p1, p2): (d11, d12, d21, d22).

        ``dij`` is the partial of user i's rate in user j's power.  Used by the
        data-causality penalty gradients; zero cross terms encode per-user
        rates that do not depend on the other transmitter.
        """
        c11, c12, c21, c22 = self._partials_canonical(*self._canonical(p1, p2))
        # mirroring swaps the users, so d11 <-> d22 and d12 <-> d21
        d11, d22 = self._public_pair(c11, c22)
        d12, d21 = self._public_pair(c12, c21)
        return d11, d12, d21, d22

    def _partials_canonical(self, p1, p2):
        zero = np.zeros(np.broadcast(p1, p2).shape)
        d22 = 0.5 / (1.0 + p2)
        if self.region in _ASYMMETRIC:
            d11, d12 = self._tin_partials(p1, p2)
            if self.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
                den = 2.0 * (1.0 + self._b * p1 + p2)
                on_b = p2 >= self.p_c
                d11 = np.where(on_b, self._b / den, d11)
                d12 = np.where(on_b, 1.0 / den - d22, d12)
            return d11, d12, zero, d22
        return 0.5 / (1.0 + p1), zero, zero, d22


def build_rate_model(a: float, b: float, p1_max: float,
                     p2_max: float) -> RateModel:
    """Classify (a, b) against the peak powers and assemble the rate model."""
    return RateModel(ChannelParams(a, b), classify_region(a, b, p1_max, p2_max))


@dataclass(frozen=True)
class ChannelNormalization:
    """Normalized cross gains plus the per-user energy scale factors.

    ``energy_scale[j]`` converts Joules at transmitter j into normalized
    energy units: direct link gain over (noise PSD x bandwidth).
    """

    params: ChannelParams
    energy_scale: tuple


def normalize_channel(h11_db: float, h22_db: float, h12_db: float,
                      h21_db: float, noise_psd: float,
                      bandwidth: float) -> ChannelNormalization:
    """Reduce physical link gains (dB) and noise to normalized cross gains.

    Powers are normalized per receiver so the direct gain and noise variance
    become 1; the cross gains then are the dB gain gaps in linear scale.
    """
    if noise_psd <= 0 or bandwidth <= 0:
        raise InvalidInputError("noise PSD and bandwidth must be positive")
    lin = lambda db: 10.0 ** (db / 10.0)
    a = lin(h12_db - h11_db)
    b = lin(h21_db - h22_db)
    noise_power = noise_psd * bandwidth
    scale = (lin(h11_db) / noise_power, lin(h22_db) / noise_power)
    return ChannelNormalization(ChannelParams(a, b), scale)
