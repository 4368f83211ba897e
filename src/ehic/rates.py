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

Each region's rates and their derivatives are written once, in its jet
(``noise_treated_jet``, ``min_form_jet`` with ``decode_jet``, ``strong_jet``).
``RateModel``'s kernels, the slot utilities of ``single_user`` and the joint
start of ``iterative`` all read them.

When a >= 1 >= b the user indices are swapped internally (``mirrored``) so the
canonical orientation a <= 1 <= b applies, and results are swapped back.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple
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


# A region's jet ``jet(p1, p2, order)`` computes one order at canonical
# powers, unchecked: the rates; the sum rate's partials g1, g2 and the
# partials in p2 of each user's rate, d12, d22 (r2 never depends on p1); or
# the sum rate's second partials, formed from reciprocals alone so that they
# underflow to 0 at a power too large for its square.
Rates = namedtuple("Rates", "r1 r2 total")
Partials = namedtuple("Partials", "g1 g2 d12 d22")
SecondPartials = namedtuple("SecondPartials", "h11 h12 h22")


def noise_treated_jet(a, p1, p2, order):
    """Jet of the a*b > 1 sum rate, which is also the min-form sum rate's
    branch below p_c: user 1 treats the interference a*p2 as noise, user 2
    decodes and removes user 1's signal, so
    r1 = (1/2)ln(1 + p1/(1 + a p2)) and r2 = (1/2)ln(1 + p2).  h22 <= 0
    because a <= 1; its term a^2/2 (1/base^2 - 1/s^2), s = base + p1, is
    written without the cancellation, as (s - base)(s + base)/(base s)^2.
    """
    if order == 0:
        r1, r2 = 0.5 * np.log1p(p1 / (1.0 + a * p2)), 0.5 * np.log1p(p2)
        return Rates(r1, r2, r1 + r2)
    base = 1.0 + a * p2
    if order == 1:
        d12 = -a * p1 / (2.0 * (1.0 + p1 + a * p2) * base)
        d22 = 0.5 / (1.0 + p2)
        return Partials(1.0 / (2.0 * (base + p1)), d12 + d22, d12, d22)
    rs, rb, r2 = 1.0 / (base + p1), 1.0 / base, 1.0 / (1.0 + p2)
    h11 = -0.5 * rs * rs
    h22 = (0.5 * a * a * (p1 * rs) * ((2.0 * base + p1) * rs) * rb * rb
           - 0.5 * r2 * r2)
    return SecondPartials(h11, a * h11, h22)


def decode_jet(b, p1, p2, order):
    """Orders 1 and 2 of the min-form sum rate's branch at and above p_c,
    receiver 2's decode-limited (1/2)ln(1 + b p1 + p2): user 1 gets
    r1 = (1/2)ln(1 + b p1/(1 + p2)), user 2 r2 = (1/2)ln(1 + p2)."""
    if order == 1:
        den = 2.0 * (1.0 + b * p1 + p2)
        g2, d22 = 1.0 / den, 0.5 / (1.0 + p2)
        return Partials(b / den, g2, g2 - d22, d22)
    rd = 1.0 / (1.0 + b * p1 + p2)
    h22 = -0.5 * rd * rd
    return SecondPartials(-0.5 * b * b * rd * rd, b * h22, h22)


def min_form_jet(a, b, p_c, p1, p2, order):
    """Jet of the a*b <= 1 sum rate, the least of the noise-treated and the
    decode-limited branch.  The rates take the least by value, the
    derivatives the decode-limited branch where p2 >= p_c (the slot
    utilities' branch rule), so at p_c they are its right-hand values."""
    tin = noise_treated_jet(a, p1, p2, order)
    if order == 0:
        bp1 = b * p1
        return Rates(np.minimum(tin.r1, 0.5 * np.log1p(bp1 / (1.0 + p2))),
                     tin.r2, np.minimum(tin.total, 0.5 * np.log1p(bp1 + p2)))
    dec, on_b = decode_jet(b, p1, p2, order), p2 >= p_c
    # the first three entries of either order; d22 is the same on both
    pick = map(np.where, (on_b,) * 3, dec, tin)
    return Partials(*pick, tin.d22) if order == 1 else SecondPartials(*pick)


def strong_jet(p1, p2, order):
    """Jet of the very strong sum rate: both receivers remove the
    interference, so each rate is its own link's (1/2)ln(1 + p)."""
    if order == 0:
        r1, r2 = 0.5 * np.log1p(p1), 0.5 * np.log1p(p2)
        return Rates(r1, r2, r1 + r2)
    zero = np.zeros(np.broadcast(p1, p2).shape)
    if order == 1:
        d22 = 0.5 / (1.0 + p2)
        return Partials(0.5 / (1.0 + p1), d22, zero, d22)
    r1, r2 = 1.0 / (1.0 + p1), 1.0 / (1.0 + p2)
    return SecondPartials(-0.5 * r1 * r1, zero, -0.5 * r2 * r2)


class RateModel:
    """Region-tagged sum-rate, per-user rate and derivative kernels.

    Every public kernel takes nonnegative powers in the caller's user order,
    selects its entries from the region's jet and returns them in that
    order, as floats for scalar input.  Rates are nats per channel use.
    """

    def __init__(self, channel: ChannelParams, tag: RegionTag):
        self.channel = channel
        self.region = tag.region
        self.mirrored = tag.mirrored
        # canonical gains: a <= 1 <= b orientation for the asymmetric regions
        self._a, self._b = ((channel.b, channel.a) if tag.mirrored
                            else (channel.a, channel.b))
        self.p_c = None
        if self.region is Region.ASYMMETRIC_AB_ABOVE_ONE:
            self._jet = functools.partial(noise_treated_jet, self._a)
        elif self.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
            ab = self._a * self._b
            self.p_c = (self._b - 1.0) / (1.0 - ab) if ab < 1.0 else math.inf
            self._jet = functools.partial(min_form_jet, self._a, self._b,
                                          self.p_c)
        else:
            self._jet = strong_jet

    @property
    def canonical_gains(self):
        """Cross gains in the canonical a <= 1 <= b orientation."""
        return self._a, self._b

    # -- kernels ---------------------------------------------------------------

    def _canonical_jet(self, p1, p2, order):
        """The jet at powers checked nonnegative, in canonical order."""
        p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
        if (p1 < 0).any() or (p2 < 0).any():
            raise InvalidInputError("powers must be nonnegative")
        return self._jet(*((p2, p1) if self.mirrored else (p1, p2)), order)

    def _public(self, *xs):
        """Canonical per-user results in the caller's order and one shape:
        swapping the users reverses (r1, r2), (d11, d12, d21, d22) and
        (h11, h12, h22) alike."""
        if self.mirrored:
            xs = xs[::-1]
        shape = xs[0].shape
        if any(x.shape != shape for x in xs):
            return tuple(np.broadcast_arrays(*xs))
        if not shape:
            return tuple(map(float, xs))
        return xs

    def sum_rate(self, p1, p2):
        out = self._canonical_jet(p1, p2, 0).total
        return out if out.ndim else float(out)

    def user_rates(self, p1, p2):
        """Per-user achievable rates (r1, r2); they sum to ``sum_rate``."""
        return self._public(*self._canonical_jet(p1, p2, 0)[:2])

    def grad(self, p1, p2):
        """Analytic partials (d sum_rate/d p1, d sum_rate/d p2).  On the
        min-form kink a canonical p2 >= p_c picks the decode-limited branch,
        the branch rule of the slot utilities."""
        return self._public(*self._canonical_jet(p1, p2, 1)[:2])

    def user_rate_partials(self, p1, p2):
        """Jacobian of (r1, r2) in (p1, p2): (d11, d12, d21, d22), ``dij``
        the partial of user i's rate in user j's power; a zero cross term
        is a rate that does not depend on the other transmitter."""
        jet = self._canonical_jet(p1, p2, 1)
        return self._public(jet.g1, jet.d12, np.zeros(jet.g1.shape), jet.d22)

    def hessian(self, p1, p2):
        """The sum rate's second partials (h11, h12, h22), with ``grad``'s
        branch rule on the min-form kink.  The diagonal is <= 0 in exact
        arithmetic in every region."""
        return self._public(*self._canonical_jet(p1, p2, 2))

    def curvature(self, p1, p2):
        """The diagonal of ``hessian``, (h11, h22)."""
        h11, _, h22 = self.hessian(p1, p2)
        return h11, h22


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
