"""Region classification and rate-kernel checks, including the hand-computed
values for each region and the analytic/numeric gradient agreement."""

import math

import numpy as np
import pytest

from ehic.errors import InvalidInputError
from ehic.rates import (Region, build_rate_model, classify_region,
                        normalize_channel)

LN = math.log


class TestClassify:
    def test_asymmetric_above_one(self):
        tag = classify_region(0.9, 2.0, 10.0, 10.0)
        assert tag.region is Region.ASYMMETRIC_AB_ABOVE_ONE
        assert not tag.mirrored

    def test_asymmetric_at_most_one_threshold(self):
        model = build_rate_model(0.5, 1.5, 5.0, 5.0)
        assert model.region is Region.ASYMMETRIC_AB_AT_MOST_ONE
        assert model.p_c == pytest.approx(2.0)

    def test_very_strong_requires_power_bounds(self):
        assert classify_region(4.0, 4.0, 2.0, 2.0).region is Region.VERY_STRONG
        # with larger peak powers the decode argument fails, and two strong
        # cross gains outside it have no known sum capacity
        with pytest.raises(InvalidInputError, match="no known sum capacity"):
            classify_region(4.0, 4.0, 5.0, 5.0)

    def test_mirrored_orientation(self):
        tag = classify_region(2.0, 0.9, 10.0, 10.0)
        assert tag.mirrored
        assert tag.region is Region.ASYMMETRIC_AB_ABOVE_ONE

    @pytest.mark.parametrize("a, b, region", [
        (1.0, 2.0, Region.ASYMMETRIC_AB_ABOVE_ONE),
        (0.5, 1.0, Region.ASYMMETRIC_AB_AT_MOST_ONE),
    ])
    def test_unit_gain_classifies_in_both_orientations(self, a, b, region):
        # a unit gain lies on the boundary a <= 1 <= b of the canonical
        # orientation, so the swapped channel is the same one mirrored, not
        # a channel without a region
        fwd = build_rate_model(a, b, 10.0, 10.0)
        mir = build_rate_model(b, a, 10.0, 10.0)
        assert (fwd.region, mir.region) == (region, region)
        assert not fwd.mirrored and mir.mirrored
        assert mir.sum_rate(3.0, 0.5) == fwd.sum_rate(0.5, 3.0)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.0, 0.0), (0.9, 0.99),
                                      (1.5, 1.2)])
    def test_other_gains_have_no_known_sum_capacity(self, a, b):
        with pytest.raises(InvalidInputError, match="no known sum capacity"):
            classify_region(a, b, 5.0, 5.0)
        with pytest.raises(InvalidInputError, match="no known sum capacity"):
            build_rate_model(a, b, 5.0, 5.0)

    def test_negative_gain_rejected(self):
        with pytest.raises(InvalidInputError):
            classify_region(-0.1, 1.0, 1.0, 1.0)


class TestSumRate:
    def test_zero_identity_all_regions(self):
        for model in _all_models():
            assert model.sum_rate(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_region_a_hand_value(self):
        model = build_rate_model(0.5, 2.5, 10.0, 10.0)
        expect = 0.5 * LN(5.0 / 3.0) + 0.5 * LN(2.0)
        assert model.sum_rate(1.0, 1.0) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.6020, abs=5e-5)

    def test_silent_interferer_reduces_to_point_to_point(self):
        for a in (0.1, 0.5, 0.9):
            model = build_rate_model(a, 2.0, 10.0, 10.0)
            assert model.sum_rate(3.0, 0.0) == pytest.approx(0.5 * LN(4.0))

    def test_negative_power_rejected(self):
        model = build_rate_model(0.9, 2.0, 10.0, 10.0)
        with pytest.raises(InvalidInputError):
            model.sum_rate(-0.5, 1.0)

    def test_mirrored_matches_swapped(self):
        fwd = build_rate_model(0.9, 2.0, 10.0, 10.0)
        mir = build_rate_model(2.0, 0.9, 10.0, 10.0)
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 5, (50, 2))
        assert np.allclose(mir.sum_rate(p[:, 0], p[:, 1]),
                           fwd.sum_rate(p[:, 1], p[:, 0]), atol=1e-14)
        r1m, r2m = mir.user_rates(p[:, 0], p[:, 1])
        r1f, r2f = fwd.user_rates(p[:, 1], p[:, 0])
        assert np.allclose(r1m, r2f) and np.allclose(r2m, r1f)


class TestUserRates:
    def test_silent_user_has_zero_rate(self):
        model = build_rate_model(0.9, 2.0, 10.0, 10.0)
        r1, r2 = model.user_rates(0.0, 5.0)
        assert r1 == pytest.approx(0.0, abs=1e-14)
        assert r2 == pytest.approx(0.5 * LN(6.0))

    def test_very_strong_decoupled(self):
        model = build_rate_model(50.0, 50.0, 2.0, 2.0)
        assert model.region is Region.VERY_STRONG
        r1, r2 = model.user_rates(1.0, 3.0)
        assert (r1, r2) == (pytest.approx(0.5 * LN(2.0)),
                            pytest.approx(0.5 * LN(4.0)))

    def test_sum_consistency_everywhere(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 10, (1000, 2))
        for model in _all_models():
            r1, r2 = model.user_rates(p[:, 0], p[:, 1])
            assert np.max(np.abs(r1 + r2 - model.sum_rate(p[:, 0], p[:, 1]))) \
                <= 1e-12


class TestGradient:
    def test_region_a_hand_values(self):
        model = build_rate_model(0.5, 2.5, 10.0, 10.0)
        d1, d2 = model.grad(1.0, 1.0)
        assert d1 == pytest.approx(0.2, abs=1e-12)
        assert d2 == pytest.approx(-0.5 / 7.5 + 0.25, abs=1e-12)
        assert d2 == pytest.approx(0.18333, abs=5e-6)

    def test_no_interference_column(self):
        model = build_rate_model(0.9, 2.0, 10.0, 10.0)
        for p2 in (0.0, 1.0, 7.0):
            _, d2 = model.grad(0.0, p2)
            assert d2 == pytest.approx(1.0 / (2.0 * (1.0 + p2)), abs=1e-14)

    def test_region_b_decode_branch(self):
        model = build_rate_model(0.5, 1.5, 10.0, 10.0)
        p1, p2 = 2.0, 3.0   # p2 above the threshold 2
        _, d2 = model.grad(p1, p2)
        assert d2 == pytest.approx(1.0 / (2.0 * (1.0 + 1.5 * p1 + p2)),
                                   abs=1e-14)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(2)
        step = 1e-6
        for model in _all_models():
            pts = rng.uniform(0.1, 10.0, (1000, 2))
            if model.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
                pts = pts[np.abs(pts[:, 1] - model.p_c) > 1e-3]
            d1, d2 = model.grad(pts[:, 0], pts[:, 1])
            f = model.sum_rate
            fd1 = (f(pts[:, 0] + step, pts[:, 1])
                   - f(pts[:, 0] - step, pts[:, 1])) / (2 * step)
            fd2 = (f(pts[:, 0], pts[:, 1] + step)
                   - f(pts[:, 0], pts[:, 1] - step)) / (2 * step)
            assert np.max(np.abs(d1 - fd1)) <= 1e-6
            assert np.max(np.abs(d2 - fd2)) <= 1e-6


class TestCurvature:
    """``curvature`` is the diagonal of the sum rate's Hessian: each entry
    is the difference quotient of the same entry of ``grad``."""

    # 0, small, moderate and large powers, and both sides of the min-form
    # threshold p_c = 2 of (0.5, 1.5) and its mirror, never on it
    POWERS = (0.0, 0.05, 0.7, 1.98, 2.02, 6.0, 1e3, 1e5)

    @staticmethod
    def _grad_differences(model, p1, p2):
        """Central differences of ``grad`` with a step relative to the
        power; at p = 0, where no negative power may be read, the one-sided
        second-order difference."""
        out = []
        for k in (0, 1):
            p = [p1, p2]
            h = 1e-4 * (1.0 + p[k])

            def g(t):
                q = list(p)
                q[k] = t
                return model.grad(*q)[k]

            central = (g(p[k] + h) - g(np.maximum(p[k] - h, 0.0))) / (2 * h)
            forward = (4.0 * g(p[k] + h) - 3.0 * g(p[k])
                       - g(p[k] + 2 * h)) / (2 * h)
            out.append(np.where(p[k] > 0.0, central, forward))
        return out

    def test_matches_differences_of_the_gradient(self):
        p1, p2 = (g.ravel() for g in np.meshgrid(self.POWERS, self.POWERS))
        for model in _all_models() + _mirrored_models():
            got = model.curvature(p1, p2)
            for h, fd in zip(got, self._grad_differences(model, p1, p2)):
                assert np.all(h <= 0.0), model.region
                assert np.all(np.abs(h - fd) <= 1e-6 * np.abs(fd) + 1e-15), \
                    (model.region, model.mirrored)

    def test_min_form_branches(self):
        # p2 >= p_c picks the decode-limited branch, as grad does
        model = build_rate_model(0.5, 1.5, 10.0, 10.0)
        den = 1.0 + 1.5 * 1.0 + 2.0
        assert model.curvature(1.0, 2.0) == pytest.approx(
            (-0.5 * 1.5 ** 2 / den ** 2, -0.5 / den ** 2), rel=1e-14)
        assert model.curvature(0.0, 1.0) == pytest.approx(
            (-0.5 / 1.5 ** 2, -0.125), rel=1e-14)

    def test_very_strong_hand_values(self):
        model = build_rate_model(50.0, 50.0, 2.0, 2.0)
        assert model.curvature(1.0, 3.0) == pytest.approx(
            (-0.125, -1.0 / 32.0), rel=1e-14)

    def test_huge_powers_underflow_to_zero(self):
        # every entry is formed from reciprocals, so no square overflows
        # (a RuntimeWarning fails the suite)
        for model in _all_models() + _mirrored_models():
            h1, h2 = model.curvature(np.array([1e170, 1.0]),
                                     np.array([1.0, 1e170]))
            assert h1[0] == 0.0 and h2[1] == 0.0
            assert np.all(np.isfinite(h1)) and np.all(np.isfinite(h2))


class TestKernelPath:
    """The public kernels share one input and output path."""

    KERNELS = ("sum_rate", "user_rates", "grad", "user_rate_partials",
               "curvature")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_negative_power_rejected(self, kernel):
        for model in _all_models() + _mirrored_models():
            fun = getattr(model, kernel)
            for p1, p2 in ((-0.5, 1.0), (1.0, -0.5),
                           (np.array([1.0, -1e-3]), np.array([1.0, 2.0]))):
                with pytest.raises(InvalidInputError):
                    fun(p1, p2)

    @pytest.mark.parametrize("kernel", KERNELS[1:])
    def test_mirrored_scalar_and_array(self, kernel):
        fwd = getattr(build_rate_model(0.9, 2.0, 10.0, 10.0), kernel)
        mir = getattr(build_rate_model(2.0, 0.9, 10.0, 10.0), kernel)
        p = np.array([0.5, 2.0])
        # swapping the users reverses (r1, r2), (d1, d2) and
        # (d11, d12, d21, d22) alike
        for got, fwd_out in ((mir(1.0, p), fwd(p, 1.0)),
                             (mir(p, 1.0), fwd(1.0, p))):
            assert all(np.shape(x) == (2,) for x in got)
            assert np.array_equal(np.array(got), np.array(fwd_out[::-1]))
        scalar = mir(1.0, 0.5)
        assert all(type(x) is float for x in scalar)

    def test_partials_match_user_rate_differences(self):
        rng = np.random.default_rng(4)
        step = 1e-6
        for model in _all_models() + _mirrored_models():
            pts = rng.uniform(0.1, 10.0, (500, 2))
            if model.p_c is not None:
                # keep off the min-form kink in the canonical second power
                kink = pts[:, 0] if model.mirrored else pts[:, 1]
                pts = pts[np.abs(kink - model.p_c) > 1e-3]
            p1, p2 = pts[:, 0], pts[:, 1]
            d1 = np.subtract(model.user_rates(p1 + step, p2),
                             model.user_rates(p1 - step, p2)) / (2 * step)
            d2 = np.subtract(model.user_rates(p1, p2 + step),
                             model.user_rates(p1, p2 - step)) / (2 * step)
            # (d11, d12, d21, d22): user i's rate in user j's power
            want = (d1[0], d2[0], d1[1], d2[1])
            for got, w in zip(model.user_rate_partials(p1, p2), want):
                assert np.max(np.abs(got - w)) <= 1e-6, model.region

    def test_grad_is_column_sum_of_partials(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 10.0, (500, 2))
        for model in _all_models() + _mirrored_models():
            d11, d12, d21, d22 = model.user_rate_partials(pts[:, 0], pts[:, 1])
            d1, d2 = model.grad(pts[:, 0], pts[:, 1])
            assert np.allclose(d1, d11 + d21, rtol=1e-13, atol=1e-15)
            assert np.allclose(d2, d12 + d22, rtol=1e-13, atol=1e-15)


class TestRegionBContinuity:
    def test_branches_agree_at_threshold(self):
        model = build_rate_model(0.5, 1.5, 10.0, 10.0)
        pc = model.p_c
        for p1 in np.linspace(0.0, 10.0, 50):
            e1 = 0.5 * np.log1p(p1 / (1.0 + 0.5 * pc)) + 0.5 * np.log1p(pc)
            e2 = 0.5 * np.log1p(1.5 * p1 + pc)
            assert abs(e1 - e2) <= 1e-10
            assert model.sum_rate(p1, pc) == pytest.approx(min(e1, e2),
                                                           abs=1e-12)


class TestMonotoneConcave:
    def test_monotone_on_grid(self):
        grid = np.arange(0.0, 10.0 + 1e-9, 0.1)
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        for model in _all_models():
            r = model.sum_rate(g1, g2)
            assert np.all(np.diff(r, axis=0) >= -1e-12)
            assert np.all(np.diff(r, axis=1) >= -1e-12)

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, (1000, 2))
        y = rng.uniform(0, 10, (1000, 2))
        for model in _all_models():
            mid = model.sum_rate(0.5 * (x[:, 0] + y[:, 0]),
                                 0.5 * (x[:, 1] + y[:, 1]))
            avg = 0.5 * (model.sum_rate(x[:, 0], x[:, 1])
                         + model.sum_rate(y[:, 0], y[:, 1]))
            assert np.min(mid - avg) >= -1e-12


class TestNormalizeChannel:
    def test_reference_link_budget(self):
        norm = normalize_channel(h11_db=-100.0, h22_db=-100.0,
                                 h12_db=-101.55, h21_db=-93.01,
                                 noise_psd=1e-19, bandwidth=1e6)
        assert norm.params.a == pytest.approx(0.70, abs=0.005)
        assert norm.params.b == pytest.approx(5.00, abs=0.05)
        # -100 dB direct gain over 1e-13 W noise power: 1000 per joule
        assert norm.energy_scale[0] == pytest.approx(1000.0, rel=1e-9)

    def test_equal_gains_identity(self):
        norm = normalize_channel(-80.0, -80.0, -80.0, -80.0, 1e-19, 1e6)
        assert norm.params.a == pytest.approx(1.0)
        assert norm.params.b == pytest.approx(1.0)

    def test_invalid_noise_rejected(self):
        with pytest.raises(InvalidInputError):
            normalize_channel(-100, -100, -100, -100, 0.0, 1e6)


def _all_models():
    return [
        build_rate_model(0.9, 2.0, 10.0, 10.0),
        build_rate_model(0.5, 1.5, 10.0, 10.0),
        build_rate_model(50.0, 50.0, 2.0, 2.0),
    ]


def _mirrored_models():
    return [build_rate_model(2.0, 0.9, 10.0, 10.0),
            build_rate_model(1.5, 0.5, 10.0, 10.0)]
