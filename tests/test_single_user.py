"""Single-user corridor solver: worked examples, certificate structure,
closed-form agreement and random stress against an independent search."""

import json
import math

import numpy as np
import pytest

from ehic import cli, single_user
from ehic.errors import (ConvergenceError, InfeasiblePolicyError,
                         InvalidUtilityError)
from ehic.model import HarvestProfile, TimeGrid
from ehic.rates import build_rate_model, decode_jet, noise_treated_jet
from ehic.single_user import (InterferedUtilities, PiecewiseMinUtilities,
                              ScaledLogUtilities, _equalize,
                              _real_cubic_roots, solve_single_user,
                              verify_kkt)

from helpers import bisect_equalize, reference_verify_kkt


def log_utils(n, h=None):
    return ScaledLogUtilities(np.ones(n) if h is None else np.asarray(h))


def skewed_inverse(util):
    """``util`` with a wrong inverse, patched on the instance: it sends
    twice the power to the second slot at every level."""
    inverse = util.inv_deriv

    def skewed(level, idx=None):
        return inverse(level, idx) * np.where(util._all_idx(idx) == 1,
                                              2.0, 1.0)

    util.inv_deriv = skewed
    return util


class TestWorkedExamples:
    def test_equalize_two_slots(self):
        p, cert = solve_single_user(log_utils(2),
                                    HarvestProfile(np.array([2.0, 0.0]), 2.0),
                                    TimeGrid(2, 1.0))
        assert np.allclose(p, [1.0, 1.0], atol=1e-10)
        assert cert.stationarity_residual <= 1e-8

    def test_causality_blocks_backward_flow(self):
        p, _ = solve_single_user(log_utils(2),
                                 HarvestProfile(np.array([0.0, 2.0]), 2.0),
                                 TimeGrid(2, 1.0))
        assert np.allclose(p, [0.0, 2.0], atol=1e-12)

    def test_battery_forces_minimum_consumption(self):
        # raw [3,0,3] truncates to [2,0,2]; causality caps the first two
        # slots at 2 total while capacity requires 2 consumed by slot 2
        harvest = HarvestProfile(np.minimum(np.array([3.0, 0.0, 3.0]), 2.0),
                                 2.0)
        p, cert = solve_single_user(log_utils(3), harvest, TimeGrid(3, 1.0))
        assert np.allclose(p, [1.0, 1.0, 2.0], atol=1e-9)
        assert cert.stationarity_residual <= 1e-8

    def test_single_slot_spend_all(self):
        p, cert = solve_single_user(log_utils(1),
                                    HarvestProfile(np.array([1.0]), 2.0),
                                    TimeGrid(1, 1.0))
        assert np.allclose(p, [1.0])
        assert cert.stationarity_residual <= 1e-8


class TestVerifyKkt:
    def test_certifies_known_optimum(self):
        harvest = HarvestProfile(np.array([2.0, 0.0]), 2.0)
        cert = verify_kkt(np.array([1.0, 1.0]), log_utils(2), harvest,
                          TimeGrid(2, 1.0))
        assert cert.stationarity_residual <= 1e-8
        assert cert.complementarity_residual <= 1e-8

    def test_flags_greedy_policy(self):
        # spending everything up front leaves unequal levels with no active
        # constraint separating them: residual is |1/2 - 1/6| = 1/3
        harvest = HarvestProfile(np.array([2.0, 0.0]), 2.0)
        cert = verify_kkt(np.array([2.0, 0.0]), log_utils(2), harvest,
                          TimeGrid(2, 1.0))
        assert cert.stationarity_residual > 0.1
        assert cert.stationarity_residual == pytest.approx(1.0 / 3.0,
                                                           abs=1e-12)

    def test_single_slot(self):
        cert = verify_kkt(np.array([1.0]), log_utils(1),
                          HarvestProfile(np.array([1.0]), 2.0),
                          TimeGrid(1, 1.0))
        assert cert.stationarity_residual <= 1e-8

    def test_rejects_infeasible_policy(self):
        harvest = HarvestProfile(np.array([1.0, 0.0]), 2.0)
        with pytest.raises(InfeasiblePolicyError):
            verify_kkt(np.array([2.0, 0.0]), log_utils(2), harvest,
                       TimeGrid(2, 1.0))

    def test_rejects_non_finite_policy(self):
        # NaN fails every comparison, so without the check it certified
        # with both residuals 0
        harvest = HarvestProfile(np.array([2.0, 0.0]), 2.0)
        with pytest.raises(InfeasiblePolicyError):
            verify_kkt(np.array([np.nan, np.nan]), log_utils(2), harvest,
                       TimeGrid(2, 1.0))

    def test_multiplier_signs_and_placement(self):
        rng = np.random.default_rng(5)
        grid_cases = 0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            emax = float(rng.choice([0.5, 1.0, 2.0]))
            e = np.minimum(rng.uniform(0, emax, n), emax)
            harvest = HarvestProfile(e, emax)
            grid = TimeGrid(n, 1.0)
            p, cert = solve_single_user(log_utils(n, rng.uniform(0.3, 2, n)),
                                        harvest, grid)
            assert np.all(cert.lam >= 0) and np.all(cert.mu >= 0)
            assert np.all(cert.eta >= 0)
            s = np.cumsum(p)
            cum_e = np.cumsum(e)
            for k in range(n):
                if cert.lam[k] > 1e-9:
                    assert cum_e[k] - s[k] <= 1e-7   # battery empty
                if k < n - 1 and cert.mu[k] > 1e-9:
                    assert s[k] - (cum_e[k + 1] - emax) <= 1e-7  # battery full
                    grid_cases += 1
        assert grid_cases > 0   # the family does exercise capacity binds


def _assert_same_certificate(row, utilities, harvest, grid):
    """``verify_kkt`` and its numpy-scalar reference agree bit for bit, or
    both reject the row.  Returns the certificate (None when rejected)."""
    try:
        ref = reference_verify_kkt(row, utilities, harvest, grid)
    except InfeasiblePolicyError:
        with pytest.raises(InfeasiblePolicyError):
            verify_kkt(row, utilities, harvest, grid)
        return None
    got = verify_kkt(row, utilities, harvest, grid)
    for name in ("lam", "mu", "eta", "water_levels"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("stationarity_residual", "complementarity_residual"):
        a, b = getattr(got, name), getattr(ref, name)
        assert type(a) is float and np.float64(a).tobytes() == \
            np.float64(b).tobytes(), name
    return got


class TestCertificateReference:
    """``verify_kkt`` runs its per-slot passes on Python floats; the
    certificate is the numpy-scalar reference's, bit for bit."""

    def test_fig8_start_and_distributed_rows(self):
        from ehic.iterative import build_subproblem, feasible_floor, joint_start
        from ehic.online import distributed_policy

        scens = [cli.gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
                 for s in range(20)]
        rms = [cli._rate_model_for(sc) for sc in scens]
        starts = joint_start(scens, rms[0])[0]
        accepted = 0
        for scen, rm, start in zip(scens, rms, starts):
            rows = np.vstack([feasible_floor(start[j], scen.users[j].harvest,
                                             1.0) for j in range(2)])
            for user in range(2):
                harvest = scen.users[user].harvest
                util = build_subproblem(scen, rm, user, rows[1 - user])
                cert = _assert_same_certificate(rows[user], util, harvest,
                                                scen.grid)
                accepted += cert is not None
                other = scen.users[1 - user].harvest.arrivals
                util = build_subproblem(scen, rm, user,
                                        np.full(20, np.sum(other) / 20.0))
                row = distributed_policy(scen, user)
                assert _assert_same_certificate(row, util, harvest,
                                                scen.grid) is not None
        assert accepted == 40

    def test_fig7(self):
        from ehic.iterative import build_subproblem, iterate_offline

        scen = cli.fig7_scenario()
        rm = cli._rate_model_for(scen)
        policy, _ = iterate_offline(scen, rm)
        for user in range(2):
            util = build_subproblem(scen, rm, user, policy[1 - user])
            cert = _assert_same_certificate(policy[user], util,
                                            scen.users[user].harvest, scen.grid)
            assert cert.stationarity_residual <= 1e-7

    @pytest.mark.parametrize("family", ["scaled_log", "interfered",
                                        "piecewise_min"])
    def test_random_rows(self, family):
        from ehic.iterative import feasible_floor

        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(12):
            n = int(rng.integers(1, 16))
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            emax = float(rng.uniform(1.0, 8.0))
            e = np.where(rng.random(n) < 0.5, rng.uniform(0, emax, n), 0.0)
            harvest = HarvestProfile(e, emax)
            grid = TimeGrid(n, tau)
            util = _family(family, rng, n)
            solved, _ = solve_single_user(util, harvest, grid)
            rows = [solved, feasible_floor(rng.uniform(0, 3, n), harvest, tau),
                    feasible_floor(np.zeros(n), harvest, tau)]
            if family == "piecewise_min":
                # slots at the kink, where the derivative is an interval
                rows.append(feasible_floor(
                    np.where(rng.random(n) < 0.5, util.p_c, solved),
                    harvest, tau))
            for row in rows:
                checked += _assert_same_certificate(row, util, harvest,
                                                    grid) is not None
        assert checked >= 36

    @pytest.mark.parametrize("row", [
        np.array([2.0, 0.0]),          # overspends slot 1
        np.array([-0.5, 1.0]),         # negative power
        np.array([np.nan, np.nan]),
        np.array([1.0, np.inf]),
        np.array([1.0]),               # wrong shape
    ], ids=["overspend", "negative", "nan", "inf", "shape"])
    def test_same_rejections(self, row):
        harvest = HarvestProfile(np.array([1.0, 0.0]), 2.0)
        assert _assert_same_certificate(row, log_utils(2), harvest,
                                        TimeGrid(2, 1.0)) is None


class TestWaterLevelStructure:
    def test_level_moves_only_at_active_constraints(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            emax = 1.0
            e = rng.uniform(0, 1.0, n)
            harvest = HarvestProfile(e, emax)
            p, cert = solve_single_user(log_utils(n, rng.uniform(0.3, 2, n)),
                                        harvest, TimeGrid(n, 1.0))
            lv = cert.water_levels
            s = np.cumsum(p)
            cum_e = np.cumsum(e)
            for k in range(n - 1):
                if p[k] > 1e-9 and p[k + 1] > 1e-9:
                    if lv[k] > lv[k + 1] + 1e-9:      # marginal drops forward
                        assert cum_e[k] - s[k] <= 1e-7
                    if lv[k] < lv[k + 1] - 1e-9:      # marginal rises forward
                        assert s[k] - (cum_e[k + 1] - emax) <= 1e-7

    def test_matches_closed_form_on_segments(self):
        # with log utilities the optimum is [nu - 1/h]^+ slotwise, where nu
        # is 1/(2 * level) on each constant-level stretch
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            h = rng.uniform(0.3, 2.0, n)
            e = rng.uniform(0, 2.0, n)
            harvest = HarvestProfile(np.minimum(e, 2.0), 2.0)
            p, cert = solve_single_user(log_utils(n, h), harvest,
                                        TimeGrid(n, 1.0))
            formula = np.maximum(0.0,
                                 1.0 / (2.0 * cert.water_levels) - 1.0 / h)
            assert np.allclose(p, formula, atol=1e-7)

    def test_consumes_all_energy(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            e = rng.uniform(0, 1.5, n)
            harvest = HarvestProfile(np.minimum(e, 2.0), 2.0)
            p, _ = solve_single_user(log_utils(n), harvest, TimeGrid(n, 1.0))
            assert np.sum(p) == pytest.approx(np.sum(harvest.arrivals),
                                              abs=1e-9)


class TestUtilityFamilies:
    def test_interfered_inverse_is_exact(self):
        util = InterferedUtilities(0.9, np.array([0.0, 0.4, 2.0, 8.0]))
        for level in (0.49, 0.3, 0.1, 0.02, 0.004):
            q = util.inv_deriv(level)
            err = np.abs(np.where(q > 0, util.deriv(q) - level, 0.0))
            assert np.max(err) <= 1e-10

    @pytest.mark.parametrize("a, p_other, level", [
        (1e-4, 1e6, 0.1), (1e-5, 1e5, 0.05), (1e-6, 1e4, 0.3)])
    def test_interfered_inverse_falls_back_to_bisection(self, monkeypatch, a,
                                                        p_other, level):
        # a weak cross gain against a strong interferer: the cubic's
        # coefficients cancel, its Newton-polished root misses by more than
        # 1e-9, and only that slot is inverted by bisection
        real, calls = single_user._bisect_inv, []

        def spy(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(single_user, "_bisect_inv", spy)
        util = InterferedUtilities(a, np.array([p_other, 1.0]))
        q = util.inv_deriv(level)
        assert calls == [1]
        assert np.all(q > 0.0)
        assert np.max(np.abs(util.deriv(q) - level)) <= 1e-12

    def test_interfered_without_cross_gain(self):
        # a = 0 leaves f'(p) = 1/(2(1 + p)), inverted in closed form
        util = InterferedUtilities(0.0, np.array([0.0, 0.4, 2.0, 8.0]))
        for level in (0.7, 0.5, 0.49, 0.3, 0.1, 0.02, 0.004):
            q = util.inv_deriv(level)
            assert np.array_equal(q, np.full(4, max(0.0, 1 / (2 * level) - 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solve_offline_without_cross_gain(self, seed, tmp_path):
        # a = 0, b = 1.5 is in the min-form region, whose noise-treated
        # branch is the interfered utility at a = 0
        scen = str(tmp_path / "scen.json")
        assert cli.main(["gen-scenario", "--n", "20", "--tau", "1",
                         "--emax", "10", "--mean-interarrival", "5",
                         "--seed", str(seed), "--a", "0", "--b", "1.5",
                         "--out", scen]) == 0
        out = tmp_path / "run"
        assert cli.main(["solve-offline", "--scenario", scen, "--tol", "1e-7",
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"]
        assert max(summary[f"{kind}_user{u}"] for kind in
                   ("stationarity", "complementarity") for u in (1, 2)) <= 1e-7

    def test_cubic_roots_fast_path_matches_masked_path(self):
        # x^3 + c1 x + c0 with c1 > 0 has one real root, so the first call
        # takes the unmasked path; the appended (x-1)(x-2)(x-3) forces the
        # masked gathers on the same entries
        rng = np.random.default_rng(7)
        c1 = rng.uniform(0.1, 3.0, 50)
        c0 = rng.normal(0.0, 5.0, 50)
        fast = _real_cubic_roots(np.ones(50), np.zeros(50), c1, c0)
        masked = _real_cubic_roots(np.ones(51), np.append(np.zeros(50), -6.0),
                                   np.append(c1, 11.0), np.append(c0, -6.0))
        assert np.isnan(fast[1:]).all()
        assert np.array_equal(fast, masked[:, :50], equal_nan=True)
        assert np.allclose(masked[:, 50], [3.0, 2.0, 1.0])

    def test_piecewise_kink_plateau(self):
        util = PiecewiseMinUtilities(0.5, 1.5, 2.0, np.array([1.0, 4.0]))
        lo, hi = util.deriv_range(np.array([2.0, 2.0]))
        assert np.all(lo <= hi)
        # inside the kink interval the inverse sits exactly at the threshold
        level = 0.5 * (lo[0] + hi[0])
        q = util.inv_deriv(float(level), np.array([0]))
        assert q[0] == pytest.approx(2.0)


class TestOneFormula:
    """The interfered and min-form marginals are the canonical user 2's
    partial of the sum rate, read from the rate model's jet."""

    @pytest.mark.parametrize("a, b", [(0.7, 5.0), (0.5, 1.5), (5.0, 0.7),
                                      (1.5, 0.5)])
    def test_deriv_is_the_rate_models_partial(self, a, b):
        rm = build_rate_model(a, b, 10.0, 10.0)
        ac, bc = rm.canonical_gains
        rng = np.random.default_rng(31)
        po, p = rng.uniform(0.0, 12.0, (2, 400))
        if rm.p_c is None:
            util = InterferedUtilities(ac, po)
        else:
            util = PiecewiseMinUtilities(ac, bc, rm.p_c, po)
            p[:100] = rm.p_c      # on the kink: the decode-limited branch
        # the canonical user 2's partial, in the callers' order
        want = rm.grad(p, po)[0] if rm.mirrored else rm.grad(po, p)[1]
        assert util.deriv(p).tobytes() == want.tobytes()

    def test_deriv_range_at_the_kink_is_the_one_sided_jets(self):
        po = np.array([0.0, 1.0, 4.0, 11.0])
        util = PiecewiseMinUtilities(0.5, 1.5, 2.0, po)
        right, left = util.deriv_range(np.full(4, 2.0))
        assert right.tobytes() == decode_jet(1.5, po, 2.0, 1).g2.tobytes()
        assert right.tobytes() == util.deriv(np.full(4, 2.0)).tobytes()
        assert left.tobytes() == noise_treated_jet(0.5, po, 2.0, 1).g2.tobytes()
        # the marginal drops across the kink unless the other user is idle
        assert right[0] == left[0] and np.all(right[1:] < left[1:])


class TestSingleGate:
    def test_wrong_inverse_raises_with_best_policy(self):
        # an inverse that sends twice the power to the second slot at every
        # level: the window equalizes to unequal marginals with no constraint
        # binding between them, so the certificate fails and the solve raises
        # (an optimizer that ignores inv_deriv would find [2/3, 2/3, 2/3])
        harvest = HarvestProfile(np.array([2.0, 0.0, 0.0]), 2.0)
        grid = TimeGrid(3, 1.0)
        util = skewed_inverse(log_utils(3))
        with pytest.raises(ConvergenceError) as info:
            solve_single_user(util, harvest, grid)
        best = info.value.best_policy
        assert np.allclose(best, [0.5, 1.0, 0.5])
        assert info.value.residual > 1e-7
        cert = verify_kkt(best, util, harvest, grid)
        assert info.value.residual == cert.stationarity_residual


class TestStart:
    """A start whose certificate meets the tolerance is returned unsolved;
    any other start leaves the solve exactly as it is without one."""

    @staticmethod
    def case():
        rng = np.random.default_rng(21)
        e = np.minimum(rng.uniform(0.0, 3.0, 12), 2.0)
        e[rng.uniform(size=12) < 0.4] = 0.0
        return (InterferedUtilities(0.7, rng.uniform(0.0, 3.0, 12)),
                HarvestProfile(e, 2.0), TimeGrid(12, 1.0))

    def test_certified_start_comes_back_unchanged(self):
        util, harvest, grid = self.case()
        cold, cold_cert = solve_single_user(util, harvest, grid)
        got, cert = solve_single_user(util, harvest, grid, start=cold)
        assert np.array_equal(got, cold)
        assert got is not cold
        for name in ("lam", "mu", "eta", "water_levels"):
            assert np.array_equal(getattr(cert, name), getattr(cold_cert, name))
        assert cert.stationarity_residual == cold_cert.stationarity_residual
        assert (cert.complementarity_residual
                == cold_cert.complementarity_residual)

    @pytest.mark.parametrize("start", ["zeros", "outside", "nan", "short"])
    def test_other_starts_give_the_cold_solve(self, start):
        util, harvest, grid = self.case()
        cold, cold_cert = solve_single_user(util, harvest, grid)
        row = {"zeros": np.zeros(12),
               # twice the optimum overspends the harvest
               "outside": 2.0 * cold,
               "nan": np.full(12, np.nan),
               "short": cold[:-1]}[start]
        got, cert = solve_single_user(util, harvest, grid, start=row)
        assert np.array_equal(got, cold)
        assert np.array_equal(cert.water_levels, cold_cert.water_levels)

    def test_uncertifiable_start_keeps_the_gate(self):
        # the wrong inverse of TestSingleGate: a start that does not certify
        # sends the solve down the same path, which still raises
        harvest = HarvestProfile(np.array([2.0, 0.0, 0.0]), 2.0)
        util = skewed_inverse(log_utils(3))
        with pytest.raises(ConvergenceError) as info:
            solve_single_user(util, harvest, TimeGrid(3, 1.0),
                              start=np.array([2.0, 0.0, 0.0]))
        assert np.allclose(info.value.best_policy, [0.5, 1.0, 0.5])

    def test_start_leaving_energy_unspent_is_solved(self):
        # 1e-8 of the harvest left in the battery is within verify_kkt's
        # binding tolerance, so the start certifies, but a solved row spends
        # everything to 1e-10
        util, harvest, grid = self.case()
        cold, _ = solve_single_user(util, harvest, grid)
        last = int(np.flatnonzero(cold > 1e-3)[-1])
        row = cold.copy()
        row[last] -= 1e-8
        cert = verify_kkt(row, util, harvest, grid)
        assert max(cert.stationarity_residual,
                   cert.complementarity_residual) <= 1e-7
        got, _ = solve_single_user(util, harvest, grid, start=row)
        assert np.array_equal(got, cold)


class TestExactChecks:
    """The closed-form families check their parameters when built; the
    solver accepts exactly those types, so no other utility, subclasses
    included, reaches it."""

    @pytest.mark.parametrize("build", [
        lambda: ScaledLogUtilities(np.array([1.0, np.nan])),
        lambda: ScaledLogUtilities(np.array([1.0, 0.0])),
        lambda: InterferedUtilities(1.5, np.ones(2)),
        lambda: InterferedUtilities(-0.1, np.ones(2)),
        lambda: InterferedUtilities(np.nan, np.ones(2)),
        lambda: InterferedUtilities(0.5, np.array([1.0, np.nan])),
        lambda: InterferedUtilities(0.5, np.array([1.0, -1.0])),
        lambda: PiecewiseMinUtilities(1.5, 1.5, 2.0, np.ones(2)),
        lambda: PiecewiseMinUtilities(0.5, -1.0, 2.0, np.ones(2)),
        lambda: PiecewiseMinUtilities(0.5, np.nan, 2.0, np.ones(2)),
        lambda: PiecewiseMinUtilities(0.5, 1.5, np.nan, np.ones(2)),
        lambda: PiecewiseMinUtilities(0.5, 1.5, -1.0, np.ones(2)),
        # with b < 1 the decode branch's marginal at p_c = 1 is the larger
        # one where P_i > 0, so f' jumps up there
        lambda: PiecewiseMinUtilities(0.5, 0.5, 1.0, np.array([0.0, 2.0])),
    ], ids=["log-nan-h", "log-zero-h", "interfered-a-1.5",
            "interfered-a-negative",
            "interfered-a-nan", "interfered-p-nan", "interfered-p-negative",
            "piecewise-a-1.5", "piecewise-b-negative", "piecewise-b-nan",
            "piecewise-pc-nan", "piecewise-pc-negative",
            "piecewise-derivative-rises"])
    def test_constructor_rejects(self, build):
        with pytest.raises(InvalidUtilityError):
            build()

    def test_crossing_threshold_and_no_threshold_accepted(self):
        # p_c = (b - 1) / (1 - a b) = 2 is where the branches cross
        PiecewiseMinUtilities(0.5, 1.5, 2.0, np.array([0.0, 2.0, 50.0]))
        PiecewiseMinUtilities(0.5, 2.0, math.inf, np.array([0.0, 2.0]))
        InterferedUtilities(1.0, np.zeros(2))

    def test_subclass_with_convex_derivative_is_sampled(self):
        class ConvexLog(ScaledLogUtilities):
            def deriv(self, p):
                return self.h * (1.0 + p)

        with pytest.raises(InvalidUtilityError):
            solve_single_user(ConvexLog(np.ones(3)),
                              HarvestProfile(np.ones(3), 2.0),
                              TimeGrid(3, 1.0))

    def test_subclass_overriding_deriv_is_refused(self):
        # a concave override that a sampled check would pass: the solver
        # refuses it by type, since it cannot check an overridden marginal
        class HalvedLog(ScaledLogUtilities):
            def deriv(self, p):
                return 0.5 * super().deriv(p)

        with pytest.raises(InvalidUtilityError,
                           match="not one of the closed-form"):
            solve_single_user(HalvedLog(np.ones(3)),
                              HarvestProfile(np.ones(3), 2.0),
                              TimeGrid(3, 1.0))



class TestRandomStress:
    @pytest.mark.parametrize("seed, trials, n_max, sparse, taus", [
        pytest.param(9, 120, 7, False, (1.0,), id="dense"),
        # mostly idle harvests bind the corridor often; tau != 1 checks the
        # energy/power scaling
        pytest.param(10, 100, 40, True, (0.5, 2.0), id="sparse"),
    ])
    def test_certificates_across_families(self, seed, trials, n_max, sparse,
                                          taus):
        rng = np.random.default_rng(seed)
        for trial in range(trials):
            n = int(rng.integers(2, n_max + 1))
            emax = float(rng.choice([1.0, 2.0, 5.0]))
            e = np.minimum(rng.uniform(0, emax, n), emax)
            if sparse:
                e[rng.uniform(size=n) < 0.7] = 0.0
            tau = taus[(trial // 4) % len(taus)]
            harvest = HarvestProfile(e, emax)
            grid = TimeGrid(n, tau)
            fam = trial % 3
            if fam == 0:
                util = ScaledLogUtilities(rng.uniform(0.3, 2.0, n))
            elif fam == 1:
                util = InterferedUtilities(rng.uniform(0.1, 1.0),
                                           rng.uniform(0, 3, n))
            else:
                a = rng.uniform(0.1, 0.9)
                b = rng.uniform(1.0, 0.99 / a)
                util = PiecewiseMinUtilities(a, b, (b - 1) / (1 - a * b),
                                             rng.uniform(0, 3, n))
            p, cert = solve_single_user(util, harvest, grid)
            assert cert.stationarity_residual <= 1e-7
            assert cert.complementarity_residual <= 1e-7
            s = tau * np.cumsum(p)
            cum_e = np.cumsum(e)
            assert np.all(s <= cum_e + 1e-9 * emax)
            if n > 1:
                assert np.all(s[:-1] >= cum_e[1:] - emax - 1e-9 * emax)


def _family(name, rng, n):
    if name == "scaled_log":
        return ScaledLogUtilities(rng.uniform(0.3, 2.0, n))
    if name == "interfered":
        return InterferedUtilities(rng.uniform(0.1, 1.0), rng.uniform(0, 3, n))
    a = rng.uniform(0.1, 0.9)
    b = rng.uniform(1.0, 0.99 / a)
    return PiecewiseMinUtilities(a, b, (b - 1) / (1 - a * b),
                                 rng.uniform(0, 3, n))


def _families(rng):
    """Instances of every closed-form family on 12 slots, with the edge
    parameters: a = 0 and a = 1, p_c = 0 and p_c = inf."""
    po = rng.uniform(0.0, 3.0, 12)
    po[0] = 0.0
    utils = [_family(name, rng, 12) for name in ("scaled_log", "interfered",
                                                 "piecewise_min")]
    return utils + [InterferedUtilities(0.0, po), InterferedUtilities(1.0, po),
                    PiecewiseMinUtilities(0.5, 1.0, 0.0, po),
                    PiecewiseMinUtilities(0.5, 2.0, math.inf, po)]


class TestClosedFormGuarantees:
    """What the level search and the interfered inverse rely on, per
    family: demand infinite at level 0 and exactly zero at the largest
    f'(0), and the interfered root inside [0, max(1, 1/(2 level) - 1)]."""

    def test_demand_at_the_bracket_ends(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            for util in _families(rng):
                assert np.all(util.inv_deriv(0.0) == np.inf)
                top = float(np.max(util.deriv_at_zero))
                assert util.inv_deriv(top).tobytes() == bytes(8 * util.n)

    def test_interfered_root_inside_the_bisection_bracket(self):
        rng = np.random.default_rng(19)
        for a in (0.0, 1e-6, 0.3, 0.9, 1.0):
            util = InterferedUtilities(a, rng.uniform(0.0, 1e3, 200))
            for level in (0.6, 0.49, 0.2, 0.05, 1e-3, 1e-5):
                hi = max(1.0, 1.0 / (2.0 * level) - 1.0)
                q = util.inv_deriv(level)
                assert np.all((q >= 0.0) & (q <= hi))
                # the bracket of ``_bisect_inv``: f'(hi) <= level
                assert np.all(util.deriv(np.full(200, hi)) <= level)


class TestLevelSearch:
    """``_equalize`` against the bisection-first search it replaced.

    Both stop once the total is within 1e-12*(1 + target) of the target and
    trim the rest, so they agree to that absolute tolerance per slot.
    """

    @staticmethod
    def assert_matches_reference(util, target):
        idx = np.arange(util.n)
        got = _equalize(util, idx, target)
        ref = bisect_equalize(util, idx, target)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * (1.0 + target))
        assert np.sum(got) == pytest.approx(target, rel=1e-12, abs=1e-12)
        return got

    @pytest.mark.parametrize("family", ["scaled_log", "interfered",
                                        "piecewise_min"])
    def test_matches_bisection_search(self, family):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 21))
            util = _family(family, rng, n)
            target = float(rng.choice([rng.uniform(0, 1), rng.uniform(0, 10),
                                       rng.uniform(0, 40)]))
            self.assert_matches_reference(util, target)

    def test_piecewise_min_across_the_kink(self):
        util = PiecewiseMinUtilities(0.5, 1.5, 2.0, np.array([0.2, 1.0, 4.0]))
        # p_c = 2: at total 1.5 every slot is below it, at 20 every slot
        # above; in between the level crosses the slots' kink intervals,
        # and for totals near 6 the middle slot sits on its kink
        for target in (4.0, 5.0, 7.0, 9.0):
            self.assert_matches_reference(util, target)
        for target in (5.9, 6.0, 6.1):
            got = self.assert_matches_reference(util, target)
            assert got[0] > 2.0 and got[1] == 2.0 and got[2] < 2.0
        assert np.all(self.assert_matches_reference(util, 1.5) < 2.0)
        assert np.all(self.assert_matches_reference(util, 20.0) > 2.0)

    @pytest.mark.parametrize("family", ["scaled_log", "interfered",
                                        "piecewise_min"])
    def test_zero_target(self, family):
        util = _family(family, np.random.default_rng(3), 5)
        assert np.array_equal(_equalize(util, np.arange(5), 0.0), np.zeros(5))

    def test_target_met_at_first_probe(self):
        # the first probe, the mean marginal at the even split, is level
        # f'(1) = 1/4, where each unit-gain slot demands exactly
        # 1/(2 * 1/4) - 1 = 1
        util = log_utils(4)
        got = self.assert_matches_reference(util, 4.0)
        assert np.array_equal(got, np.ones(4))
        # a target within the stopping tolerance below that total
        self.assert_matches_reference(util, 4.0 - 1e-13)

    def test_unprobed_high_end_has_no_demand(self):
        # gains near 1e-12: every probe's demand exceeds the target until
        # the bracket is too narrow to split, so the high end, the largest
        # f'(0), is never probed and its demand is taken as zero
        util = log_utils(2, [1e-12, 10.0 ** -11.5])
        inverse, totals = util.inv_deriv, []

        def recording(level, idx=None):
            q = inverse(level, idx)
            totals.append(float(np.sum(q)))
            return q

        util.inv_deriv = recording
        got = _equalize(util, np.arange(2), 1e-13)
        # every probe overshoots the target by more than the exit tolerance
        assert totals and min(totals) - 1e-13 > 1e-12 * (1.0 + 1e-13)
        assert got.tolist() == [0.0, 1e-13]
        util.inv_deriv = inverse
        self.assert_matches_reference(util, 1e-13)

    def test_probe_budget_on_fig8(self, monkeypatch):
        # inv_deriv calls made by _equalize itself, per utility family, on
        # single-user solves of fig8's scenarios, seeds 0-9, against a
        # constant interference, the other user's mean harvest rate.  fig8
        # itself no longer runs these solves: its distributed baseline is
        # the taut string, and its joint starts certify.  The
        # bisection-first search made 14.8 (ScaledLog) and 16.4
        # (Interfered) per call
        from ehic.iterative import build_subproblem

        calls = {}
        probes = {}
        inside = []
        search = single_user._equalize

        def counting_equalize(utilities, idx, target):
            name = type(utilities).__name__
            calls[name] = calls.get(name, 0) + 1
            inside.append(name)
            try:
                return search(utilities, idx, target)
            finally:
                inside.pop()

        monkeypatch.setattr(single_user, "_equalize", counting_equalize)
        for cls in (ScaledLogUtilities, InterferedUtilities):
            def counting_inv(self, level, idx=None, _inv=cls.inv_deriv):
                name = type(self).__name__
                if inside and inside[-1] == name:
                    probes[name] = probes.get(name, 0) + 1
                return _inv(self, level, idx)
            monkeypatch.setattr(cls, "inv_deriv", counting_inv)
        for seed in range(10):
            scen = cli.gen_scenario(20, 1.0, 10.0, 5.0, seed, 0.7, 5.0)
            rm = cli._rate_model_for(scen)
            for user in range(2):
                other = scen.users[1 - user].harvest.arrivals
                utils = build_subproblem(scen, rm, user,
                                         np.full(20, np.sum(other) / 20.0))
                solve_single_user(utils, scen.users[user].harvest, scen.grid)
        mean = {name: probes.get(name, 0) / calls[name] for name in calls}
        assert set(mean) == {"ScaledLogUtilities", "InterferedUtilities"}
        assert mean["ScaledLogUtilities"] <= 3.5
        assert mean["InterferedUtilities"] <= 6.0


class TestEvenSplitProbe:
    """The level search starts from the even split.  Where every slot's
    marginal is the same there, the split is the window's allocation: the
    families with a root-solved inverse return it without a probe, and the
    others probe once, at the mean marginal."""

    @staticmethod
    def _count_probes(util, monkeypatch):
        probes = []
        inverse = util.inv_deriv

        def counting(level, idx=None):
            probes.append(level)
            return inverse(level, idx)

        monkeypatch.setattr(util, "inv_deriv", counting)
        return probes

    @pytest.mark.parametrize("util, n_probes", [
        (ScaledLogUtilities(np.full(7, 0.6)), 1),
        (InterferedUtilities(0.7, np.full(7, 1.9)), 0),
    ], ids=["scaled_log", "interfered"])
    @pytest.mark.parametrize("target", [0.01, 3.0, 250.0])
    def test_identical_marginals_take_one_probe(self, util, n_probes, target,
                                                monkeypatch):
        probes = self._count_probes(util, monkeypatch)
        got = _equalize(util, np.arange(7), target)
        assert len(probes) == n_probes
        assert np.allclose(got, target / 7, rtol=1e-12)
        assert np.sum(got) == pytest.approx(target, rel=1e-15)

    # p_c = 2: per-slot powers 0.5 on the noise-treated branch, 5 on the
    # decode-limited one, and exactly the threshold power
    @pytest.mark.parametrize("target", [3.5, 35.0, 14.0],
                             ids=["branch1", "branch2", "kink"])
    def test_identical_min_form_marginals_take_no_probe(self, target,
                                                        monkeypatch):
        util = PiecewiseMinUtilities(0.5, 1.5, 2.0, np.full(7, 1.9))
        probes = self._count_probes(util, monkeypatch)
        got = _equalize(util, np.arange(7), target)
        assert probes == []
        assert np.allclose(got, target / 7, rtol=1e-12)
        assert np.sum(got) == pytest.approx(target, rel=1e-15)

    @pytest.mark.parametrize("util", [
        InterferedUtilities(0.7, np.linspace(0.5, 3.0, 7)),
        PiecewiseMinUtilities(0.5, 1.5, 2.0, np.linspace(0.5, 3.0, 7)),
    ], ids=["interfered", "min_form"])
    def test_unequal_marginals_still_probe(self, util, monkeypatch):
        ref = bisect_equalize(util, np.arange(7), 10.0)
        probes = self._count_probes(util, monkeypatch)
        got = _equalize(util, np.arange(7), 10.0)
        assert len(probes) >= 1
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)
        assert np.sum(got) == pytest.approx(10.0, rel=1e-15)
