"""Online DP, naive and distributed baselines."""

import json

import numpy as np
import pytest
import scipy.interpolate

from ehic import online
from ehic.cli import _rate_model_for, fig7_scenario, gen_scenario, main
from ehic.errors import ConvergenceError, InvalidInputError, ShapeError
from ehic.iterative import build_subproblem, iterate_offline, joint_objective
from ehic.model import HarvestProfile, TimeGrid, scenario_to_dict
from ehic.online import (ArrivalDistribution, StateGrid, distributed_policy,
                         naive_policy, rollout_table, value_iteration)
from ehic.rates import Region, build_rate_model
from ehic.single_user import ScaledLogUtilities, solve_single_user, verify_kkt

from helpers import loop_value_iteration, two_user_scenario


def _grid(emax, points=21):
    return StateGrid(np.linspace(0, emax, points), np.linspace(0, emax, points))


def _fig7_case(step):
    scen = fig7_scenario()
    rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
    points = int(round(10.0 / step)) + 1
    grid = StateGrid(np.linspace(0.0, 10.0, points),
                     np.linspace(0.0, 10.0, points))
    return ArrivalDistribution.deterministic(scen), rm, grid, 1.0


def _generated_case(a, b, tau=1.0):
    rng = np.random.default_rng(21)
    scen = two_user_scenario(rng.uniform(0, 3, 5), rng.uniform(0, 3, 5), 3.0,
                             a, b, tau=tau)
    rm = build_rate_model(a, b, 3.0 / tau, 3.0 / tau)
    grid = StateGrid(np.linspace(0, 3, 16), np.linspace(0, 3, 13))
    return ArrivalDistribution.deterministic(scen), rm, grid, tau


def _stochastic_case():
    laws = tuple(tuple((np.array([0.0, 1.3]), np.array([0.25, 0.75]))
                       for _ in range(3)) for _ in range(2))
    rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
    return ArrivalDistribution(3, laws), rm, _grid(2.0, 15), 1.0


DP_CASES = {
    "fig7-grid0.5": lambda: _fig7_case(0.5),
    "fig7-grid1.0": lambda: _fig7_case(1.0),
    "ab-at-most-one": lambda: _generated_case(0.5, 1.5),
    "mirrored": lambda: _generated_case(3.0, 0.6, tau=0.7),
    "stochastic": _stochastic_case,
}


class TestBatchedValueIteration:
    """The DP reproduces the per-action loop bit for bit."""

    @pytest.mark.parametrize("case", sorted(DP_CASES))
    def test_matches_loop_reference(self, case):
        stats, rm, grid, tau = DP_CASES[case]()
        ref = loop_value_iteration(stats, rm, grid, tau)
        res = value_iteration(stats, rm, grid, tau)
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.policies, ref.policies)

    @pytest.mark.parametrize("case", ["stochastic", "mirrored"])
    def test_interpolator_gets_the_loop_points(self, case, monkeypatch):
        """One call per (slot, feasible action, outcome), with the points the
        per-action loop passes, in the same order."""
        stats, rm, grid, tau = DP_CASES[case]()
        seen = {"loop": [], "dp": []}
        base = scipy.interpolate.RegularGridInterpolator

        def recorder(key):
            class Recording(base):
                def __call__(self, xi, *args, **kwargs):
                    seen[key].append(np.array(xi))
                    return super().__call__(xi, *args, **kwargs)
            return Recording

        monkeypatch.setattr(scipy.interpolate, "RegularGridInterpolator",
                            recorder("loop"))
        monkeypatch.setattr(online, "RegularGridInterpolator", recorder("dp"))
        loop_value_iteration(stats, rm, grid, tau)
        value_iteration(stats, rm, grid, tau)
        assert len(seen["dp"]) == len(seen["loop"]) > 0
        for got, want in zip(seen["dp"], seen["loop"]):
            assert np.array_equal(got, want)

    def test_case_regions(self):
        assert DP_CASES["mirrored"]()[1].mirrored
        assert DP_CASES["ab-at-most-one"]()[1].region \
            is Region.ASYMMETRIC_AB_AT_MOST_ONE


class TestValueIteration:
    def test_single_slot_spends_everything(self):
        scen = two_user_scenario([2.0], [2.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        res = value_iteration(ArrivalDistribution.deterministic(scen), rm,
                              _grid(2.0), tau=1.0)
        policy, _ = rollout_table(res, scen, rm)
        assert np.allclose(policy[:, 0], [2.0, 2.0])

    def test_zero_energy_zero_value(self):
        scen = two_user_scenario(np.zeros(3), np.zeros(3), 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        res = value_iteration(ArrivalDistribution.deterministic(scen), rm,
                              _grid(2.0), tau=1.0)
        _, total = rollout_table(res, scen, rm)
        assert total == pytest.approx(0.0, abs=1e-12)
        assert res.values[0][0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_matches_offline_within_grid_error(self):
        emax = 2.0
        scen = two_user_scenario([1.0, 0.0, 0.6, 0.2], [2.0, 0.0, 0.4, 0.0],
                                 emax, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, emax, emax)
        de = emax / 40
        res = value_iteration(ArrivalDistribution.deterministic(scen), rm,
                              _grid(emax, 41), tau=1.0)
        _, total = rollout_table(res, scen, rm)
        p_off, _ = iterate_offline(scen, rm)
        bound = 2 * scen.grid.N * 1.0 * 0.5 * de
        assert abs(total - joint_objective(p_off, scen, rm)) <= bound + 1e-9

    @pytest.mark.parametrize("step", [0.5, 0.25])
    def test_fig7_table_value_at_most_offline(self, step):
        # slot 1's state holds its own arrival and each move adds the next
        # slot's; fig7's arrivals lie on the lattice, so the table value at
        # the start is the throughput of a real schedule
        stats, rm, grid, tau = _fig7_case(step)
        scen = fig7_scenario()
        res = value_iteration(stats, rm, grid, tau=tau)
        start = tuple(int(np.searchsorted(ax, u.harvest.arrivals[0]))
                      for ax, u in zip((grid.e1, grid.e2), scen.users))
        assert [grid.e1[start[0]], grid.e2[start[1]]] == [5.0, 10.0]
        p_off, _ = iterate_offline(scen, rm)
        assert res.values[0][start] <= joint_objective(p_off, scen, rm) + 1e-9

    def test_value_monotone_in_slot_and_energy(self):
        rng = np.random.default_rng(16)
        scen = two_user_scenario(rng.uniform(0, 2, 3), rng.uniform(0, 2, 3),
                                 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        res = value_iteration(ArrivalDistribution.deterministic(scen), rm,
                              _grid(2.0), tau=1.0)
        J = res.values
        for i in range(scen.grid.N):
            assert np.all(J[i] >= J[i + 1] - 1e-12)
            assert np.all(np.diff(J[i], axis=0) >= -1e-12)
            assert np.all(np.diff(J[i], axis=1) >= -1e-12)

    def test_policy_actions_feasible(self):
        scen = two_user_scenario([1.0, 1.0], [2.0, 0.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        grid = _grid(2.0, 11)
        res = value_iteration(ArrivalDistribution.deterministic(scen), rm,
                              grid, tau=1.0)
        e1, e2 = np.meshgrid(grid.e1, grid.e2, indexing="ij")
        for i in range(scen.grid.N):
            assert np.all(res.policies[i][..., 0] <= e1 + 1e-9)
            assert np.all(res.policies[i][..., 1] <= e2 + 1e-9)

    def test_stochastic_arrivals(self):
        # two-point energy distribution; value should lie between the two
        # deterministic envelopes
        n = 2
        dists = tuple(
            tuple((np.array([0.0, 2.0]), np.array([0.5, 0.5]))
                  for _ in range(n)) for _ in range(2))
        stats = ArrivalDistribution(n, dists)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        res = value_iteration(stats, rm, _grid(2.0), tau=1.0)
        lo = two_user_scenario(np.zeros(n), np.zeros(n), 2.0, 0.9, 2.0)
        hi = two_user_scenario(np.full(n, 2.0), np.full(n, 2.0), 2.0, 0.9, 2.0)
        v = res.values[0][-1, -1]   # both batteries full at the start
        lo_obj = 0.0
        p_hi, _ = iterate_offline(hi, rm)
        hi_obj = joint_objective(p_hi, hi, rm)
        assert lo_obj - 1e-9 <= v <= hi_obj + 1e-9

    def test_bad_distribution_rejected(self):
        with pytest.raises(InvalidInputError):
            ArrivalDistribution(1, ((( np.array([1.0]), np.array([0.5])),),
                                    ((np.array([0.0]), np.array([1.0])),)))

    @pytest.mark.parametrize("law", [
        ([np.nan, 1.0], [0.5, 0.5]),
        ([np.inf, 1.0], [0.5, 0.5]),
        ([0.0, 1.0], [np.nan, 0.5]),
        ([0.0, 1.0, 2.0], [-0.5, 0.5, 1.0]),
        ([0.0, 1.0, 2.0], [0.5, 0.5]),
        ([0.0, 1.0], [0.25, 0.25, 0.5]),
    ], ids=["nan-value", "inf-value", "nan-probability",
            "negative-probability", "more-values", "more-probabilities"])
    def test_malformed_law_rejected(self, law):
        good = (np.array([0.0]), np.array([1.0]))
        with pytest.raises(InvalidInputError):
            ArrivalDistribution(1, (((np.array(law[0]), np.array(law[1])),),
                                    (good,)))

    @pytest.mark.parametrize("users", [1, 3])
    def test_law_for_other_than_two_users_rejected(self, users):
        # like a Scenario, the laws are for exactly two users: one user's
        # laws would fail inside value_iteration, a third's would be ignored
        good = (np.array([0.0]), np.array([1.0]))
        with pytest.raises(ShapeError, match="two users"):
            ArrivalDistribution(1, ((good,),) * users)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            StateGrid(np.array([0.0, 1.0, bad]), np.linspace(0.0, 2.0, 3))


class TestNaive:
    def test_hand_simulations(self):
        scen = two_user_scenario([2.0, 0.0, 2.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                 10.0, 0.9, 2.0)
        policy = naive_policy(scen)
        assert np.allclose(policy[0], [1.0, 1.0, 1.0, 1.0])
        assert np.allclose(policy[1], [0.25, 0.25, 0.25, 0.25])

    def test_zero_harvest(self):
        scen = two_user_scenario(np.zeros(3), np.zeros(3), 10.0, 0.9, 2.0)
        assert np.array_equal(naive_policy(scen), np.zeros((2, 3)))

    def test_energy_causality_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            scen = two_user_scenario(rng.uniform(0, 3, n),
                                     rng.uniform(0, 3, n), 3.0, 0.9, 2.0)
            policy = naive_policy(scen)
            for j in range(2):
                assert np.all(np.cumsum(policy[j])
                              <= np.cumsum(scen.users[j].harvest.arrivals)
                              + 1e-12)


def _water_filling_row(scen, rm, user, level):
    """The distributed baseline as the paper defines it: the single-user
    water-filling solve against the constant interference ``level``."""
    utils = build_subproblem(scen, rm, user, np.full(scen.grid.N, level))
    row, _ = solve_single_user(utils, scen.users[user].harvest, scen.grid)
    return row, utils


def _own_objective(scen, rm, user, row, level):
    other = np.full(scen.grid.N, level)
    pair = (row, other) if user == 0 else (other, row)
    return scen.grid.tau * float(np.sum(rm.sum_rate(*pair)))


def _generated(a, b, n=20, tau=1.0, seed=3):
    scen = gen_scenario(n, tau, 10.0, 5.0, seed, a, b)
    return scen, _rate_model_for(scen)


def _fixed(e1, e2, emax, a=0.7, b=5.0, tau=1.0):
    scen = two_user_scenario(e1, e2, emax, a, b, tau=tau)
    return scen, build_rate_model(a, b, emax / tau, emax / tau)


DISTRIBUTED_CASES = {
    "ab-above-one": lambda: _generated(0.7, 5.0),
    "min-form": lambda: _generated(0.5, 1.5),
    "mirrored": lambda: _generated(3.0, 0.6, tau=0.7),
    "very-strong": lambda: _generated(20.0, 30.0),
    "tau-0.5-long": lambda: _generated(0.7, 5.0, n=60, tau=0.5, seed=8),
    "one-slot": lambda: _generated(0.7, 5.0, n=1, seed=2),
    "zero-harvest": lambda: _fixed(np.zeros(5), [1.0, 0.0, 2.0, 0.5, 1.0],
                                   2.0),
    # arrivals of 2 into a battery of 2: after slot 1 (and slot 4) the
    # battery must make room, so the floor L binds and forces spending
    "forced-spending": lambda: _fixed([2.0, 2.0, 0.0, 2.0, 2.0, 0.0],
                                      [2.0, 2.0, 2.0, 2.0, 2.0, 2.0], 2.0,
                                      tau=0.8),
}


class TestDistributed:
    """The taut string against the water-filling definition it replaces."""

    def test_zero_interference_equals_single_link(self):
        scen = two_user_scenario([1.0, 0.0, 0.6, 0.2], [2.0, 0.0, 0.4, 0.0],
                                 2.0, 0.9, 2.0)
        row = distributed_policy(scen, 0)
        ref, _ = solve_single_user(ScaledLogUtilities(np.ones(4)),
                                   scen.users[0].harvest, scen.grid)
        assert np.allclose(row, ref, atol=1e-9)

    def test_constant_interference_is_static_fading(self):
        scen = two_user_scenario([1.0, 0.0, 0.6, 0.2], [2.0, 0.0, 0.4, 0.0],
                                 2.0, 0.9, 2.0)
        p_bar = 0.8
        row = distributed_policy(scen, 0)
        h = 1.0 / (1.0 + 0.9 * p_bar)
        ref, _ = solve_single_user(ScaledLogUtilities(np.full(4, h)),
                                   scen.users[0].harvest, scen.grid)
        assert np.allclose(row, ref, atol=1e-9)

    def test_reproduces_single_link_allocations_on_reference_vectors(self):
        scen = fig7_scenario()
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        for user in range(2):
            row = distributed_policy(scen, user)
            ref, _ = _water_filling_row(scen, rm, user, 0.0)
            assert np.allclose(row, ref, atol=1e-8)
            # identical support slots in particular
            assert np.array_equal(row > 1e-9, ref > 1e-9)

    def test_default_assumes_mean_harvest_rate(self):
        # the paper's assumed interference is the other user's mean harvest
        # rate; the taut string is that solve's row
        scen = two_user_scenario([1.0, 1.0], [2.0, 0.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        ref, _ = _water_filling_row(scen, rm, 0, 1.0)
        assert np.allclose(distributed_policy(scen, 0), ref, atol=1e-12)

    def test_case_regions(self):
        names = ("ab-above-one", "min-form", "mirrored", "very-strong")
        tags = [(rm.region, rm.mirrored) for rm in
                (DISTRIBUTED_CASES[name]()[1] for name in names)]
        assert tags == [(Region.ASYMMETRIC_AB_ABOVE_ONE, False),
                        (Region.ASYMMETRIC_AB_AT_MOST_ONE, False),
                        (Region.ASYMMETRIC_AB_ABOVE_ONE, True),
                        (Region.VERY_STRONG, False)]

    @pytest.mark.parametrize("case", sorted(DISTRIBUTED_CASES))
    def test_matches_the_water_filling_definition(self, case):
        scen, rm = DISTRIBUTED_CASES[case]()
        n, tau = scen.grid.N, scen.grid.tau
        for user in range(2):
            harvest = scen.users[user].harvest
            row = distributed_policy(scen, user)
            mean = float(np.sum(scen.users[1 - user].harvest.arrivals)) \
                / (n * tau)
            for level in (0.0, mean, 10.0 * mean):
                ref, utils = _water_filling_row(scen, rm, user, level)
                assert _own_objective(scen, rm, user, row, level) == \
                    pytest.approx(_own_objective(scen, rm, user, ref, level),
                                  rel=1e-12)
                cert = verify_kkt(row, utils, harvest, scen.grid)
                assert cert.stationarity_residual <= 1e-7
                assert cert.complementarity_residual <= 1e-7

    def test_forced_spending_follows_the_floor(self):
        scen, _ = DISTRIBUTED_CASES["forced-spending"]()
        tau = scen.grid.tau
        row = distributed_policy(scen, 0)
        lower, upper = (scen.users[0].harvest.corridor.lower,
                        scen.users[0].harvest.corridor.upper)
        s = tau * np.cumsum(row)
        assert s[0] == pytest.approx(lower[0], abs=1e-12) and lower[0] > 0
        assert s[-1] == pytest.approx(upper[-1], abs=1e-12)

    def test_user_index_checked(self):
        scen, _ = _generated(0.7, 5.0, n=3)
        with pytest.raises(ShapeError):
            distributed_policy(scen, 2)

    @pytest.mark.parametrize("perturb, fault", [
        ("negative", "negative power in slot 1"),
        ("overshoot", "leaves the corridor after slot 10"),
        ("rise-with-energy-left", "rises after slot 12 with energy left"),
        ("fall-with-room-left", "falls after slot 12 with room left"),
        ("underspend", "does not spend the total harvest"),
    ])
    def test_certificate_rejects_a_perturbed_row(self, perturb, fault,
                                                 monkeypatch, tmp_path):
        # fig7 user 1: 0.8 in slots 1-10, whose battery is empty after slot
        # 10; 1.375 in slots 11-18, with no bound binding after slots 11-17;
        # 3.0 in slots 19-20
        scen = fig7_scenario()
        row = list(distributed_policy(scen, 0))
        assert row == [0.8] * 10 + [1.375] * 8 + [3.0] * 2
        bad = list(row)
        if perturb == "negative":
            bad[0], bad[1] = -0.1, 0.9
        elif perturb == "overshoot":
            bad[:10] = [0.81] * 10
        elif perturb == "rise-with-energy-left":
            bad[12], bad[13] = 1.475, 1.275
        elif perturb == "fall-with-room-left":
            bad[12], bad[13] = 1.275, 1.475
        else:
            bad[18:] = [3.0 - 5e-7] * 2
        monkeypatch.setattr(online, "_taut_string", lambda *args: bad)
        with pytest.raises(ConvergenceError, match=fault):
            distributed_policy(scen, 0)
        scen_path = tmp_path / "fig7.json"
        scen_path.write_text(json.dumps(scenario_to_dict(scen)))
        assert main(["distributed", "--scenario", str(scen_path),
                     "--out", str(tmp_path / "out")]) == 3
