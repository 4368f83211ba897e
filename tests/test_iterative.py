"""Two-user alternation: subproblem construction, monotone ascent,
decoupled-region behavior, initialization independence, and the batched
joint interior-point start with its banded solve.

``iterative.joint_start`` is the one place a start enters the alternation;
tests of other starts patch it with a stand-in of the same batch
signature."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehic import iterative
from ehic.cli import _rate_model_for, fig7_scenario, gen_scenario
from ehic.errors import InvalidInputError
from ehic.iterative import (band_solve, build_subproblem, feasible_floor,
                            iterate_offline, iterate_offline_many,
                            joint_objective, joint_start)
from ehic.model import HarvestProfile, TimeGrid
from ehic.online import naive_policy
from ehic.rates import Region, build_rate_model
from ehic.single_user import ScaledLogUtilities, solve_single_user, verify_kkt

from helpers import lattice_arrivals, two_user_scenario


def _zero_start(scens, rate_model):
    zeros = np.zeros(len(scens))
    return np.zeros((len(scens), 2, scens[0].grid.N)), zeros, zeros


def _naive_start(scens, rate_model):
    zeros = np.zeros(len(scens))
    return np.array([naive_policy(s) for s in scens]), zeros, zeros


def _start_of(scen, rm):
    """``joint_start`` on a batch of one: (start, steps, polish_steps)."""
    starts, steps, polish = joint_start([scen], rm)
    return starts[0], int(steps[0]), int(polish[0])


def _iterate_from(start, scen, rm):
    """``iterate_offline`` with ``start`` in place of the joint start."""
    with mock.patch.object(iterative, "joint_start", start):
        return iterate_offline(scen, rm)


def _assert_marginals_are_partials(a, b, p_max):
    """Each user's subproblem marginal equals the joint rate's partial in that
    user's power at 200 random power pairs: the one property of the slot
    utilities that the single-user solver and its certificate read."""
    rm = build_rate_model(a, b, p_max, p_max)
    n = 200
    scen = two_user_scenario(np.ones(n), np.ones(n), p_max, a, b)
    policy = np.random.default_rng(12).uniform(0.0, p_max, (2, n))
    partials = rm.grad(policy[0], policy[1])
    for user in range(2):
        utils = build_subproblem(scen, rm, user, policy[1 - user])
        np.testing.assert_allclose(utils.deriv(policy[user]), partials[user],
                                   rtol=1e-13, atol=0.0)
    return rm


class TestBuildSubproblem:
    def test_zero_interference_gives_unit_gain(self):
        scen = two_user_scenario(np.ones(3), np.zeros(3), 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        utils = build_subproblem(scen, rm, 0, np.zeros(3))
        assert np.allclose(utils.deriv(np.zeros(3)), 0.5)

    def test_interference_raises_base_level(self):
        scen = two_user_scenario(np.ones(2), np.ones(2), 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        utils = build_subproblem(scen, rm, 0, np.array([2.0, 0.0]))
        # base 1/h = 1 + 0.9*2 = 2.8, so the zero-power marginal is h/2
        assert utils.deriv(np.zeros(2))[0] == pytest.approx(0.5 / 2.8)

    def test_min_form_decode_branch_base_level(self):
        scen = two_user_scenario(np.ones(1), np.ones(1), 10.0, 0.5, 1.5)
        rm = build_rate_model(0.5, 1.5, 10.0, 10.0)
        utils = build_subproblem(scen, rm, 0, np.array([4.0]))
        assert utils.deriv(np.zeros(1))[0] == pytest.approx(0.5 / (10.0 / 3.0))

    def test_objectives_comparable_across_users(self):
        # a*b > 1, min-form (p_c = 2, so both branches), very strong
        for a, b, p_max, region in [
                (0.9, 2.0, 10.0, Region.ASYMMETRIC_AB_ABOVE_ONE),
                (0.5, 1.5, 10.0, Region.ASYMMETRIC_AB_AT_MOST_ONE),
                (50.0, 50.0, 2.0, Region.VERY_STRONG)]:
            rm = _assert_marginals_are_partials(a, b, p_max)
            assert rm.region is region and not rm.mirrored

    def test_mirrored_dispatch(self):
        for a, b, region in [(2.0, 0.9, Region.ASYMMETRIC_AB_ABOVE_ONE),
                             (1.5, 0.5, Region.ASYMMETRIC_AB_AT_MOST_ONE)]:
            rm = _assert_marginals_are_partials(a, b, 10.0)
            assert rm.region is region and rm.mirrored


class TestIterateOffline:
    def test_decoupled_kernel_converges_in_one_sweep(self):
        # the very strong region: each receiver removes the interference
        rm = build_rate_model(50.0, 50.0, 2.0, 2.0)
        scen = two_user_scenario([2.0, 0.0], [0.0, 2.0], 2.0, 50.0, 50.0)
        policy, report = iterate_offline(scen, rm)
        # each user's block equals the independent single-user solution
        for j in range(2):
            row, _ = solve_single_user(ScaledLogUtilities(np.ones(2)),
                                       scen.users[j].harvest, scen.grid)
            assert np.allclose(policy[j], row, atol=1e-7)
        # nothing moves after the first sweep
        assert report.displacement_trace[1] <= 1e-9
        assert report.converged

    def test_very_strong_second_sweep_is_inert(self):
        rm = build_rate_model(50.0, 50.0, 2.0, 2.0)
        rng = np.random.default_rng(10)
        scen = two_user_scenario(lattice_arrivals(rng, 4, 2.0),
                                 lattice_arrivals(rng, 4, 2.0), 2.0,
                                 50.0, 50.0)
        _, report = iterate_offline(scen, rm)
        assert report.displacement_trace[1] <= 1e-9

    def test_monotone_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            scen = two_user_scenario(rng.uniform(0, 2, n),
                                     rng.uniform(0, 2, n), 2.0, 0.9, 2.0)
            rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
            _, report = iterate_offline(scen, rm)
            trace = np.asarray(report.objective_trace)
            assert np.all(np.diff(trace) >= -1e-12)
            assert report.converged

    def test_initialization_independence(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            scen = two_user_scenario(rng.uniform(0, 2, n),
                                     rng.uniform(0, 2, n), 2.0, 0.9, 2.0)
            rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
            p0, _ = _iterate_from(_zero_start, scen, rm)
            p1, _ = _iterate_from(_naive_start, scen, rm)
            o0 = joint_objective(p0, scen, rm)
            o1 = joint_objective(p1, scen, rm)
            assert abs(o0 - o1) <= 1e-6 * max(1.0, abs(o0))

    def test_supplied_initial_policy_is_floored(self):
        scen = two_user_scenario([2.0, 2.0], [0.0, 0.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        floored = np.vstack([feasible_floor(np.zeros(2), u.harvest, 1.0)
                             for u in scen.users])
        # capacity requires consuming 2 by the end of slot 1
        assert floored[0, 0] == pytest.approx(2.0)
        _, report = _iterate_from(_zero_start, scen, rm)
        assert report.objective_trace[0] == joint_objective(floored, scen, rm)

    def test_converges_at_powers_in_the_thousands(self):
        # powers of 2e3: the block solves jitter by 5e-7 from sweep to sweep,
        # so an absolute 1e-7 bound on the displacement was never met
        scen = gen_scenario(5, 0.5, 1000.0, 0.25, 495, 0.99,
                            6.0606060606060606)
        rm = _rate_model_for(scen)
        policy, report = iterate_offline(scen, rm)
        assert report.converged
        assert np.max(policy) >= 1000.0
        _assert_certified(policy, scen, rm)

    def test_bad_settings_rejected(self):
        scen = two_user_scenario([1.0, 0.0], [0.0, 1.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        for kwargs in ({"max_sweeps": 0}, {"tol": 0.0},
                       {"tol": float("nan")}, {"tol": float("inf")}):
            with pytest.raises(InvalidInputError):
                iterate_offline(scen, rm, **kwargs)

    def test_fixed_point_feasibility(self):
        rng = np.random.default_rng(13)
        from ehic.model import feasibility_report
        for _ in range(6):
            n = int(rng.integers(2, 8))
            scen = two_user_scenario(rng.uniform(0, 5, n),
                                     rng.uniform(0, 5, n), 5.0, 0.9, 2.0)
            rm = build_rate_model(0.9, 2.0, 5.0, 5.0)
            policy, _ = iterate_offline(scen, rm)
            rep = feasibility_report(policy, scen, rm, tol=1e-9 * 5.0)
            assert rep.energy_causality.magnitude <= 1e-9 * 5.0
            assert rep.battery_capacity.magnitude <= 1e-9 * 5.0


def _lower_band(dense, kd=3):
    """LAPACK lower band storage of a symmetric matrix of half-width kd."""
    m = dense.shape[0]
    band = np.zeros((kd + 1, m))
    for k in range(kd + 1):
        band[k, :max(m - k, 0)] = np.diag(dense, -k)
    return band


def _block_tridiag_spd(n, rng):
    # M M^T with M lower block-bidiagonal (2x2 blocks) is SPD and
    # block-tridiagonal: a band of half-width 3 in (p1, p2) slot order
    m = np.zeros((2 * n, 2 * n))
    for i in range(n):
        m[2 * i:2 * i + 2, 2 * i:2 * i + 2] = (
            3.0 * np.eye(2) + 0.5 * rng.normal(size=(2, 2)))
        if i:
            m[2 * i:2 * i + 2, 2 * i - 2:2 * i] = rng.normal(size=(2, 2))
    return m @ m.T


class TestBlockTridiagSolve:
    """``band_solve``: LAPACK's banded Cholesky on stacked systems."""

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            dense = _block_tridiag_spd(n, rng)
            rhs = rng.normal(size=2 * n)
            want = np.linalg.solve(dense, rhs)
            got, ok = band_solve(_lower_band(dense)[:, None],
                                 rhs[None, :, None])
            assert ok.tolist() == [True]
            assert np.max(np.abs(got[0, :, 0] - want)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(want))))

    def test_stacked_systems_solve_as_alone(self):
        rng = np.random.default_rng(7)
        dense = [_block_tridiag_spd(20, rng) for _ in range(4)]
        bands = np.stack([_lower_band(d) for d in dense], axis=1)
        rhs = rng.normal(size=(4, 40, 2))
        stacked, ok = band_solve(bands, rhs)
        assert ok.all()
        for b in range(4):
            alone, _ = band_solve(bands[:, b:b + 1], rhs[b:b + 1])
            assert np.array_equal(stacked[b], alone[0])

    def test_breakdown_is_reported_per_system(self):
        rng = np.random.default_rng(3)
        dense = [_block_tridiag_spd(10, rng) for _ in range(4)]
        dense[1][5, 5] = -1.0          # no longer positive definite
        bands = np.stack([_lower_band(d) for d in dense], axis=1)
        bands[2, 2, 4] = np.nan        # a non-finite entry
        rhs = rng.normal(size=(4, 20, 1))
        x, ok = band_solve(bands, rhs)
        assert ok.tolist() == [True, False, False, True]
        assert np.isnan(x[1]).all() and np.isnan(x[2]).all()
        for b in (0, 3):
            alone, _ = band_solve(bands[:, b:b + 1], rhs[b:b + 1])
            assert np.array_equal(x[b], alone[0])


def _joint_cases():
    """(name, scenario, sweep bound or None), all in the a*b > 1 region."""
    cases = [("fig7", fig7_scenario(), 2)]
    cases += [(f"fig8-{s}", gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0), 2)
              for s in range(80)]
    cases.append(("n400", gen_scenario(400, 1.0, 10, 5, seed=11, a=0.7, b=5),
                  3))
    cases += [(f"mirrored-{s}", gen_scenario(50, 1.0, 10.0, 5.0, s, 5.0, 0.7),
               None) for s in range(2)]
    cases.append(("tau-0.5", gen_scenario(30, 0.5, 10.0, 5.0, 3, 0.7, 5.0),
                  None))
    cases.append(("n1", two_user_scenario([3.0], [2.0], 5.0, 0.7, 5.0), None))
    cases.append(("zero-harvest",
                  two_user_scenario(np.zeros(4), np.zeros(4), 5.0, 0.7, 5.0),
                  None))
    # arrivals of a full battery: zero-width corridors before them
    cases.append(("e-is-emax",
                  two_user_scenario([0.0, 0.0, 5.0, 5.0, 0.0, 2.0],
                                    [5.0, 5.0, 1.0, 0.0, 5.0, 0.0],
                                    5.0, 0.7, 5.0), None))
    return cases


_JOINT_CASES = _joint_cases()


def _assert_strictly_feasible(policy, scen):
    tau = scen.grid.tau
    scale = max([1.0] + [float(np.sum(u.harvest.arrivals))
                         for u in scen.users])
    for j, user in enumerate(scen.users):
        lower, upper = user.harvest.corridor.lower, user.harvest.corridor.upper
        floor = np.maximum.accumulate(lower)
        s = tau * np.cumsum(policy[j])
        assert s[-1] == pytest.approx(upper[-1], rel=1e-12, abs=1e-12)
        free = upper - floor > 1e-12 * scale
        free[-1] = False
        assert np.all(s[free] > floor[free]) and np.all(s[free] < upper[free])
        assert np.all(s >= floor - 1e-12 * scale)
        assert np.all(s <= upper + 1e-12 * scale)
        # an increment with a free end is strictly positive
        touches = free | np.concatenate([[False], free[:-1]])
        assert np.all(policy[j][touches] > 0.0)
        assert np.all(policy[j] >= 0.0)


def _assert_on_active_set(policy, scen):
    """A polished start: in its corridor within ``feas_eps``, p >= 0, and
    on the constraints it meets: each power is exactly 0 or above the
    certificate's positive-power threshold, and each S entry within
    ``binding_tol`` of a bound lies on it within ``feas_eps``."""
    tau = scen.grid.tau
    for j, user in enumerate(scen.users):
        c = user.harvest.corridor
        s = tau * np.cumsum(policy[j])
        assert s[-1] == pytest.approx(c.upper[-1], rel=1e-12, abs=1e-12)
        assert np.all(s >= c.floor - c.feas_eps)
        assert np.all(s <= c.upper + c.feas_eps)
        assert np.all(policy[j] >= 0.0)
        positive = 1e-11 * max(1.0, user.harvest.capacity / tau)
        assert np.all((policy[j] == 0.0) | (policy[j] > positive))
        slack = np.minimum(s - c.floor, c.upper - s)
        assert np.all((slack > c.binding_tol) | (slack <= c.feas_eps))


def _assert_start(policy, polish_steps, scen):
    """On its active set where the polish was taken, else strictly
    feasible."""
    if polish_steps:
        _assert_on_active_set(policy, scen)
    else:
        _assert_strictly_feasible(policy, scen)


def _assert_certified(policy, scen, rm, tol=1e-7):
    for user in range(2):
        utils = build_subproblem(scen, rm, user, policy[1 - user])
        cert = verify_kkt(policy[user], utils, scen.users[user].harvest,
                          scen.grid)
        assert cert.stationarity_residual <= tol
        assert cert.complementarity_residual <= tol


class TestJointStart:
    @pytest.mark.parametrize("name, scen, max_sweeps", _JOINT_CASES,
                             ids=[c[0] for c in _JOINT_CASES])
    def test_start_is_strictly_feasible_and_certifies(self, name, scen,
                                                      max_sweeps):
        rm = _rate_model_for(scen)
        assert rm.region is Region.ASYMMETRIC_AB_ABOVE_ONE
        start, steps, polish = _start_of(scen, rm)
        _assert_start(start, polish, scen)
        policy, report = iterate_offline(scen, rm)
        assert report.converged
        assert (report.start_steps, report.polish_steps) == (steps, polish)
        if max_sweeps is not None:
            assert report.sweeps_used <= max_sweeps
        _assert_certified(policy, scen, rm)

    def test_objective_matches_the_zero_start(self):
        cases = [c for c in _JOINT_CASES if c[0] != "n400"]
        cases = cases[:13] + cases[-7:]
        assert len(cases) == 20
        for _name, scen, _ in cases:
            rm = _rate_model_for(scen)
            p_joint, _ = iterate_offline(scen, rm)
            p_zero, report = _iterate_from(_zero_start, scen, rm)
            assert report.start_steps == 0
            o_joint = joint_objective(p_joint, scen, rm)
            o_zero = joint_objective(p_zero, scen, rm)
            assert abs(o_joint - o_zero) <= 1e-12 * max(1.0, abs(o_zero))

    def test_fig8_pool_sweeps(self):
        # the alternation from zeros takes 883 sweeps over these seeds
        total = 0
        for s in range(80):
            scen = gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
            _, report = iterate_offline(scen, _rate_model_for(scen))
            total += report.sweeps_used
        assert total <= 160

    def test_other_regions_start_from_zeros(self):
        # a*b <= 1: no joint start, the alternation starts from zeros
        scen = gen_scenario(20, 1.0, 10.0, 5.0, 4, 0.5, 1.5)
        rm = _rate_model_for(scen)
        assert rm.region is Region.ASYMMETRIC_AB_AT_MOST_ONE

        def refuse(scens, rate_model):
            raise AssertionError("joint start outside the a*b > 1 region")

        p_default, r_default = iterate_offline(scen, rm)
        p_zero, r_zero = _iterate_from(refuse, scen, rm)
        assert r_default.start_steps == 0
        assert np.array_equal(p_default, p_zero)
        assert r_default.objective_trace == r_zero.objective_trace
        floored = np.vstack([feasible_floor(np.zeros(20), u.harvest, 1.0)
                             for u in scen.users])
        assert r_zero.objective_trace[0] == joint_objective(floored, scen, rm)

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(1, 8), tau=st.sampled_from([0.5, 1.0, 2.0]),
           emax=st.sampled_from([1.0, 2.5, 5.0]),
           draws=st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.7, 1.0]),
                          min_size=16, max_size=16),
           a=st.floats(0.2, 0.95), excess=st.floats(0.05, 3.0),
           mirrored=st.booleans())
    def test_property_small_scenarios(self, n, tau, emax, draws, a, excess,
                                      mirrored):
        # arrivals of 0 and of a full battery pin corridor entries
        e1 = emax * np.array(draws[:n])
        e2 = emax * np.array(draws[8:8 + n])
        b = (1.0 + excess) / a
        gains = (b, a) if mirrored else (a, b)
        scen = two_user_scenario(e1, e2, emax, *gains, tau=tau)
        rm = _rate_model_for(scen)
        assert rm.region is Region.ASYMMETRIC_AB_ABOVE_ONE
        assert rm.mirrored == mirrored
        start, _, polish = _start_of(scen, rm)
        _assert_start(start, polish, scen)
        policy, report = iterate_offline(scen, rm)
        assert report.converged
        _assert_certified(policy, scen, rm)
        p_zero, _ = _iterate_from(_zero_start, scen, rm)
        o_joint = joint_objective(policy, scen, rm)
        o_zero = joint_objective(p_zero, scen, rm)
        assert abs(o_joint - o_zero) <= 1e-9 * max(1.0, abs(o_zero))

    def test_batch_gives_each_scenario_its_own_start(self):
        # bit-identical starts and step counts in any batch composition
        scens = [gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
                 for s in range(16)]
        rm = _rate_model_for(scens[0])
        starts, steps, polish = joint_start(scens, rm)
        for k in (0, 5):
            sub, sub_steps, sub_polish = joint_start(scens[k:k + 5], rm)
            assert np.array_equal(sub, starts[k:k + 5])
            assert np.array_equal(sub_steps, steps[k:k + 5])
            assert np.array_equal(sub_polish, polish[k:k + 5])
        for k, scen in enumerate(scens):
            alone, count, solves = _start_of(scen, rm)
            assert np.array_equal(alone, starts[k]) and count == steps[k]
            assert solves == polish[k]

    def test_breakdown_stops_only_its_scenario(self):
        scens = [gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
                 for s in range(3)]
        rm = _rate_model_for(scens[0])
        calls = []

        def break_second(band, rhs):
            # on the third solve, the predictor of the second iteration with
            # all three still live, the second scenario's system stops being
            # positive definite
            calls.append(band.shape[1])
            if len(calls) == 3:
                assert band.shape[1] == 3
                band = band.copy()
                band[0, 1, 0] = -1.0
            return band_solve(band, rhs)

        with mock.patch.object(iterative, "band_solve", break_second):
            starts, steps, polish = joint_start(scens, rm)
        for k in (0, 2):
            alone, count, solves = _start_of(scens[k], rm)
            assert np.array_equal(starts[k], alone) and steps[k] == count
            assert polish[k] == solves
        # the second stops at its last strictly feasible iterate, unpolished
        assert steps[1] == 1 and steps[1] < _start_of(scens[1], rm)[1]
        assert polish[1] == 0
        _assert_strictly_feasible(starts[1], scens[1])

    def test_refused_polish_runs_the_loop_to_its_tight_stop(self):
        # a polish that fails its checks hands the scenario back: the loop
        # goes on from the iterate it stopped at, to gap 1e-11
        scens = [gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
                 for s in range(3)]
        rm = _rate_model_for(scens[0])
        _, steps, polish = joint_start(scens, rm)

        def refuse(cum, *args):
            return cum, np.zeros(len(cum), dtype=int)

        with mock.patch.object(iterative, "_polish", refuse):
            starts, tight, none = joint_start(scens, rm)
            _, report = iterate_offline(scens[0], rm)
        assert np.all(polish > 0) and not none.any()
        assert np.all(tight > steps)
        for start, scen in zip(starts, scens):
            _assert_strictly_feasible(start, scen)
        assert (report.sweeps_used, report.polish_steps) == (1, 0)
        assert report.start_steps == tight[0]

    def test_fig8_batches_band_solve_budget(self):
        # two band solves per interior-point iteration, then one per polish
        # step, every seed polished: 234 solves over the 16 batches (the
        # interior-point loop run to its tight stop took 324, the
        # barrier-Newton start 524)
        scens = [gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
                 for s in range(80)]
        rm = _rate_model_for(scens[0])
        calls = []

        def counted(band, rhs):
            calls.append(band.shape[1])
            return band_solve(band, rhs)

        total = 0
        with mock.patch.object(iterative, "band_solve", counted):
            for k in range(0, 80, 5):
                calls.clear()
                _, steps, polish = joint_start(scens[k:k + 5], rm)
                assert steps.max() <= 8 and polish.min() >= 1
                assert len(calls) == 2 * steps.max() + polish.max() <= 20
                total += len(calls)
        assert total <= 240

    def test_powers_in_the_thousands(self):
        scen = gen_scenario(20, 1.0, 1000.0, 0.5, 2, 0.3, 20.0)
        rm = _rate_model_for(scen)
        assert rm.region is Region.ASYMMETRIC_AB_ABOVE_ONE
        start, steps, polish = _start_of(scen, rm)
        assert start.max() > 500.0
        assert steps < iterative._MAX_STEPS
        _assert_start(start, polish, scen)
        policy, report = iterate_offline(scen, rm)
        assert report.converged
        _assert_certified(policy, scen, rm)

    def test_random_scenarios_match_the_zero_start(self):
        # both orientations, tau 0.5 to 2, E_max 0.1 to 50 (log-uniform);
        # horizons stay short so that the cold alternations stay cheap
        rng = np.random.default_rng(2026)
        for k in range(150):
            n = int(rng.choice([5, 10, 15]))
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            emax = float(np.exp(rng.uniform(np.log(0.1), np.log(50.0))))
            a = float(rng.uniform(0.05, 0.99))
            b = (1.0 + rng.uniform(0.02, 5.0)) / a
            gains = (b, a) if k % 2 else (a, b)
            scen = gen_scenario(n, tau, emax, rng.uniform(0.5, 5.0) * tau,
                                int(rng.integers(10**6)), *gains)
            rm = _rate_model_for(scen)
            assert rm.region is Region.ASYMMETRIC_AB_ABOVE_ONE
            start, steps, polish = _start_of(scen, rm)
            assert steps < iterative._MAX_STEPS
            _assert_start(start, polish, scen)
            policy, report = iterate_offline(scen, rm)
            assert report.converged
            _assert_certified(policy, scen, rm)
            p_zero, r_zero = _iterate_from(_zero_start, scen, rm)
            assert r_zero.converged
            o_joint = joint_objective(policy, scen, rm)
            o_zero = joint_objective(p_zero, scen, rm)
            assert abs(o_joint - o_zero) <= 1e-9 * max(1.0, abs(o_zero))

    def test_many_matches_one_at_a_time(self):
        # mixed regions, horizons and orientations: one batch per group
        scens = [gen_scenario(20, 1.0, 10.0, 5.0, 0, 0.7, 5.0),
                 gen_scenario(20, 1.0, 10.0, 5.0, 4, 0.5, 1.5),
                 gen_scenario(30, 1.0, 10.0, 5.0, 1, 0.7, 5.0),
                 gen_scenario(20, 1.0, 10.0, 5.0, 1, 0.7, 5.0),
                 gen_scenario(20, 1.0, 10.0, 5.0, 2, 5.0, 0.7)]
        rms = [_rate_model_for(s) for s in scens]
        for scen, rm, (policy, report) in zip(
                scens, rms, iterate_offline_many(scens, rms)):
            p_one, r_one = iterate_offline(scen, rm)
            assert np.array_equal(policy, p_one)
            assert report.objective_trace == r_one.objective_trace
            assert report.start_steps == r_one.start_steps
            assert report.polish_steps == r_one.polish_steps


class TestCertifiedStarts:
    """Block solves that return the row they were offered, unsolved."""

    def test_fig8_seeds_certify_at_the_joint_start(self):
        # both blocks pass verify_kkt at the joint start on every seed
        both = 0
        for s in range(80):
            scen = gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
            _, report = iterate_offline(scen, _rate_model_for(scen))
            assert report.sweeps_used == 1
            assert report.certified_starts >= 1
            both += report.certified_starts == 2
        assert both == 80

    def test_fig7(self):
        # the optimum leaves user 1's slots 1, 2, 9 and 10 idle; the
        # polished joint start gives them exactly 0, so both blocks return
        # their start
        scen = fig7_scenario()
        rm = _rate_model_for(scen)
        start, _, polish = _start_of(scen, rm)
        assert polish > 0
        idle = [0, 1, 8, 9]
        assert np.all(start[0, idle] == 0.0)
        assert np.all(np.delete(start[0], idle) > 1.0)
        _, report = iterate_offline(scen, rm)
        assert (report.sweeps_used, report.certified_starts) == (1, 2)

    def test_n2000_certifies_at_the_joint_start(self):
        # the interior-point loop alone stops where its active slacks reach
        # the resolution of S, and the alternation took 3 sweeps from there
        scen = gen_scenario(2000, 1.0, 10.0, 5.0, 11, 0.7, 5.0)
        _, report = iterate_offline(scen, _rate_model_for(scen))
        assert report.polish_steps > 0
        assert (report.sweeps_used, report.certified_starts) == (1, 2)

    def test_cold_alternation(self):
        # a*b <= 1 starts from zeros: the early sweeps move both blocks
        scen = gen_scenario(20, 1.0, 10.0, 5.0, 4, 0.5, 1.5)
        _, report = iterate_offline(scen, _rate_model_for(scen))
        assert report.sweeps_used > 1
        assert 0 < report.certified_starts < 2 * report.sweeps_used
