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
from ehic.errors import InvalidInputError, ShapeError
from ehic.iterative import (band_solve, build_subproblem, feasible_floor,
                            iterate_offline, iterate_offline_many,
                            joint_objective, joint_start)
from ehic.model import HarvestProfile, TimeGrid
from ehic.online import distributed_policy, naive_policy
from ehic.rates import Region, build_rate_model
from ehic.single_user import ScaledLogUtilities, solve_single_user, verify_kkt

from helpers import (_iterate_from, _zero_start, lattice_arrivals,
                     two_user_scenario)


def _naive_start(scens, rate_model):
    zeros = np.zeros(len(scens))
    return np.array([naive_policy(s) for s in scens]), zeros, zeros


def _start_of(scen, rm):
    """``joint_start`` on a batch of one: (start, steps, polish_steps)."""
    starts, steps, polish = joint_start([scen], rm)
    return starts[0], int(steps[0]), int(polish[0])


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

    # a*b > 1, min-form with p_c = 2, min-form at a*b = 1 (p_c = inf), each
    # in both orientations, and very strong
    @pytest.mark.parametrize("a, b", [(0.7, 5.0), (5.0, 0.7), (0.5, 1.5),
                                      (1.5, 0.5), (0.5, 2.0), (2.0, 0.5),
                                      (20.0, 30.0)])
    def test_user1_gains_are_the_closed_forms(self, a, b):
        # the canonical user 1's gains, read from the jet, are bit for bit
        # 1/(1 + a P) below p_c, b/(1 + P) at and above it, and 1 where the
        # interference is removed
        rm = build_rate_model(a, b, 10.0, 10.0)
        ac, bc = rm.canonical_gains
        n = 300
        other = np.random.default_rng(5).uniform(0.0, 12.0, n)
        other[:3] = [0.0, 2.0, 12.0]   # idle, and p_c where it is 2 (the
                                       # two branches agree there)
        if rm.region is Region.VERY_STRONG:
            want = np.ones(n)
        elif rm.region is Region.ASYMMETRIC_AB_ABOVE_ONE:
            want = 1.0 / (1.0 + ac * other)
        else:
            want = np.where(other < rm.p_c, 1.0 / (1.0 + ac * other),
                            bc / (1.0 + other))
        scen = two_user_scenario(np.ones(n), np.ones(n), 10.0, a, b)
        utils = build_subproblem(scen, rm, 1 if rm.mirrored else 0, other)
        assert type(utils) is ScaledLogUtilities
        assert utils.h.tobytes() == want.tobytes()


class TestIterateOffline:
    def test_decoupled_kernel_converges_in_one_sweep(self):
        # the very strong region: each receiver removes the interference
        rm = build_rate_model(50.0, 50.0, 2.0, 2.0)
        scen = two_user_scenario([2.0, 0.0], [0.0, 2.0], 2.0, 50.0, 50.0)
        # from zeros, nothing moves after the first sweep
        _, cold = _iterate_from(_zero_start, scen, rm)
        assert cold.displacement_trace[1] <= 1e-9
        # the joint start is each user's independent single-user solution
        policy, report = iterate_offline(scen, rm)
        for j in range(2):
            row, _ = solve_single_user(ScaledLogUtilities(np.ones(2)),
                                       scen.users[j].harvest, scen.grid)
            assert np.allclose(policy[j], row, atol=1e-7)
        assert (report.sweeps_used, report.certified_starts) == (1, 2)
        assert report.converged

    @pytest.mark.parametrize("n", [20, 200, 2000])
    def test_very_strong_optimum_is_the_taut_strings(self, n):
        # every very strong slot utility is (1/2)ln(1 + p), so each user's
        # optimum is its taut string, an exact reference at any N
        for seed in (0, 1):
            scen = gen_scenario(n, 1.0, 10.0, 5.0, seed, 20.0, 30.0)
            rm = _rate_model_for(scen)
            assert rm.region is Region.VERY_STRONG
            taut = np.vstack([distributed_policy(scen, u) for u in range(2)])
            for u in range(2):
                cert = verify_kkt(taut[u], ScaledLogUtilities(np.ones(n)),
                                  scen.users[u].harvest, scen.grid)
                assert cert.stationarity_residual <= 1e-9
                assert cert.complementarity_residual <= 1e-9
            policy, report = iterate_offline(scen, rm)
            assert report.converged
            want = joint_objective(taut, scen, rm)
            got = joint_objective(policy, scen, rm)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_very_strong_second_sweep_is_inert(self):
        rm = build_rate_model(50.0, 50.0, 2.0, 2.0)
        rng = np.random.default_rng(10)
        scen = two_user_scenario(lattice_arrivals(rng, 4, 2.0),
                                 lattice_arrivals(rng, 4, 2.0), 2.0,
                                 50.0, 50.0)
        _, report = _iterate_from(_zero_start, scen, rm)
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

    def test_mismatched_lists_rejected(self):
        # zip would silently drop the scenarios past the shorter list
        scens = [gen_scenario(20, 1.0, 10.0, 5.0, s, 0.7, 5.0)
                 for s in range(3)]
        rms = [_rate_model_for(s) for s in scens]
        for models in (rms[:2], rms + rms[:1]):
            with pytest.raises(ShapeError):
                iterate_offline_many(scens, models)

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
    """(name, scenario, sweep bound or None), all in a region whose sum rate
    is smooth: a*b > 1, and very strong last."""
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
    cases.append(("strong-n200",
                  gen_scenario(200, 1.0, 10.0, 5.0, 0, 20.0, 30.0), 1))
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


class TestSlotDerivatives:
    """The joint start reads the sum rate's gradient and Hessian from the
    rate model's own jet, bit for bit."""

    @pytest.mark.parametrize("a, b", [(0.7, 5.0), (5.0, 0.7), (20.0, 30.0),
                                      (0.5, 1.5)])
    def test_match_the_rate_model(self, a, b):
        # fig8's channel and its mirror, very strong and min-form, at
        # fig8's power scale and with idle slots.  Powers on a grid of
        # 1/8 keep S and its increments exact, so the entries set to 2 lie
        # on the min-form kink p_c = 2 exactly
        rm = build_rate_model(a, b, 10.0, 10.0)
        rng = np.random.default_rng(21)
        p = rng.integers(0, 81, (4, 20, 2)) / 8.0
        p *= rng.random((4, 20, 2)) > 0.2
        p[:, ::3] = 2.0
        tau = 0.5
        cum = tau * np.cumsum(p, axis=1)
        g, k = iterative._slot_derivatives(cum, tau, rm._jet)
        # the powers the derivatives are taken at, in the callers' order
        q = iterative._increments(cum) / tau
        order = [1, 0] if rm.mirrored else [0, 1]
        q1, q2 = q[..., order[0]], q[..., order[1]]
        if rm.p_c is not None:
            assert np.any(q2 == rm.p_c)
        grad = rm.grad(q1, q2)
        assert g[..., order[0]].tobytes() == grad[0].tobytes()
        assert g[..., order[1]].tobytes() == grad[1].tobytes()
        h11, h12, h22 = rm.hessian(q1, q2)
        diag = (h11, h22) if not rm.mirrored else (h22, h11)
        assert (-k[..., 0]).tobytes() == diag[0].tobytes()
        assert (-k[..., 1]).tobytes() == h12.tobytes()
        assert (-k[..., 2]).tobytes() == diag[1].tobytes()


class TestJointStart:
    @pytest.mark.parametrize("name, scen, max_sweeps", _JOINT_CASES,
                             ids=[c[0] for c in _JOINT_CASES])
    def test_start_is_strictly_feasible_and_certifies(self, name, scen,
                                                      max_sweeps):
        rm = _rate_model_for(scen)
        assert rm.region is not Region.ASYMMETRIC_AB_AT_MOST_ONE
        start, steps, polish = _start_of(scen, rm)
        _assert_start(start, polish, scen)
        policy, report = iterate_offline(scen, rm)
        assert report.converged
        assert (report.start_steps, report.polish_steps) == (steps, polish)
        if max_sweeps is not None:
            assert report.sweeps_used <= max_sweeps
        _assert_certified(policy, scen, rm)

    def test_objective_matches_the_zero_start(self):
        # fig7, fig8 seeds 0-11 and the last seven cases, very strong among
        # them
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

    def test_min_form_takes_the_joint_start(self):
        # min-form: its sum rate has a kink at p_c, where the start reads
        # the decode-limited branch; the alternation certifies its answer
        scen = gen_scenario(20, 1.0, 10.0, 5.0, 4, 0.5, 1.5)
        rm = _rate_model_for(scen)
        assert rm.region is Region.ASYMMETRIC_AB_AT_MOST_ONE
        policy, report = iterate_offline(scen, rm)
        assert report.start_steps > 0 and report.converged
        _assert_certified(policy, scen, rm)
        p_zero, r_zero = _iterate_from(_zero_start, scen, rm)
        assert r_zero.start_steps == 0 and r_zero.converged
        o_zero = joint_objective(p_zero, scen, rm)
        assert (joint_objective(policy, scen, rm)
                >= o_zero - 1e-9 * max(1.0, abs(o_zero)))

    def test_near_a_equal_one_certifies_at_the_start(self):
        # a = 0.99, a*b just below 1: from zeros the alternation crawled,
        # and stopped unconverged after 200 sweeps
        scen = gen_scenario(20, 1.0, 10.0, 2.0, 14, 0.99, 1.0101)
        rm = _rate_model_for(scen)
        assert rm.region is Region.ASYMMETRIC_AB_AT_MOST_ONE
        policy, report = iterate_offline(scen, rm)
        assert report.converged
        assert (report.sweeps_used, report.certified_starts) == (1, 2)
        _assert_certified(policy, scen, rm)

    def test_random_min_form_scenarios_keep_the_zero_start_objective(self):
        # both orientations, a = 0 (p_c = b - 1), a*b = 1 (p_c infinite)
        # and 0 < a*b < 1; E_max 0.01 to 1000 (log-uniform).  No objective
        # falls below the alternation's from zeros by more than 1e-9
        rng = np.random.default_rng(40)
        for k in range(30):
            n = int(rng.integers(5, 31))
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            emax = float(np.exp(rng.uniform(np.log(0.01), np.log(1000.0))))
            if k % 3 == 0:
                a = float(rng.uniform(0.05, 0.99))
                b = float(rng.uniform(1.0, 1.0 / a))
            elif k % 3 == 1:
                a, b = 0.0, float(rng.uniform(1.0, 5.0))
            else:
                a = float(rng.choice([0.5, 0.25, 0.125]))
                b = 1.0 / a
            gains = (b, a) if (k // 3) % 2 else (a, b)
            scen = gen_scenario(n, tau, emax, rng.uniform(0.5, 5.0) * tau,
                                int(rng.integers(10**6)), *gains)
            rm = _rate_model_for(scen)
            assert rm.region is Region.ASYMMETRIC_AB_AT_MOST_ONE
            assert rm.mirrored == bool((k // 3) % 2)
            assert (rm.p_c == np.inf) == (k % 3 == 2)
            policy, report = iterate_offline(scen, rm)
            assert report.converged
            _assert_certified(policy, scen, rm)
            p_zero, r_zero = _iterate_from(_zero_start, scen, rm)
            assert r_zero.converged
            o_zero = joint_objective(p_zero, scen, rm)
            assert (joint_objective(policy, scen, rm)
                    >= o_zero - 1e-9 * max(1.0, abs(o_zero)))

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
                 gen_scenario(20, 1.0, 10.0, 5.0, 2, 5.0, 0.7),
                 gen_scenario(20, 1.0, 10.0, 5.0, 3, 20.0, 30.0),
                 gen_scenario(20, 1.0, 10.0, 5.0, 5, 20.0, 30.0)]
        rms = [_rate_model_for(s) for s in scens]
        assert rms[-1].region is Region.VERY_STRONG
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
        # from zeros, the early sweeps move both blocks
        scen = gen_scenario(20, 1.0, 10.0, 5.0, 4, 0.5, 1.5)
        _, report = _iterate_from(_zero_start, scen, _rate_model_for(scen))
        assert report.sweeps_used > 1
        assert 0 < report.certified_starts < 2 * report.sweeps_used
