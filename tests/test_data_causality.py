"""Penalty-method data-causality solver: violation accounting, contradiction
resolution and agreement with the exhaustive search."""

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ehic import data_causality
from ehic.cli import gen_scenario, main
from ehic.data_causality import (_corridor_constraint, _joint_fun_and_grad,
                                 _penalized_objective, _round_scales,
                                 forced_departures, resolve_contradictions,
                                 solve_with_data, violation)
from ehic.errors import ConvergenceError, InvalidInputError
from ehic.iterative import feasible_floor, iterate_offline, joint_objective
from ehic.model import DataProfile, HarvestProfile, User, feasibility_report
from ehic.oracle import OracleOptions, brute_force
from ehic.rates import build_rate_model

from helpers import (enumerate_forced_departures, full_coordinate_round,
                     loop_forced_departures, single_user_scenario,
                     two_user_scenario)


def _all_free(scen):
    """The mask that lets the evaluator read all 2N powers."""
    return np.ones((2, scen.grid.N), dtype=bool)


class TestViolation:
    def test_infinite_backlog_is_zero(self):
        scen = two_user_scenario([1.0, 1.0], [1.0, 1.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        assert np.array_equal(violation(np.ones((2, 2)), scen, rm),
                              np.zeros((2, 2)))

    def test_departure_before_arrival(self):
        # user 1 sends (1/2)ln(1.3) nats in slot 1 against an empty queue
        # (very strong region, decoupled rates)
        scen = two_user_scenario([1.0, 1.0], [0.0, 0.0], 2.0, 50.0, 50.0,
                                 b1=[0.0, 10.0])
        rm = build_rate_model(50.0, 50.0, 2.0, 2.0)
        c = violation([[0.3, 0.0], [0.0, 0.0]], scen, rm)
        assert c[0, 0] == pytest.approx(0.5 * math.log(1.3), rel=1e-12)
        assert c[0, 0] == pytest.approx(0.13118, abs=5e-6)
        assert c[0, 1] == 0.0
        assert c[1].max() == 0.0

    def test_matches_feasibility_report(self):
        rng = np.random.default_rng(14)
        scen = two_user_scenario(rng.uniform(0, 1, 4), rng.uniform(0, 1, 4),
                                 2.0, 0.9, 2.0, b1=rng.uniform(0, 0.5, 4),
                                 b2=rng.uniform(0, 0.5, 4))
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        for _ in range(10):
            policy = rng.uniform(0, 0.6, (2, 4))
            c = violation(policy, scen, rm)
            rep = feasibility_report(policy, scen, rm)
            assert np.max(c) == pytest.approx(rep.data_causality.magnitude,
                                              abs=1e-12)


class TestResolveContradictions:
    def test_two_slot_blocked_prefix(self):
        scen = single_user_scenario([5.0, 5.0], 5.0, b_arr=[0.0, 100.0])
        red = resolve_contradictions(scen)
        assert red.users[0].harvest.arrivals.tolist() == [0.0, 5.0]

    def test_no_data_constraints_identity(self):
        scen = single_user_scenario([5.0, 5.0], 5.0)
        assert resolve_contradictions(scen) is scen

    def test_three_slot_chain(self):
        scen = single_user_scenario([5.0, 5.0, 5.0], 5.0,
                                    b_arr=[0.0, 0.0, 100.0])
        red = resolve_contradictions(scen)
        assert red.users[0].harvest.arrivals.tolist() == [0.0, 0.0, 5.0]

    def test_idempotent(self):
        scen = single_user_scenario([5.0, 5.0, 5.0], 5.0,
                                    b_arr=[0.0, 0.0, 100.0])
        red = resolve_contradictions(scen)
        again = resolve_contradictions(red)
        assert np.array_equal(again.users[0].harvest.arrivals,
                              red.users[0].harvest.arrivals)
        # a seeded batch with data-blocked prefixes of every length: a second
        # pass returns the once-reduced scenario itself
        rng = np.random.default_rng(15)
        changed = 0
        for seed in range(200):
            n = int(rng.integers(1, 12))
            base = gen_scenario(n, 1.0, rng.uniform(1.0, 10.0),
                                rng.uniform(0.5, 3.0), seed, 0.7, 5.0)
            users = tuple(
                User(u.harvest, DataProfile(
                    rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.3)))
                for u in base.users)
            scen = replace(base, users=users)
            red = resolve_contradictions(scen)
            changed += red is not scen
            assert resolve_contradictions(red) is red
        assert changed >= 50

    def test_oracle_value_unchanged_by_removal(self):
        scen = single_user_scenario([1.0, 1.0, 1.0], 1.0,
                                    b_arr=[0.0, 0.0, 100.0],
                                    partner_emax=0.05)
        rm = build_rate_model(0.5, 2.0, 1.0, 1.0)
        red = resolve_contradictions(scen)
        _, obj_before = brute_force(scen, rm, OracleOptions(0.05))
        _, obj_after = brute_force(red, rm, OracleOptions(0.05))
        assert obj_before == pytest.approx(obj_after, abs=1e-12)


class TestSolveWithData:
    def test_blocked_prefix_exact(self):
        scen = single_user_scenario([5.0, 5.0], 5.0, b_arr=[0.0, 100.0])
        rm = build_rate_model(0.5, 2.0, 5.0, 5.0)
        policy, report = solve_with_data(scen, rm)
        assert np.allclose(policy[0], [0.0, 5.0], atol=1e-12)
        assert report.unusable_energy[0].tolist() == [5.0, 0.0]
        assert report.final_violation <= 1e-12

    def test_infinite_backlog_delegates(self):
        scen = single_user_scenario([1.0, 0.0, 1.0], 2.0)
        rm = build_rate_model(0.5, 2.0, 2.0, 2.0)
        p_data, _ = solve_with_data(scen, rm)
        p_off, _ = iterate_offline(scen, rm)
        assert np.array_equal(p_data, p_off)

    def test_linear_walkthrough_matches_oracle(self):
        # the walkthrough's arrivals in the very strong region, whose
        # decoupled rates (1/2)ln(1 + p) make it a single-user problem.  No
        # data arrives before slot 2, and slot 3's arrival fills the battery
        # of 1, so slot 2 spends slot 1's unit; the last 1.5 units spread
        # evenly over slots 3-5, which the data allow.  The best policy is
        # [0, 1, 0.5, 0.5, 0.5], worth ln 2/2 + 3 ln 1.5/2 nats.
        # It lies on the oracle's lattice of step 0.05, where the
        # incommensurable log rates keep the bit states few enough
        scen = single_user_scenario([1, 0, 1, 0.5, 0], 1.0,
                                    b_arr=[0, 1.5, 0, 0.2, 1],
                                    a=50.0, b=50.0, partner_emax=0.01)
        rm = build_rate_model(50.0, 50.0, 1.0, 1.0)
        policy, report = solve_with_data(scen, rm)
        obj = joint_objective(policy, scen, rm)
        oracle_policy, obj_oracle = brute_force(scen, rm, OracleOptions(0.05))
        assert np.array_equal(oracle_policy[0], [0.0, 1.0, 0.5, 0.5, 0.5])
        assert obj_oracle == pytest.approx(
            0.5 * math.log(2.0) + 1.5 * math.log(1.5), rel=1e-12)
        assert report.final_violation <= 1e-4
        assert abs(obj - obj_oracle) <= 0.01 * abs(obj_oracle)

    def test_penalty_rounds_engage_on_late_data(self):
        scen = single_user_scenario([2.0, 0.0, 0.0], 3.0,
                                    b_arr=[0.1, 0.1, 5.0],
                                    a=0.3, partner_emax=0.05)
        rm = build_rate_model(0.3, 2.0, 3.0, 3.0)
        policy, report = solve_with_data(scen, rm)
        assert report.rounds_used > 0
        assert report.final_violation <= 1e-4
        # violations shrink monotonically across rounds on this instance
        trace = report.violation_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        _, obj_oracle = brute_force(scen, rm, OracleOptions(0.02))
        assert abs(joint_objective(policy, scen, rm) - obj_oracle) \
            <= 0.01 * obj_oracle

    def test_penalty_gradient_continuous_at_violation_boundary(self):
        # the squared hinge is C1, so the pump offset in the gradient must
        # not jump as the cumulative departures cross the data cap
        scen = single_user_scenario([2.0, 0.0], 3.0, b_arr=[0.4, 5.0],
                                    a=0.3, partner_emax=0.05)
        rm = build_rate_model(0.3, 2.0, 3.0, 3.0)
        _, grad = _joint_fun_and_grad(scen, rm, 10.0, np.zeros((2, 2)),
                                      _all_free(scen))
        # p with tau*r1(p) == 0.4 exactly: the violation switches on here
        p_star = np.exp(2 * 0.4) - 1.0
        eps = 1e-7
        g_lo = grad(np.array([p_star - eps, 0.0, 0.0, 0.0]))
        g_hi = grad(np.array([p_star + eps, 0.0, 0.0, 0.0]))
        assert np.max(np.abs(g_hi - g_lo)) <= 1e-4

    def test_penalty_gradient_continuous_at_shifted_switch_point(self):
        # a multiplier of 2 at coefficient 10 shifts slot 1's hinge by 0.1,
        # so it switches on 0.1 nats below the data cap, at g = -0.1
        scen = single_user_scenario([2.0, 0.0], 3.0, b_arr=[0.4, 5.0],
                                    a=0.3, partner_emax=0.05)
        rm = build_rate_model(0.3, 2.0, 3.0, 3.0)
        lam = np.array([[2.0, 0.0], [0.0, 0.0]])
        _, grad = _joint_fun_and_grad(scen, rm, 10.0, lam, _all_free(scen))
        # p with tau*r1(p) == 0.3 exactly
        p_star = np.exp(2 * 0.3) - 1.0
        eps = 1e-7
        g_lo = grad(np.array([p_star - eps, 0.0, 0.0, 0.0]))
        g_hi = grad(np.array([p_star + eps, 0.0, 0.0, 0.0]))
        assert np.max(np.abs(g_hi - g_lo)) <= 1e-4
        # the shifted hinge is live above the switch point only, where the
        # unshifted one is still off
        _, grad_zero = _joint_fun_and_grad(scen, rm, 10.0, np.zeros((2, 2)),
                                           _all_free(scen))
        below = np.array([p_star - 0.05, 0.0, 0.0, 0.0])
        above = np.array([p_star + 0.05, 0.0, 0.0, 0.0])
        assert np.array_equal(grad(below), grad_zero(below))
        assert grad(above)[0] > grad_zero(above)[0]

    def test_penalized_objective_monotone_in_coefficient(self):
        # eps * (max(0, lam/2eps + g)^2 - (lam/2eps)^2) is lam g + eps g^2
        # where the hinge is live and -lam^2/(4 eps) where it is not: both
        # are nondecreasing in eps for fixed lam
        scen = single_user_scenario([2.0, 0.0], 3.0, b_arr=[0.1, 5.0],
                                    a=0.3, partner_emax=0.05)
        rm = build_rate_model(0.3, 2.0, 3.0, 3.0)
        policy, _ = iterate_offline(scen, rm)
        c = violation(policy, scen, rm)
        assert c[0, 0] > 0.0
        # with lam = 0 the penalty is eps * sum C^2, bit for bit
        for eps in (1.0, 4.0, 16.0):
            assert (_penalized_objective(policy, scen, rm, eps,
                                         np.zeros((2, 2)))
                    == joint_objective(policy, scen, rm)
                    - eps * float(np.sum(c * c)))
        # slot 1 violated, slot 2 below its cap by about 4 nats: the largest
        # multiplier keeps slot 2's hinge live up to eps = 16
        for lam2 in (0.0, 3.0, 200.0):
            lam = np.array([[1.5, lam2], [0.0, 0.0]])
            values = [_penalized_objective(policy, scen, rm, eps, lam)
                      for eps in (1.0, 4.0, 16.0, 64.0)]
            assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))
            assert values[-1] < values[0]

    def test_data_limited_instance_meets_its_optimum(self):
        # every arrival is 0.2 nats, so the two users send at most 1.6 nats
        # in all, and the batteries let them send that much: the optimum is
        # 1.6.  A growing penalty alone stops above it by about its
        # leftover violation; the multipliers bring the answer within 1e-6
        scen = two_user_scenario([3.0, 0.0, 2.0, 1.0], [2.0, 1.0, 0.0, 2.0],
                                 4.0, 0.7, 5.0, b1=[0.2] * 4, b2=[0.2] * 4)
        rm = build_rate_model(0.7, 5.0, *scen.peak_powers)
        policy, report = solve_with_data(scen, rm)
        assert report.rounds_used >= 1
        assert report.final_violation <= 1e-4
        assert abs(joint_objective(policy, scen, rm) - 1.6) <= 1e-6


class TestCrossCoupling:
    def test_backward_pump_vanishes_when_rates_decouple(self):
        # in the noise-treated region user 2's rate does not depend on p1, so
        # user 1's penalty gradient has no contribution from user 2's queue
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        d11, d12, d21, d22 = rm.user_rate_partials(np.array([1.0, 2.0]),
                                                   np.array([0.5, 1.5]))
        assert np.all(d21 == 0.0)

        scen_two = two_user_scenario([1.0, 1.0], [1.0, 1.0], 2.0, 0.9, 2.0,
                                     b1=[0.05, 5.0], b2=[0.05, 5.0])
        scen_one = two_user_scenario([1.0, 1.0], [1.0, 1.0], 2.0, 0.9, 2.0,
                                     b1=[0.05, 5.0])
        for x in (np.array([0.5, 0.5]), np.array([0.9, 0.1])):
            x = np.concatenate([x, [0.5, 0.5]])
            _, g_two = _joint_fun_and_grad(scen_two, rm, 3.0,
                                           np.zeros((2, 2)),
                                           _all_free(scen_two))
            _, g_one = _joint_fun_and_grad(scen_one, rm, 3.0,
                                           np.zeros((2, 2)),
                                           _all_free(scen_one))
            assert np.allclose(g_two(x)[:2], g_one(x)[:2], atol=1e-14)

    def test_two_user_data_instance_converges(self):
        scen = two_user_scenario([1.0, 0.0], [0.5, 0.5], 1.0, 0.9, 2.0,
                                 b1=[0.1, 5.0], b2=[0.05, 5.0])
        rm = build_rate_model(0.9, 2.0, 1.0, 1.0)
        policy, report = solve_with_data(scen, rm)
        assert report.final_violation <= 1e-4
        _, obj_oracle = brute_force(scen, rm, OracleOptions(0.02))
        obj = joint_objective(policy, scen, rm)
        assert obj >= obj_oracle - 0.01 * abs(obj_oracle)


class TestScheduleValidation:
    def test_bad_schedule_rejected(self):
        scen = single_user_scenario([2.0, 0.0], 3.0, b_arr=[0.1, 5.0])
        rm = build_rate_model(0.5, 2.0, 3.0, 3.0)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError):
                solve_with_data(scen, rm, violation_tol=bad)


def _data_scenario(a, b, seed, high=0.6, n=12):
    """A generated scenario with both users' data uniform on [0, high]."""
    base = gen_scenario(n, 1.0, 10.0, 3.0, seed, a, b)
    data = np.random.default_rng(seed).uniform(0.0, high, (2, n))
    users = tuple(User(u.harvest, DataProfile(d))
                  for u, d in zip(base.users, data))
    return replace(base, users=users)


def _excess(x, scen, rm):
    """The unclipped cumulative excess g = sum_{i<=n} tau r_j,i - cumB_j,n."""
    p = np.maximum(x, 0.0).reshape(2, scen.grid.N)
    nats = np.vstack(rm.user_rates(p[0], p[1])) * scen.grid.tau
    return np.cumsum(nats, axis=1) - np.cumsum(
        [u.data.arrivals for u in scen.users], axis=1)


def _multipliers(seed, eps, n=12):
    """Multipliers >= 0, a third of them 0, the rest shifting their hinge
    by up to 3 nats (lam / 2 eps)."""
    rng = np.random.default_rng(seed)
    return (2.0 * eps * rng.uniform(0.0, 3.0, (2, n))
            * (rng.random((2, n)) < 2.0 / 3.0))


class TestBlockEvaluator:
    """The joint evaluator, read one user's block of x = (p_1, p_2) at a
    time; the two cases of a channel cover all 2N coordinates, at zero
    multipliers and at multipliers that make the shifted hinge live where
    the data constraint holds (g < 0)."""
    # a*b > 1, min-form (p_c = 2 at a=0.5, b=1.5), very strong, and both
    # asymmetric families mirrored
    CHANNELS = [(0.7, 5.0), (0.5, 1.5), (20.0, 30.0), (5.0, 0.7), (1.5, 0.5)]

    @pytest.mark.parametrize("a, b", CHANNELS)
    @pytest.mark.parametrize("user", [0, 1])
    def test_value_is_the_penalized_objective(self, a, b, user):
        self._check_value(a, b, user, shifted=False)

    @pytest.mark.parametrize("a, b", CHANNELS)
    @pytest.mark.parametrize("user", [0, 1])
    def test_value_at_multipliers_is_the_penalized_objective(self, a, b,
                                                             user):
        self._check_value(a, b, user, shifted=True)

    @pytest.mark.parametrize("a, b", CHANNELS)
    @pytest.mark.parametrize("user", [0, 1])
    def test_gradient_matches_central_differences(self, a, b, user):
        self._check_gradient(a, b, user, shifted=False)

    @pytest.mark.parametrize("a, b", CHANNELS)
    @pytest.mark.parametrize("user", [0, 1])
    def test_gradient_at_multipliers_matches_central_differences(self, a, b,
                                                                 user):
        self._check_gradient(a, b, user, shifted=True)

    @staticmethod
    def _check_value(a, b, user, shifted):
        scen = _data_scenario(a, b, 3)
        rm = build_rate_model(a, b, *scen.peak_powers)
        rng = np.random.default_rng(7)
        policy = rng.uniform(0.0, 3.0, (2, 12))
        lam = _multipliers(10, 16.0) if shifted else np.zeros((2, 12))
        fun, _ = _joint_fun_and_grad(scen, rm, 16.0, lam, _all_free(scen))
        # points that move only this user's block, then both blocks
        points = []
        for _ in range(4):
            x = policy.copy()
            x[user] = rng.uniform(-1.0, 3.0, 12)
            points.append(x.ravel())
        points += [rng.uniform(-1.0, 3.0, 24) for _ in range(2)]
        if shifted:
            g = _excess(points[0], scen, rm)
            assert np.any((g < 0.0) & (lam / 32.0 + g > 0.0))
        # repeated and interleaved points read the kept evaluation
        for x in points + points[::-1]:
            floored = np.maximum(x, 0.0).reshape(2, 12)
            assert -fun(x) == _penalized_objective(floored, scen, rm, 16.0,
                                                   lam)

    @staticmethod
    def _check_gradient(a, b, user, shifted):
        # both users' hinges are live, so this user's coordinates carry
        # its own and the cross-user pump terms: data on [0, 0.2] violate
        # every user's constraint, and with multipliers data on [0, 0.6]
        # leave some of the live hinges where the constraint holds
        scen = _data_scenario(a, b, 4, high=0.6 if shifted else 0.2)
        rm = build_rate_model(a, b, *scen.peak_powers)
        rng = np.random.default_rng(8)
        lam = _multipliers(11, 16.0) if shifted else np.zeros((2, 12))
        fun, grad = _joint_fun_and_grad(scen, rm, 16.0, lam,
                                        _all_free(scen))
        h = 1e-6
        block = slice(12 * user, 12 * (user + 1))
        for _ in range(3):
            # powers in [0.1, 1.8] keep every slot off the min-form kink at 2
            x = rng.uniform(0.1, 1.8, 24)
            g = _excess(x, scen, rm)
            assert np.all(np.any(lam / 32.0 + g > 0.0, axis=1))
            if shifted:
                assert np.any((g < 0.0) & (lam / 32.0 + g > 0.0))
            g = grad(x)
            fd = np.array([(fun(x + h * e) - fun(x - h * e)) / (2.0 * h)
                           for e in np.eye(24)[block]])
            assert (np.max(np.abs(g[block] - fd))
                    <= 1e-6 * np.max(np.abs(g[block])))


class TestCorridorConstraint:
    @staticmethod
    def _dense_jacobian(scen, free):
        """The open rows of sign * tau * kron(I_2, tril(1_N)), the dense
        construction over all 2N rows, restricted to the free columns and
        to the rows that read one."""
        n, tau = scen.grid.N, scen.grid.tau
        rows, sign = [], []
        for j, user in enumerate(scen.users):
            c = user.harvest.corridor
            rows += [j * n + np.flatnonzero(c.upper_rows),
                     j * n + np.flatnonzero(c.lower_rows)]
            sign += [np.full(np.count_nonzero(c.upper_rows), -1.0),
                     np.ones(np.count_nonzero(c.lower_rows))]
        rows, sign = np.concatenate(rows), np.concatenate(sign)
        dense = (sign * tau)[:, None] * np.kron(
            np.eye(2), np.tril(np.ones((n, n))))[rows][:, free.ravel()]
        return dense[np.any(dense != 0.0, axis=1)]

    @staticmethod
    def _scenarios():
        scens = [_data_scenario(a, b, seed, n=n)
                 for a, b in ((0.7, 5.0), (0.5, 1.5))
                 for seed, n in ((1, 1), (2, 5), (3, 12), (4, 30))]
        rng = np.random.default_rng(12)
        # user 2 harvests nothing
        scens.append(two_user_scenario(rng.uniform(0, 4, 9),
                                       np.zeros(9), 4.0, 0.7, 5.0, tau=0.3,
                                       b1=np.ones(9), b2=np.ones(9)))
        # both users start with slots that harvest nothing
        scens.append(two_user_scenario([0, 0, 3, 0, 1], [0, 2, 0, 1, 0], 4.0,
                                       0.7, 5.0, b1=np.ones(5),
                                       b2=np.ones(5)))
        return scens

    def test_open_rows_match_the_dense_construction(self):
        pinned = 0
        for scen in self._scenarios():
            free, constraint = _corridor_constraint(scen)
            # the free powers are the slots with U_n > 0, a suffix of each
            # user's slots
            for j, user in enumerate(scen.users):
                assert np.array_equal(free[j],
                                      user.harvest.corridor.upper > 0.0)
                assert np.all(np.diff(free[j].astype(int)) >= 0)
            pinned += np.count_nonzero(~free)
            x = np.zeros(np.count_nonzero(free))
            jac = constraint["jac"](x)
            dense = self._dense_jacobian(scen, free)
            assert jac.shape == dense.shape and jac.shape[0] > 0
            assert jac.dtype == dense.dtype
            assert jac.tobytes() == dense.tobytes()
            # the rows are linear in the free powers with this Jacobian
            y = np.random.default_rng(3).uniform(0.0, 1.0, x.size)
            assert np.allclose(constraint["fun"](y) - constraint["fun"](x),
                               jac @ y, rtol=1e-12, atol=1e-12)
        assert pinned >= 12


class TestPenaltyRounds:
    @staticmethod
    def _recording(monkeypatch):
        """Record every round's (policy in, coefficient, multipliers,
        policy out)."""
        rounds = []
        real = data_causality._penalty_round

        def record(scen, rm, policy, eps, lam, corridor):
            out, res = real(scen, rm, policy, eps, lam, corridor)
            rounds.append((policy, eps, lam, out))
            return out, res

        monkeypatch.setattr(data_causality, "_penalty_round", record)
        return rounds

    @staticmethod
    def _instances():
        # the second has no feasible policy, though no user's corridor
        # alone proves it: the rounds run to the cap, many of them with a
        # failed SLSQP status
        out =[TestInnerStatus._late_data(), TestInnerStatus._coupled()]
        for a, b in ((0.7, 5.0), (0.5, 1.5)):
            scen = _data_scenario(a, b, 5, high=0.2)
            out.append((scen, build_rate_model(a, b, *scen.peak_powers)))
        return out

    def test_zero_harvest_user_keeps_a_zero_row(self, monkeypatch):
        # user 2 harvests nothing, so none of its powers is free: SLSQP
        # never sees them and the round writes exact zeros; its data are
        # finite in the second instance, so its penalty is live there.
        # Both instances are feasible and need rounds (at high=0.2 user 1's
        # battery alone is infeasible, see TestForcedDepartures)
        base = _data_scenario(0.7, 5.0, 5, high=0.3)
        dormant = replace(base, users=(base.users[0], User(
            HarvestProfile(np.zeros(12), 10.0), base.users[1].data)))
        for scen, rm in (self._instances()[0],
                         (dormant, build_rate_model(
                             0.7, 5.0, *dormant.peak_powers))):
            rounds = self._recording(monkeypatch)
            try:
                solve_with_data(scen, rm)
            except ConvergenceError:
                pass
            assert rounds
            for _, _, _, out in rounds:
                assert np.array_equal(out[1], np.zeros(scen.grid.N))

    def test_a_round_never_lowers_the_penalized_objective(self, monkeypatch):
        for scen, rm in self._instances():
            rounds = self._recording(monkeypatch)
            try:
                solve_with_data(scen, rm)
            except ConvergenceError:
                pass
            assert rounds
            for before, eps, lam, after in rounds:
                assert (_penalized_objective(after, scen, rm, eps, lam)
                        >= _penalized_objective(before, scen, rm, eps, lam))

    def test_a_lowering_answer_is_discarded(self, monkeypatch):
        # SLSQP's answer is replaced by one that spends each arrival as it
        # comes, which on the late-data instance sends more bits too early
        # and fewer in all: every round must keep its start
        scen, rm = self._instances()[0]
        real = data_causality.minimize

        def greedy(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x = np.full_like(res.x, 1e3)
            return res

        monkeypatch.setattr(data_causality, "minimize", greedy)
        rounds = self._recording(monkeypatch)
        with pytest.raises(ConvergenceError):
            solve_with_data(scen, rm)
        spent = np.array([feasible_floor(np.full(3, 1e3), u.harvest, 1.0)
                          for u in scen.users])
        assert len(rounds) == 40
        for before, eps, lam, after in rounds:
            assert (_penalized_objective(spent, scen, rm, eps, lam)
                    < _penalized_objective(before, scen, rm, eps, lam))
            assert after is before


def _zero_prefix_scenario(a, b, seed, zero):
    """``_data_scenario`` at high=0.3 with user j's first ``zero[j]``
    arrivals of harvest removed."""
    base = _data_scenario(a, b, seed, high=0.3)
    users = []
    for u, m in zip(base.users, zero):
        e = u.harvest.arrivals.copy()
        e[:m] = 0.0
        users.append(User(HarvestProfile(e, u.harvest.capacity), u.data))
    scen = replace(base, users=tuple(users))
    return scen, build_rate_model(a, b, *scen.peak_powers)


class TestFreePowers:
    """SLSQP sees only the powers after each user's first harvest; the
    rounds over all 2N powers are the reference."""

    def _both(self, monkeypatch, scen, rm):
        policy, report = solve_with_data(scen, rm)
        monkeypatch.setattr(data_causality, "_penalty_round",
                            full_coordinate_round)
        ref_policy, ref_report = solve_with_data(scen, rm)
        monkeypatch.undo()
        assert report.rounds_used >= 1 and ref_report.rounds_used >= 1
        return (joint_objective(policy, scen, rm),
                joint_objective(ref_policy, scen, rm))

    @pytest.mark.parametrize("a, b", [(0.7, 5.0), (0.5, 1.5)])
    @pytest.mark.parametrize("seed, zero", [
        (1, (2, 3)), (2, (2, 3)), (3, (2, 3)), (4, (2, 3)), (5, (2, 3)),
        (5, (3, 12)),   # user 2 harvests nothing and has finite data
    ])
    def test_matches_the_full_coordinate_rounds(self, monkeypatch, a, b,
                                                seed, zero):
        # the reference alone moves by up to 6e-9 relative between one and
        # two BLAS threads on these instances (the penalized problem is not
        # concave, and SLSQP's steps round differently), so the bound sits
        # above that spread; a power lost or a row misplaced moves the
        # objective by far more
        obj, ref = self._both(monkeypatch,
                              *_zero_prefix_scenario(a, b, seed, zero))
        assert abs(obj - ref) <= 1e-7 * abs(ref)

    def test_the_ci_instance(self, monkeypatch):
        # both users start without harvest; every arrival is 0.2 nats after
        # user 1's first two of 0.1, so the users send at most 1.8 nats
        scen = two_user_scenario([0, 0, 3, 0, 1], [0, 2, 0, 1, 0], 4.0, 0.7,
                                 5.0, b1=[0.1, 0.1, 0.2, 0.2, 0.2],
                                 b2=[0.2] * 5)
        rm = build_rate_model(0.7, 5.0, *scen.peak_powers)
        obj, ref = self._both(monkeypatch, scen, rm)
        assert abs(obj - ref) <= 1e-7 * abs(ref)
        assert abs(obj - 1.8) <= 1e-6

    def test_evaluator_reads_the_free_powers(self):
        scen, rm = _zero_prefix_scenario(0.7, 5.0, 2, (2, 3))
        free, _ = _corridor_constraint(scen)
        assert not free.all()
        lam = _multipliers(10, 16.0)
        fun, grad = _joint_fun_and_grad(scen, rm, 16.0, lam, free)
        fun_all, grad_all = _joint_fun_and_grad(scen, rm, 16.0, lam,
                                                _all_free(scen))
        rng = np.random.default_rng(5)
        for _ in range(4):
            policy = rng.uniform(-0.5, 3.0, (2, 12)) * free
            x = policy[free]
            assert fun(x) == fun_all(policy.ravel())
            assert grad(x).tobytes() == grad_all(policy.ravel())[
                free.ravel()].tobytes()

    def test_no_harvest_no_slsqp(self, tmp_path, monkeypatch):
        # neither user harvests, both have finite data: every power is
        # pinned at 0, which sends nothing and so meets the data
        calls = []
        real = data_causality.minimize
        monkeypatch.setattr(data_causality, "minimize",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        doc = {"tau": 1.0, "N": 3, "channel": {"a": 0.7, "b": 5.0},
               "users": [{"E": [0, 0, 0], "Emax": 4, "B": [0.1, 0.1, 0.2]},
                         {"E": [0, 0, 0], "Emax": 4, "B": [0.2] * 3}]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["solve-data", "--scenario", str(path), "--out",
                     str(out)]) == 0
        assert not calls
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 0 and summary["inner_steps"] == 0
        assert summary["objective_nats"] == 0.0
        rows = (out / "policy.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1:3] for r in rows] == [["0", "0"]] * 3

    def test_inner_steps_count_slsqp_iterations(self, monkeypatch):
        iterations = []
        real = data_causality.minimize

        def record(*args, **kwargs):
            res = real(*args, **kwargs)
            iterations.append(res.nit)
            return res

        monkeypatch.setattr(data_causality, "minimize", record)
        cases = [_zero_prefix_scenario(a, b, seed, zero)
                 for a, b in ((0.7, 5.0), (0.5, 1.5))
                 for seed, zero in ((2, (2, 3)), (5, (3, 12)), (4, (3, 12)))]
        cases.append(TestInnerStatus._late_data())
        for scen, rm in cases:
            iterations.clear()
            _, report = solve_with_data(scen, rm)
            assert report.inner_steps == sum(iterations)
            assert (report.inner_steps > 0) == (report.rounds_used >= 1)


class TestPreconditioning:
    """A round's SLSQP works in y = x / d, with d from the sum rate's
    diagonal curvature at the round's start."""

    @staticmethod
    def _round_inputs():
        scen, rm = _zero_prefix_scenario(0.7, 5.0, 2, (2, 3))
        policy, _ = iterate_offline(scen, rm)
        return scen, rm, policy, 16.0, _multipliers(10, 16.0)

    def test_slsqp_sees_the_scaled_problem(self, monkeypatch):
        scen, rm, policy, eps, lam = self._round_inputs()
        free, constraint = corridor = _corridor_constraint(scen)
        fun, grad = _joint_fun_and_grad(scen, rm, eps, lam, free)
        d = _round_scales(scen, rm, policy, free)
        calls = []
        real = data_causality.minimize

        def record(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append((args, kwargs, res))
            return res

        monkeypatch.setattr(data_causality, "minimize", record)
        out, res = data_causality._penalty_round(scen, rm, policy, eps, lam,
                                                 corridor)
        [((fun_y, y0), kwargs, res_y)] = calls
        assert res_y is res
        assert y0.tobytes() == (policy[free] / d).tobytes()
        assert kwargs["bounds"] == [(0.0, None)] * d.size
        rows = kwargs["constraints"]
        jac_x = constraint["jac"](y0)
        rng = np.random.default_rng(8)
        for y in (y0, res.x, rng.uniform(0.0, 2.0, d.size)):
            x = d * y
            assert fun_y(y) == fun(x)
            # the gradient in y is d times the gradient in x at x = d y
            assert kwargs["jac"](y).tobytes() == (d * grad(x)).tobytes()
            assert rows["fun"](y).tobytes() == constraint["fun"](x).tobytes()
            assert (rows["jac"](y).tobytes()
                    == (jac_x * d[None, :]).tobytes())
        # the answer is x = d y, floored onto each corridor, or the start
        full = np.zeros_like(policy)
        full[free] = d * res.x
        floored = np.array([feasible_floor(row, u.harvest, scen.grid.tau)
                            for row, u in zip(full, scen.users)])
        assert out is policy or np.array_equal(out, floored)

    def test_scales_follow_the_curvature_above_the_floor(self):
        scen, rm, policy, _, _ = self._round_inputs()
        free, _ = _corridor_constraint(scen)
        d = _round_scales(scen, rm, policy, free)
        c = -scen.grid.tau * np.array(rm.curvature(*policy))[free]
        kept = c >= data_causality._CURVATURE_FLOOR * c.max()
        assert kept.any() and d.shape == c.shape
        assert np.array_equal(d[kept], 1.0 / np.sqrt(c[kept]))
        assert np.all(d <= 1.0 / np.sqrt(data_causality._CURVATURE_FLOOR
                                         * c.max()))

    def test_scales_stay_finite_where_the_curvature_vanishes(self):
        scen, rm, policy, _, _ = self._round_inputs()
        free, _ = _corridor_constraint(scen)
        # powers too large for their square: the curvature underflows to 0
        huge = policy.copy()
        huge[0, -4:] = 1e170
        huge[1, -2:] = 1e170
        c = -np.array(rm.curvature(*huge))[free]
        assert np.count_nonzero(c == 0.0) >= 4 and c.max() > 0.0
        d = _round_scales(scen, rm, huge, free)
        assert np.all(np.isfinite(d)) and np.all(d > 0.0)
        ratio = 1.0 / math.sqrt(data_causality._CURVATURE_FLOOR)
        assert d.max() <= ratio * d.min() * (1.0 + 1e-12)
        # no free curvature at all: every scale is 1
        every = np.where(free, 1e170, 0.0)
        assert np.array_equal(_round_scales(scen, rm, every, free),
                              np.ones(np.count_nonzero(free)))


class TestInnerStatus:
    @staticmethod
    def _late_data():
        # test_penalty_rounds_engage_on_late_data's instance
        scen = single_user_scenario([2.0, 0.0, 0.0], 3.0,
                                    b_arr=[0.1, 0.1, 5.0],
                                    a=0.3, partner_emax=0.05)
        return scen, build_rate_model(0.3, 2.0, 3.0, 3.0)

    @staticmethod
    def _coupled():
        # infeasible only through the coupling of the users: user 1 must
        # spend 5 in slot 1, which sends at most its 0.3 arrived nats only
        # while user 2 sends at p2 >= 10.2, that is ½ln 11.2 = 1.2 nats of
        # user 2's 0.05.  Alone each user can meet its data: user 1 sends
        # 0.19 nats against user 2's peak power of 20, and user 2 can wait
        scen = two_user_scenario([5.0, 5.0], [20.0, 0.0], 5.0, 0.5, 2.0,
                                 b1=[0.3, 10.0], b2=[0.05, 10.0], emax2=20.0)
        return scen, build_rate_model(0.5, 2.0, *scen.peak_powers)

    @staticmethod
    def _recording(monkeypatch, fail):
        statuses = []
        real = data_causality.minimize

        def record(*args, **kwargs):
            res = real(*args, **kwargs)
            if fail:
                res.success = False
            statuses.append(bool(res.success))
            return res

        monkeypatch.setattr(data_causality, "minimize", record)
        return statuses

    def test_failed_statuses_are_counted(self, monkeypatch):
        statuses = self._recording(monkeypatch, fail=False)
        _, report = solve_with_data(*self._late_data())
        assert report.rounds_used > 0 and statuses
        assert report.inner_failures == statuses.count(False)

    def test_every_failure_is_counted(self, monkeypatch):
        statuses = self._recording(monkeypatch, fail=True)
        _, report = solve_with_data(*self._late_data())
        assert report.converged
        assert report.inner_failures == len(statuses) > 0

    def test_convergence_error_counts_the_failures(self, monkeypatch):
        scen, rm = self._coupled()
        statuses = self._recording(monkeypatch, fail=False)
        with pytest.raises(ConvergenceError) as exc:
            solve_with_data(scen, rm)
        match = re.search(r"SLSQP failed (\d+) of (\d+) round solves",
                          str(exc.value))
        assert match is not None
        assert int(match.group(1)) == statuses.count(False)
        assert int(match.group(2)) == len(statuses) > 0

    def test_infinite_backlog_has_no_inner_solves(self):
        scen = single_user_scenario([1.0, 0.0, 1.0], 2.0)
        rm = build_rate_model(0.5, 2.0, 2.0, 2.0)
        _, report = solve_with_data(scen, rm)
        assert report.inner_failures == 0


def _full_battery():
    # slot 1 must spend its 5 units to make room for slot 2's, which sends
    # (1/2)ln 6 nats of the 0.1 that have arrived
    scen = single_user_scenario([5.0, 5.0], 5.0, b_arr=[0.1, 0.1])
    return scen, build_rate_model(0.5, 2.0, 5.0, 5.0)


def _dormant_partner():
    # user 2 harvests nothing, so user 1's bound is its exact rate; its
    # battery forces 0.876 nats through slot 9, where 0.671 have arrived
    base = _data_scenario(0.7, 5.0, 5, high=0.2)
    scen = replace(base, users=(base.users[0], User(
        HarvestProfile(np.zeros(12), 10.0), base.users[1].data)))
    return scen, build_rate_model(0.7, 5.0, *scen.peak_powers)


_REFUSAL = re.compile(r"user (\d)'s battery forces it to send at least (\S+) "
                      r"nats through slot (\d+), and only (\S+) have arrived")


class TestForcedDepartures:
    CHANNELS = TestBlockEvaluator.CHANNELS

    @pytest.mark.parametrize("a, b", CHANNELS)
    @pytest.mark.parametrize("user", [0, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_lattice_enumeration(self, a, b, user, seed):
        # arrivals and capacity on the 0.5 lattice, so every vertex of the
        # corridor lies on it
        rng = np.random.default_rng(seed)
        e = rng.integers(0, 5, (2, 6)) * 0.5
        scen = two_user_scenario(e[0], e[1], 2.0, a, b, b1=np.ones(6),
                                 b2=np.ones(6))
        rm = build_rate_model(a, b, *scen.peak_powers)
        forced = forced_departures(scen, rm, user)
        reference = enumerate_forced_departures(scen, rm, user, 0.5)
        assert np.max(forced) > 0.0
        assert np.max(np.abs(forced - reference)) <= 1e-12

    @pytest.mark.parametrize("a, b", CHANNELS)
    def test_no_corridor_policy_sends_less(self, a, b):
        scen = _data_scenario(a, b, 6)
        rm = build_rate_model(a, b, *scen.peak_powers)
        forced = [forced_departures(scen, rm, j) for j in range(2)]
        rng = np.random.default_rng(9)
        for _ in range(50):
            rows = rng.uniform(0.0, 6.0, (2, 12)) * (rng.random((2, 12)) < 0.5)
            policy = np.array([feasible_floor(row, u.harvest, 1.0)
                               for row, u in zip(rows, scen.users)])
            nats = rm.user_rates(policy[0], policy[1])
            for j in range(2):
                assert np.all(np.cumsum(nats[j]) >= forced[j] - 1e-12)

    @pytest.mark.parametrize("make, user, slot, forced_nats", [
        (_full_battery, 1, 1, 0.5 * math.log(6.0)),
        (_dormant_partner, 1, 9, None),
    ], ids=["full-battery", "dormant-partner"])
    def test_refused_before_round_zero(self, monkeypatch, make, user, slot,
                                       forced_nats):
        scen, rm = make()
        starts = []
        monkeypatch.setattr(data_causality, "iterate_offline",
                            lambda *args, **kwargs: starts.append(args))
        with pytest.raises(InvalidInputError) as exc:
            solve_with_data(scen, rm)
        assert not starts
        match = _REFUSAL.search(str(exc.value))
        assert match is not None
        assert (int(match.group(1)), int(match.group(3))) == (user, slot)
        forced = forced_departures(scen, rm, user - 1)[slot - 1]
        arrived = np.cumsum(scen.users[user - 1].data.arrivals)[slot - 1]
        assert float(match.group(2)) == pytest.approx(forced, rel=1e-5)
        assert float(match.group(4)) == pytest.approx(arrived, rel=1e-5)
        if forced_nats is not None:
            assert forced == pytest.approx(forced_nats, rel=1e-15)

    def test_the_bound_is_met_when_the_tolerance_allows_it(self):
        # the bound is exact here: with violation_tol above its excess the
        # rounds reach it, and just below it the solver refuses
        scen, rm = _full_battery()
        excess = 0.5 * math.log(6.0) - 0.1
        _, report = solve_with_data(scen, rm, violation_tol=excess + 1e-6)
        assert report.final_violation == pytest.approx(excess, rel=1e-12)
        with pytest.raises(InvalidInputError):
            solve_with_data(scen, rm, violation_tol=excess - 1e-6)

    @pytest.mark.parametrize("a, b", CHANNELS)
    def test_matches_the_per_slot_loop(self, a, b):
        # sparse arrivals leave runs of slots with the same level ranges,
        # which share one block of nats; the values stay bit-identical
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            e = rng.uniform(0.0, 6.0, (2, n)) * (rng.random((2, n)) < 0.3)
            scen = two_user_scenario(e[0], e[1], rng.uniform(1.0, 8.0), a,
                                     b, tau=rng.uniform(0.5, 2.0),
                                     b1=np.ones(n), b2=np.ones(n),
                                     emax2=rng.uniform(1.0, 8.0))
            rm = build_rate_model(a, b, *scen.peak_powers)
            for user in (0, 1):
                assert (forced_departures(scen, rm, user).tobytes()
                        == loop_forced_departures(scen, rm, user).tobytes())

    def test_memory_stays_per_slot_at_long_horizons(self):
        # an arrival in every slot changes the level ranges in every slot;
        # the per-slot loop peaked at about 1.3 MB here, where one levels x
        # levels table would take hundreds
        n = 2000
        e = np.random.default_rng(0).uniform(0.1, 2.0, (2, n))
        scen = two_user_scenario(e[0], e[1], 5.0, 0.7, 5.0, b1=np.ones(n),
                                 b2=np.ones(n))
        rm = build_rate_model(0.7, 5.0, *scen.peak_powers)
        tracemalloc.start()
        try:
            forced_departures(scen, rm, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 1.3e6
