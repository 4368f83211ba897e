"""Penalty-method data-causality solver: violation accounting, contradiction
resolution and agreement with the exhaustive search."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ehic.cli import gen_scenario
from ehic.data_causality import (_block_fun_and_grad, resolve_contradictions,
                                 solve_with_data, violation)
from ehic.errors import InvalidInputError
from ehic.iterative import iterate_offline, joint_objective
from ehic.model import DataProfile, User, feasibility_report
from ehic.oracle import OracleOptions, brute_force
from ehic.rates import build_rate_model

from helpers import single_user_scenario, two_user_scenario


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
        # the squared hinge is C1, so the pump offset in the block gradient
        # must not jump as the cumulative departures cross the data cap
        scen = single_user_scenario([2.0, 0.0], 3.0, b_arr=[0.4, 5.0],
                                    a=0.3, partner_emax=0.05)
        rm = build_rate_model(0.3, 2.0, 3.0, 3.0)
        policy = np.zeros((2, 2))
        _, grad = _block_fun_and_grad(scen, rm, policy, 0, 10.0)
        # p with tau*r1(p) == 0.4 exactly: the violation switches on here
        p_star = np.exp(2 * 0.4) - 1.0
        eps = 1e-7
        g_lo = grad(np.array([p_star - eps, 0.0]))
        g_hi = grad(np.array([p_star + eps, 0.0]))
        assert np.max(np.abs(g_hi - g_lo)) <= 1e-4

    def test_penalized_objective_monotone_in_coefficient(self):
        scen = single_user_scenario([2.0, 0.0], 3.0, b_arr=[0.1, 5.0],
                                    a=0.3, partner_emax=0.05)
        rm = build_rate_model(0.3, 2.0, 3.0, 3.0)
        policy, _ = iterate_offline(scen, rm)
        c = violation(policy, scen, rm)
        base = joint_objective(policy, scen, rm)
        values = [base - eps * float(np.sum(c * c)) for eps in (1, 4, 16)]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))


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
        policy = np.full((2, 2), 0.5)
        for x in (np.array([0.5, 0.5]), np.array([0.9, 0.1])):
            _, g_two = _block_fun_and_grad(scen_two, rm, policy, 0, 3.0)
            _, g_one = _block_fun_and_grad(scen_one, rm, policy, 0, 3.0)
            assert np.allclose(g_two(x), g_one(x), atol=1e-14)

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
