"""Penalty-method data-causality solver: violation accounting, contradiction
resolution and agreement with the exhaustive search."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ehic import data_causality
from ehic.cli import gen_scenario
from ehic.data_causality import (_joint_fun_and_grad, _penalized_objective,
                                 resolve_contradictions, solve_with_data,
                                 violation)
from ehic.errors import ConvergenceError, InvalidInputError
from ehic.iterative import feasible_floor, iterate_offline, joint_objective
from ehic.model import DataProfile, HarvestProfile, User, feasibility_report
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
        # the squared hinge is C1, so the pump offset in the gradient must
        # not jump as the cumulative departures cross the data cap
        scen = single_user_scenario([2.0, 0.0], 3.0, b_arr=[0.4, 5.0],
                                    a=0.3, partner_emax=0.05)
        rm = build_rate_model(0.3, 2.0, 3.0, 3.0)
        _, grad = _joint_fun_and_grad(scen, rm, 10.0)
        # p with tau*r1(p) == 0.4 exactly: the violation switches on here
        p_star = np.exp(2 * 0.4) - 1.0
        eps = 1e-7
        g_lo = grad(np.array([p_star - eps, 0.0, 0.0, 0.0]))
        g_hi = grad(np.array([p_star + eps, 0.0, 0.0, 0.0]))
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
        for x in (np.array([0.5, 0.5]), np.array([0.9, 0.1])):
            x = np.concatenate([x, [0.5, 0.5]])
            _, g_two = _joint_fun_and_grad(scen_two, rm, 3.0)
            _, g_one = _joint_fun_and_grad(scen_one, rm, 3.0)
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


class TestBlockEvaluator:
    """The joint evaluator, read one user's block of x = (p_1, p_2) at a
    time; the two cases of a channel cover all 2N coordinates."""
    # a*b > 1, min-form (p_c = 2 at a=0.5, b=1.5), very strong, and both
    # asymmetric families mirrored
    CHANNELS = [(0.7, 5.0), (0.5, 1.5), (20.0, 30.0), (5.0, 0.7), (1.5, 0.5)]

    @pytest.mark.parametrize("a, b", CHANNELS)
    @pytest.mark.parametrize("user", [0, 1])
    def test_value_is_the_penalized_objective(self, a, b, user):
        scen = _data_scenario(a, b, 3)
        rm = build_rate_model(a, b, *scen.peak_powers)
        rng = np.random.default_rng(7)
        policy = rng.uniform(0.0, 3.0, (2, 12))
        fun, _ = _joint_fun_and_grad(scen, rm, 16.0)
        # points that move only this user's block, then both blocks
        points = []
        for _ in range(4):
            x = policy.copy()
            x[user] = rng.uniform(-1.0, 3.0, 12)
            points.append(x.ravel())
        points += [rng.uniform(-1.0, 3.0, 24) for _ in range(2)]
        # repeated and interleaved points read the kept evaluation
        for x in points + points[::-1]:
            floored = np.maximum(x, 0.0).reshape(2, 12)
            assert -fun(x) == _penalized_objective(floored, scen, rm, 16.0)

    @pytest.mark.parametrize("a, b", CHANNELS)
    @pytest.mark.parametrize("user", [0, 1])
    def test_gradient_matches_central_differences(self, a, b, user):
        # data on [0, 0.2] leave both users' penalties active, so this
        # user's coordinates carry its own and the cross-user pump terms
        scen = _data_scenario(a, b, 4, high=0.2)
        rm = build_rate_model(a, b, *scen.peak_powers)
        rng = np.random.default_rng(8)
        fun, grad = _joint_fun_and_grad(scen, rm, 16.0)
        h = 1e-6
        block = slice(12 * user, 12 * (user + 1))
        for _ in range(3):
            # powers in [0.1, 1.8] keep every slot off the min-form kink at 2
            x = rng.uniform(0.1, 1.8, 24)
            assert np.all(np.any(violation(x.reshape(2, 12), scen, rm) > 0.0,
                                 axis=1))
            g = grad(x)
            fd = np.array([(fun(x + h * e) - fun(x - h * e)) / (2.0 * h)
                           for e in np.eye(24)[block]])
            assert (np.max(np.abs(g[block] - fd))
                    <= 1e-6 * np.max(np.abs(g[block])))


class TestPenaltyRounds:
    @staticmethod
    def _recording(monkeypatch):
        """Record every round's (policy in, coefficient, policy out)."""
        rounds = []
        real = data_causality._penalty_round

        def record(scen, rm, policy, eps, corridor):
            out, success = real(scen, rm, policy, eps, corridor)
            rounds.append((policy, eps, out))
            return out, success

        monkeypatch.setattr(data_causality, "_penalty_round", record)
        return rounds

    @staticmethod
    def _instances():
        late, late_rm = TestInnerStatus._late_data()
        # no feasible policy: the rounds run to the cap, many of them with
        # a failed SLSQP status
        stuck = single_user_scenario([5.0, 5.0], 5.0, b_arr=[0.1, 0.1])
        out = [(late, late_rm), (stuck, build_rate_model(0.5, 2.0, 5.0, 5.0))]
        for a, b in ((0.7, 5.0), (0.5, 1.5)):
            scen = _data_scenario(a, b, 5, high=0.2)
            out.append((scen, build_rate_model(a, b, *scen.peak_powers)))
        return out

    def test_zero_harvest_user_keeps_a_zero_row(self, monkeypatch):
        # user 2 harvests nothing: its row S_N <= 0 holds SLSQP's powers
        # at 0 and the corridor floor makes them exact zeros; its data are
        # finite in the second instance, so its penalty is live there
        base = _data_scenario(0.7, 5.0, 5, high=0.2)
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
            for _, _, out in rounds:
                assert np.array_equal(out[1], np.zeros(scen.grid.N))

    def test_a_round_never_lowers_the_penalized_objective(self, monkeypatch):
        for scen, rm in self._instances():
            rounds = self._recording(monkeypatch)
            try:
                solve_with_data(scen, rm)
            except ConvergenceError:
                pass
            assert rounds
            for before, eps, after in rounds:
                assert (_penalized_objective(after, scen, rm, eps)
                        >= _penalized_objective(before, scen, rm, eps))

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
        for before, eps, after in rounds:
            assert (_penalized_objective(spent, scen, rm, eps)
                    < _penalized_objective(before, scen, rm, eps))
            assert after is before


class TestInnerStatus:
    @staticmethod
    def _late_data():
        # test_penalty_rounds_engage_on_late_data's instance
        scen = single_user_scenario([2.0, 0.0, 0.0], 3.0,
                                    b_arr=[0.1, 0.1, 5.0],
                                    a=0.3, partner_emax=0.05)
        return scen, build_rate_model(0.3, 2.0, 3.0, 3.0)

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
        # slot 1 must spend its 5 units to make room for slot 2's, which
        # sends (1/2)ln 6 nats of the 0.1 that have arrived
        scen = single_user_scenario([5.0, 5.0], 5.0, b_arr=[0.1, 0.1])
        rm = build_rate_model(0.5, 2.0, 5.0, 5.0)
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
