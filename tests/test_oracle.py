"""Brute-force search: closed-form agreement, determinism, refusal, and
grid-refinement monotonicity."""

import json
import math

import numpy as np
import pytest

from ehic import oracle
from ehic.cli import fig7_scenario, main
from ehic.errors import InvalidInputError, OracleSizeError
from ehic.iterative import iterate_offline, joint_objective
from ehic.model import feasibility_report, scenario_to_dict
from ehic.oracle import OracleOptions, brute_force
from ehic.rates import build_rate_model

from helpers import (lattice_arrivals, loop_search_batteries,
                     single_user_scenario, two_user_scenario)


def _fig7_case(step):
    return (fig7_scenario(), build_rate_model(0.9, 2.0, 10.0, 10.0),
            OracleOptions(step))


def _generated_case(a, b):
    rng = np.random.default_rng(22)
    scen = two_user_scenario(lattice_arrivals(rng, 5, 2.0, 0.1),
                             lattice_arrivals(rng, 5, 1.5, 0.1), 2.0, a, b,
                             emax2=1.5)
    return scen, build_rate_model(a, b, 2.0, 1.5), OracleOptions(0.1)


BATTERY_CASES = {
    "fig7-grid0.5": lambda: _fig7_case(0.5),
    "fig7-grid1.0": lambda: _fig7_case(1.0),
    "ab-at-most-one": lambda: _generated_case(0.5, 1.5),
    "mirrored": lambda: _generated_case(3.0, 0.6),
}


class TestBatchedBatteryDP:
    """The gathered battery DP reproduces the per-slice loop exactly."""

    @pytest.mark.parametrize("case", sorted(BATTERY_CASES))
    def test_matches_loop_reference(self, case):
        scen, rm, opts = BATTERY_CASES[case]()
        ref_policy, ref_obj = loop_search_batteries(scen, rm, opts)
        policy, obj = brute_force(scen, rm, opts)
        assert np.array_equal(policy, ref_policy)
        assert obj == ref_obj

    @pytest.mark.parametrize("block", [1, 50])
    def test_small_blocks_split_b2(self, block, monkeypatch):
        scen, rm, opts = BATTERY_CASES["fig7-grid1.0"]()
        ref_policy, ref_obj = loop_search_batteries(scen, rm, opts)
        monkeypatch.setattr(oracle, "_BLOCK", block)
        policy, obj = brute_force(scen, rm, opts)
        assert np.array_equal(policy, ref_policy)
        assert obj == ref_obj


class TestSingleUser:
    def test_two_slot_equalization(self):
        scen = single_user_scenario([2.0, 0.0], 2.0, partner_emax=0.05)
        rm = build_rate_model(50.0, 50.0, 2.0, 0.05)
        policy, obj = brute_force(scen, rm, OracleOptions(0.05))
        assert np.allclose(policy[0], [1.0, 1.0], atol=0.051)
        # within one grid step's rate change of ln 2
        assert abs(obj - math.log(2.0)) <= 0.5 * 0.05 * 2

    def test_single_slot_spend_all(self):
        scen = single_user_scenario([1.5], 2.0, partner_emax=0.05)
        rm = build_rate_model(50.0, 50.0, 2.0, 0.05)
        policy, _ = brute_force(scen, rm, OracleOptions(0.05))
        assert policy[0, 0] == pytest.approx(1.5)


class TestTwoUser:
    def test_matches_iterative_within_one_percent(self):
        scen = two_user_scenario([1.0, 0.5], [0.5, 1.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        p_it, _ = iterate_offline(scen, rm)
        _, obj_oracle = brute_force(scen, rm, OracleOptions(0.05))
        obj_it = joint_objective(p_it, scen, rm)
        assert abs(obj_it - obj_oracle) <= 0.01 * obj_oracle

    def test_returned_policy_is_feasible(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            scen = two_user_scenario(lattice_arrivals(rng, 3, 2.0),
                                     lattice_arrivals(rng, 3, 2.0), 2.0,
                                     0.9, 2.0)
            rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
            policy, _ = brute_force(scen, rm, OracleOptions(0.05))
            rep = feasibility_report(policy, scen, rm,
                                     tol=0.05 * 1.0 * scen.grid.N)
            assert rep.feasible

    def test_deterministic(self):
        scen = two_user_scenario([1.0, 1.0], [1.0, 1.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        p1, o1 = brute_force(scen, rm, OracleOptions(0.1))
        p2, o2 = brute_force(scen, rm, OracleOptions(0.1))
        assert np.array_equal(p1, p2) and o1 == o2


class TestGridRefinement:
    def test_objective_nondecreasing_with_finer_grid(self):
        scen = two_user_scenario([1.0, 0.5], [0.5, 1.0], 2.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        objs = [brute_force(scen, rm, OracleOptions(step))[1]
                for step in (0.2, 0.1, 0.05)]
        assert objs[0] <= objs[1] + 1e-12 <= objs[2] + 2e-12


class TestRefusal:
    def test_oversized_battery_dp(self):
        scen = two_user_scenario(np.ones(6), np.ones(6), 10.0, 0.9, 2.0)
        rm = build_rate_model(0.9, 2.0, 10.0, 10.0)
        with pytest.raises(OracleSizeError) as err:
            brute_force(scen, rm, OracleOptions(0.01, max_enumeration=10_000))
        assert err.value.size_estimate > 10_000

    def test_oversized_data_enumeration(self):
        scen = single_user_scenario(np.full(6, 2.0), 12.0,
                                    b_arr=np.full(6, 10.0),
                                    partner_emax=0.01)
        rm = build_rate_model(0.5, 2.0, 12.0, 0.01)
        with pytest.raises(OracleSizeError):
            brute_force(scen, rm, OracleOptions(0.01, max_enumeration=5_000))


    def test_data_rows_past_the_byte_budget(self, monkeypatch, tmp_path,
                                            capsys):
        # a budget of 100 rows: the slot is refused from the rows' count,
        # before they are gathered, and the CLI exits 2 writing nothing
        scen = single_user_scenario(np.full(4, 1.0), 2.0,
                                    b_arr=np.full(4, 10.0), partner_emax=0.05)
        rm = build_rate_model(0.5, 2.0, 2.0, 0.05)
        brute_force(scen, rm, OracleOptions(0.05))   # fits the real budget
        monkeypatch.setattr(oracle, "_SLOT_BYTES", 100 * oracle._ROW_BYTES)
        with pytest.raises(OracleSizeError, match="MiB of states") as err:
            brute_force(scen, rm, OracleOptions(0.05))
        assert err.value.size_estimate > 100
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scenario_to_dict(scen)))
        capsys.readouterr()
        assert main(["oracle", "--scenario", str(path), "--grid", "0.05",
                     "--out", str(tmp_path / "x")]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "OracleSizeError"
        assert not (tmp_path / "x").exists()


class TestDataMode:
    def test_data_constraint_binds(self):
        # tight early data cap forces the oracle away from pure equalization
        scen = single_user_scenario([2.0, 0.0], 2.0, b_arr=[0.1, 5.0],
                                    partner_emax=0.05)
        rm = build_rate_model(50.0, 50.0, 2.0, 0.05)
        policy, _ = brute_force(scen, rm, OracleOptions(0.05))
        assert 0.5 * np.log1p(policy[0, 0]) <= 0.1 + 1e-12
        # without the cap the split is even, with it slot 2 dominates
        assert policy[0, 1] > policy[0, 0]

    def test_infinite_user_not_constrained(self):
        scen = two_user_scenario([1.0, 0.0], [1.0, 0.0], 2.0, 0.9, 2.0,
                                 b1=[0.05, 5.0])
        rm = build_rate_model(0.9, 2.0, 2.0, 2.0)
        policy, _ = brute_force(scen, rm, OracleOptions(0.05))
        r1, _ = rm.user_rates(policy[0], policy[1])
        assert np.cumsum(r1)[0] <= 0.05 + 1e-12


@pytest.mark.parametrize("kwargs", [
    {"power_grid_step": float("nan")}, {"power_grid_step": float("inf")},
    {"power_grid_step": 0.0}, {"power_grid_step": -0.05},
    {"max_enumeration": 0}, {"max_enumeration": -3},
    {"max_enumeration": float("nan")},
], ids=["step-nan", "step-inf", "step-zero", "step-negative", "cap-zero",
        "cap-negative", "cap-nan"])
def test_options_reject_unusable_settings(kwargs):
    with pytest.raises(InvalidInputError):
        OracleOptions(**kwargs)
