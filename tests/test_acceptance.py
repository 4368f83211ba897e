"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS line (visible with ``pytest -s`` or on
failure) and pins its tolerance explicitly.  Seeds are frozen; reruns are
deterministic.  Budget guidance per criterion: the slowest (the seeded batch
comparison, criterion 10) runs in well under ten minutes on desk hardware.
"""

import math

import numpy as np
import pytest

from ehic.cli import (ExperimentConfig, _rate_model_for, fig7_scenario,
                      run_experiment)
from ehic.data_causality import solve_with_data
from ehic.iterative import build_subproblem, iterate_offline, joint_objective
from ehic.model import HarvestProfile, TimeGrid
from ehic.online import ArrivalDistribution, StateGrid, rollout_table, \
    value_iteration
from ehic.oracle import OracleOptions, brute_force
from ehic.rates import Region, build_rate_model, normalize_channel
from ehic.single_user import (InterferedUtilities, PiecewiseMinUtilities,
                              ScaledLogUtilities, solve_single_user,
                              verify_kkt)

from helpers import (_iterate_from, _zero_start, lattice_arrivals,
                     single_user_scenario, two_user_scenario)


def _ok(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def region_ab_runs():
    """25 seeded two-user instances shared by criteria 3 and 5."""
    rng = np.random.default_rng(202)
    runs = []
    for k in range(25):
        n = int(rng.integers(2, 4))
        emax = 2.0
        e1 = lattice_arrivals(rng, n, emax)
        e2 = lattice_arrivals(rng, n, emax)
        if k % 2 == 0:
            a = float(rng.uniform(0.2, 1.0))
            b = float(rng.uniform(1.0, 3.0))
            if a * b <= 1.0:
                b = 1.2 / a
        else:
            a = float(rng.uniform(0.2, 0.9))
            b = float(rng.uniform(1.0, min(3.0, 0.99 / a)))
        scen = two_user_scenario(e1, e2, emax, a, b)
        rm = build_rate_model(a, b, emax, emax)
        policy, report = iterate_offline(scen, rm)
        _, obj_oracle = brute_force(scen, rm, OracleOptions(0.05))
        runs.append((scen, rm, policy, report, obj_oracle))
    return runs


def test_c01_channel_normalization():
    norm = normalize_channel(h11_db=-100.0, h22_db=-100.0, h12_db=-101.55,
                             h21_db=-93.01, noise_psd=1e-19, bandwidth=1e6)
    assert norm.params.a == pytest.approx(0.70, abs=0.005)
    assert norm.params.b == pytest.approx(5.00, abs=0.05)
    _ok("c01 channel normalization",
        f"a={norm.params.a:.4f} b={norm.params.b:.4f}")


def test_c02_single_user_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst_deficit = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        emax = float(rng.integers(10, 41)) * 0.05
        e = np.minimum(lattice_arrivals(rng, n, emax), emax)
        scen = single_user_scenario(e, emax, partner_emax=0.05)
        rm = build_rate_model(50.0, 50.0, emax, 0.05)
        assert rm.region is Region.VERY_STRONG
        p, _ = solve_single_user(ScaledLogUtilities(np.ones(n)),
                                 scen.users[0].harvest, scen.grid)
        obj = float(np.sum(0.5 * np.log1p(p)))
        _, obj_oracle = brute_force(scen, rm, OracleOptions(0.05))
        slack = 2.0 * n * 1.0 * 0.5 * 0.05
        assert obj >= obj_oracle - 0.01 * abs(obj_oracle) - 1e-12
        assert obj <= obj_oracle + slack
        worst_deficit = max(worst_deficit, obj_oracle - obj)
    _ok("c02 single-user oracle equivalence (50 instances)",
        f"worst oracle excess {worst_deficit:.2e}")


def test_c03_two_user_oracle_equivalence(region_ab_runs):
    worst = 0.0
    for scen, rm, policy, _report, obj_oracle in region_ab_runs:
        obj = joint_objective(policy, scen, rm)
        rel = abs(obj - obj_oracle) / max(abs(obj_oracle), 1e-12)
        assert rel <= 0.01
        worst = max(worst, rel)
    _ok("c03 two-user oracle equivalence (25 instances)",
        f"worst gap {worst:.4%}")


def test_c04_kkt_certification():
    rng = np.random.default_rng(303)
    worst_s = worst_c = 0.0
    for k in range(100):
        n = int(rng.integers(2, 21))
        emax = float(rng.choice([1.0, 2.0, 5.0, 10.0]))
        e = np.minimum(rng.uniform(0, emax, n), emax)
        harvest = HarvestProfile(e, emax)
        grid = TimeGrid(n, 1.0)
        fam = k % 3
        if fam == 0:
            utils = ScaledLogUtilities(rng.uniform(0.3, 2.0, n))
        elif fam == 1:
            utils = InterferedUtilities(rng.uniform(0.1, 1.0),
                                        rng.uniform(0, 3, n))
        else:
            a = float(rng.uniform(0.1, 0.9))
            b = float(rng.uniform(1.0, 0.99 / a))
            utils = PiecewiseMinUtilities(a, b, (b - 1) / (1 - a * b),
                                          rng.uniform(0, 3, n))
        _, cert = solve_single_user(utils, harvest, grid)
        assert cert.stationarity_residual <= 1e-6
        assert cert.complementarity_residual <= 1e-6
        worst_s = max(worst_s, cert.stationarity_residual)
        worst_c = max(worst_c, cert.complementarity_residual)
    _ok("c04 KKT certification (100 instances)",
        f"worst stationarity {worst_s:.2e}, complementarity {worst_c:.2e}")


def test_c05_monotone_ascent(region_ab_runs):
    for _scen, _rm, _policy, report, _obj in region_ab_runs:
        trace = np.asarray(report.objective_trace)
        assert np.all(np.diff(trace) >= -1e-12)
    _ok("c05 monotone half-sweep ascent (all criterion-3 runs)")


def test_c06_deterministic_20slot_instance():
    scen = fig7_scenario()
    rm = _rate_model_for(scen)
    policy, report = iterate_offline(scen, rm)
    assert report.converged
    p1, p2 = policy
    assert p1[0] <= 0.01 * p1.max()
    assert p1[1] <= 0.01 * p1.max()
    assert np.mean(p2[18:]) < np.mean(p2)
    _ok("c06 deterministic 20-slot reproduction",
        f"p1[0:2]={p1[:2]}, tail mean {np.mean(p2[18:]):.3f} "
        f"< overall {np.mean(p2):.3f}")


def test_c07_blocked_harvest_exactness():
    emax = 5.0
    scen = single_user_scenario([emax, emax], emax, b_arr=[0.0, 100.0])
    rm = build_rate_model(0.5, 2.0, emax, emax)
    policy, report = solve_with_data(scen, rm)
    assert np.array_equal(policy[0], np.array([0.0, emax]))
    assert report.unusable_energy[0].tolist() == [emax, 0.0]
    _ok("c07 blocked-harvest contradiction", "policy [0, Emax], slot-1 "
        "harvest reported unusable")


def test_c08_penalty_convergence_vs_oracle():
    rng = np.random.default_rng(2024)
    worst_gap = worst_viol = 0.0
    engaged = 0
    for _ in range(15):      # single-user instances, N in 3..5
        n = int(rng.integers(3, 6))
        e = rng.integers(0, 21, n) * 0.02
        b_arr = np.round(rng.uniform(0.01, 0.08, n), 3)
        b_arr[-1] = 2.0
        a = float(rng.uniform(0.2, 1.0))
        b = float(rng.uniform(1.0, 3.0))
        if a * b <= 1.0:
            b = 1.1 / a
        scen = single_user_scenario(e, 2.0, b_arr=b_arr, a=a, b=b,
                                    partner_emax=0.02)
        rm = build_rate_model(a, b, 2.0, 0.02)
        policy, report = solve_with_data(scen, rm)
        obj = joint_objective(policy, scen, rm)
        _, obj_oracle = brute_force(scen, rm,
                                    OracleOptions(0.02, 30_000_000))
        assert report.final_violation <= 1e-4
        rel = abs(obj - obj_oracle) / max(obj_oracle, 1e-12)
        assert rel <= 0.01
        worst_gap = max(worst_gap, rel)
        worst_viol = max(worst_viol, report.final_violation)
        engaged += report.rounds_used > 0
    for _ in range(10):      # two-user instances, N = 2, both queues finite
        e1 = rng.integers(0, 26, 2) * 0.01
        e2 = rng.integers(0, 26, 2) * 0.01
        b1 = np.round(rng.uniform(0.01, 0.06, 2), 3)
        b2 = np.round(rng.uniform(0.01, 0.06, 2), 3)
        b1[-1] = b2[-1] = 2.0
        a = float(rng.uniform(0.2, 1.0))
        b = float(rng.uniform(1.0, 3.0))
        if a * b <= 1.0:
            b = 1.1 / a
        scen = two_user_scenario(e1, e2, 2.0, a, b, b1=b1, b2=b2)
        rm = build_rate_model(a, b, 2.0, 2.0)
        policy, report = solve_with_data(scen, rm)
        obj = joint_objective(policy, scen, rm)
        _, obj_oracle = brute_force(scen, rm,
                                    OracleOptions(0.01, 30_000_000))
        assert report.final_violation <= 1e-4
        rel = abs(obj - obj_oracle) / max(obj_oracle, 1e-12)
        assert rel <= 0.01
        worst_gap = max(worst_gap, rel)
        worst_viol = max(worst_viol, report.final_violation)
        engaged += report.rounds_used > 0
    assert engaged >= 15     # the family genuinely exercises the penalty
    _ok("c08 penalty convergence (25 instances)",
        f"worst gap {worst_gap:.3%}, worst violation {worst_viol:.2e}")


def test_c09_very_strong_decoupling():
    # the paper's claim on the cold alternation: from zeros, the second
    # sweep moves nothing.  The default path starts from the joint start,
    # which must already be each user's single-user solution
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        emax = 2.0
        scen = two_user_scenario(lattice_arrivals(rng, n, emax),
                                 lattice_arrivals(rng, n, emax), emax,
                                 50.0, 50.0)
        rm = build_rate_model(50.0, 50.0, emax, emax)
        assert rm.region is Region.VERY_STRONG
        _, cold = _iterate_from(_zero_start, scen, rm)
        assert cold.displacement_trace[1] <= 1e-9
        worst = max(worst, cold.displacement_trace[1])
        policy, report = iterate_offline(scen, rm)
        assert report.converged
        for j in range(2):
            harvest = scen.users[j].harvest
            utils = build_subproblem(scen, rm, j, policy[1 - j])
            cert = verify_kkt(policy[j], utils, harvest, scen.grid)
            assert cert.stationarity_residual <= 1e-7
            assert cert.complementarity_residual <= 1e-7
            row, _ = solve_single_user(ScaledLogUtilities(np.ones(n)),
                                       harvest, scen.grid)
            assert np.max(np.abs(policy[j] - row)) <= 1e-7
    _ok("c09 very-strong second sweep inert (10 instances)",
        f"worst displacement {worst:.2e}")


def test_c10_seeded_batch_ordering(tmp_path):
    summary = run_experiment(ExperimentConfig(
        solver="preset-fig8", out_dir=str(tmp_path), seed=0, tol=1e-7,
        max_sweeps=200, preset_count=100))
    means = summary["mean_total_bits"]
    mean_iter = means["bits_iterative"]
    mean_dist = means["bits_distributed"]
    mean_naive = means["bits_naive"]
    assert mean_iter >= mean_dist >= mean_naive
    assert mean_dist >= 0.95 * mean_iter
    _ok("c10 batch ordering over 100 seeds",
        f"iterative {mean_iter:.3f} >= distributed {mean_dist:.3f} "
        f">= naive {mean_naive:.3f}; ratio {mean_dist / mean_iter:.4f}")


def test_c11_online_dp_consistency():
    emax = 2.0
    scen = two_user_scenario([1.0, 0.0, 0.6, 0.2], [2.0, 0.0, 0.4, 0.0],
                             emax, 0.9, 2.0)
    rm = build_rate_model(0.9, 2.0, emax, emax)
    de = emax / 40
    grid = StateGrid(np.linspace(0, emax, 41), np.linspace(0, emax, 41))
    result = value_iteration(ArrivalDistribution.deterministic(scen), rm,
                             grid, tau=1.0)
    _, dp_total = rollout_table(result, scen, rm)
    p_off, _ = iterate_offline(scen, rm)
    off = joint_objective(p_off, scen, rm)
    bound = 2.0 * scen.grid.N * 1.0 * 0.5 * de
    assert abs(dp_total - off) <= bound + 1e-9
    _ok("c11 online DP consistency",
        f"|{dp_total:.4f} - {off:.4f}| <= {bound:.4f}")


def test_c12_rate_property_suites():
    models = [
        build_rate_model(0.9, 2.0, 10.0, 10.0),
        build_rate_model(0.5, 1.5, 10.0, 10.0),
        build_rate_model(50.0, 50.0, 2.0, 2.0),
    ]
    rng = np.random.default_rng(505)
    step = 1e-6
    for model in models:
        assert model.sum_rate(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        grid = np.arange(0.0, 10.0 + 1e-9, 0.1)
        g1, g2 = np.meshgrid(grid, grid, indexing="ij")
        r = model.sum_rate(g1, g2)
        assert np.all(np.diff(r, axis=0) >= -1e-12)
        assert np.all(np.diff(r, axis=1) >= -1e-12)
        x = rng.uniform(0, 10, (1000, 2))
        y = rng.uniform(0, 10, (1000, 2))
        mid = model.sum_rate(0.5 * (x[:, 0] + y[:, 0]),
                             0.5 * (x[:, 1] + y[:, 1]))
        avg = 0.5 * (model.sum_rate(x[:, 0], x[:, 1])
                     + model.sum_rate(y[:, 0], y[:, 1]))
        assert np.min(mid - avg) >= -1e-12
        pts = rng.uniform(0.1, 10.0, (1000, 2))
        if model.region is Region.ASYMMETRIC_AB_AT_MOST_ONE:
            pts = pts[np.abs(pts[:, 1] - model.p_c) > 1e-3]
        d1, d2 = model.grad(pts[:, 0], pts[:, 1])
        fd1 = (model.sum_rate(pts[:, 0] + step, pts[:, 1])
               - model.sum_rate(pts[:, 0] - step, pts[:, 1])) / (2 * step)
        fd2 = (model.sum_rate(pts[:, 0], pts[:, 1] + step)
               - model.sum_rate(pts[:, 0], pts[:, 1] - step)) / (2 * step)
        assert np.max(np.abs(d1 - fd1)) <= 1e-6
        assert np.max(np.abs(d2 - fd2)) <= 1e-6
        r1, r2 = model.user_rates(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(r1 + r2 - model.sum_rate(pts[:, 0], pts[:, 1]))) \
            <= 1e-12
    # min-form branch agreement at the threshold power
    model_b = models[1]
    for p1 in np.linspace(0.0, 10.0, 100):
        e1 = 0.5 * math.log1p(p1 / (1.0 + 0.5 * model_b.p_c)) \
            + 0.5 * math.log1p(model_b.p_c)
        e2 = 0.5 * math.log1p(1.5 * p1 + model_b.p_c)
        assert abs(e1 - e2) <= 1e-10
    _ok("c12 rate kernel property suites (1000 points per region)")
