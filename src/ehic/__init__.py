"""Throughput-optimal power scheduling for two energy-harvesting
transmitters sharing a Gaussian interference channel.

The central objects are a ``Scenario`` (time grid, per-user harvest/data
profiles, channel) and a ``RateModel`` (the closed-form sum rate of the
channel's region: a*b > 1, min-form a*b <= 1 or very strong, the regions
with a known sum capacity; any other channel is rejected).
``iterate_offline`` computes the optimal offline schedule by alternating
single-user directional water-filling, started in every region from a joint
primal-dual interior-point solution finished by Newton steps on its active set;
``solve_with_data`` extends it to per-slot data arrivals by
augmented-Lagrangian (method of multipliers) rounds.  The solvers take three
settings in all: ``max_sweeps``, the KKT tolerance ``tol`` and the data
``violation_tol``.  ``online`` hosts the DP, naive and distributed baselines
and ``oracle`` a brute-force ground truth.
"""

from .errors import (ConvergenceError, InfeasiblePolicyError,
                     InvalidInputError, InvalidUtilityError, OracleSizeError,
                     ShapeError)
from .model import (DataProfile, FeasibilityReport, HarvestProfile, Scenario,
                    TimeGrid, User, cumulative_departure, feasibility_report,
                    scenario_from_dict, scenario_to_dict, validate_scenario)
from .rates import (ChannelParams, RateModel, Region, RegionTag,
                    build_rate_model, classify_region, normalize_channel)
from .single_user import (InterferedUtilities, KKTCertificate,
                          PiecewiseMinUtilities, ScaledLogUtilities,
                          SlotUtilities, solve_single_user, verify_kkt)
from .iterative import (SolveReport, build_subproblem, iterate_offline,
                        iterate_offline_many, joint_objective)
from .data_causality import resolve_contradictions, solve_with_data, violation
from .online import (ArrivalDistribution, DPResult, StateGrid,
                     distributed_policy, naive_policy, rollout_table,
                     value_iteration)
from .oracle import OracleOptions, brute_force

__version__ = "0.1.0"

__all__ = [
    "ArrivalDistribution", "ChannelParams", "ConvergenceError",
    "DataProfile", "DPResult", "FeasibilityReport", "HarvestProfile",
    "InfeasiblePolicyError", "InterferedUtilities", "InvalidInputError",
    "InvalidUtilityError", "KKTCertificate", "OracleOptions",
    "OracleSizeError", "PiecewiseMinUtilities", "RateModel", "Region",
    "RegionTag", "ScaledLogUtilities", "Scenario", "ShapeError",
    "SlotUtilities", "SolveReport", "StateGrid", "TimeGrid", "User",
    "brute_force", "build_rate_model", "build_subproblem", "classify_region",
    "cumulative_departure", "distributed_policy", "feasibility_report",
    "iterate_offline", "iterate_offline_many", "joint_objective",
    "naive_policy", "normalize_channel", "resolve_contradictions",
    "rollout_table", "scenario_from_dict", "scenario_to_dict",
    "solve_single_user", "solve_with_data", "validate_scenario",
    "value_iteration", "verify_kkt", "violation",
]
