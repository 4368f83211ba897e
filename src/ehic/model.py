"""Problem instances: time grid, per-user profiles, validation, feasibility.

A scenario bundles a slotted time grid, two users (each with an energy
harvest profile and a data-arrival profile or an infinite backlog), and the
normalized channel.  Three linear constraint families govern any power
policy p[user][slot]:

* energy causality: cumulative consumed energy never exceeds cumulative
  harvested energy,
* battery capacity: after each slot there must be room for the next harvest
  (equivalently, cumulative consumption is bounded below),
* data causality: cumulative departed bits never exceed cumulative arrivals
  (skipped for infinite-backlog users).

All energies/powers are in normalized units and all rates in nats; physical
unit conversion lives in ``rates.normalize_channel`` and the CLI.  Types are
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import rates as _rates
from .errors import InvalidInputError, ShapeError


def _frozen_array(values, name):
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D vector")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Slot count N and slot duration tau (seconds)."""

    N: int
    tau: float

    def __post_init__(self):
        # int() and isfinite() raise on NaN, inf and non-numbers, and a NaN
        # tau would pass a plain sign check (nan <= 0 is False)
        try:
            n_ok = int(self.N) == self.N and self.N >= 1
        except (TypeError, ValueError, OverflowError):
            n_ok = False
        if not n_ok:
            raise InvalidInputError("slot count must be a positive integer")
        try:
            tau_ok = math.isfinite(self.tau) and self.tau > 0
        except TypeError:
            tau_ok = False
        if not tau_ok:
            raise InvalidInputError("slot duration must be positive and finite")


@dataclass(frozen=True)
class HarvestProfile:
    """Per-slot energy arrivals and the battery capacity, normalized units."""

    arrivals: np.ndarray
    capacity: float

    def __post_init__(self):
        object.__setattr__(self, "arrivals",
                           _frozen_array(self.arrivals, "energy arrivals"))
        if self.capacity <= 0:
            raise InvalidInputError("battery capacity must be positive")
        if np.any(self.arrivals < 0):
            raise InvalidInputError("energy arrivals must be nonnegative")


@dataclass(frozen=True)
class DataProfile:
    """Per-slot data arrivals (rate units x time), or an infinite backlog."""

    arrivals: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals",
                               _frozen_array(self.arrivals, "data arrivals"))
            if np.any(self.arrivals < 0):
                raise InvalidInputError("data arrivals must be nonnegative")

    @classmethod
    def infinite(cls) -> "DataProfile":
        return cls(arrivals=None)

    @property
    def is_infinite(self) -> bool:
        return self.arrivals is None


@dataclass(frozen=True)
class User:
    harvest: HarvestProfile
    data: DataProfile


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: grid, two users and the normalized channel."""

    grid: TimeGrid
    users: tuple
    channel: _rates.ChannelParams

    def __post_init__(self):
        if len(self.users) != 2:
            raise ShapeError("a scenario has exactly two users")
        object.__setattr__(self, "users", tuple(self.users))

    @property
    def peak_powers(self) -> tuple:
        """Largest single-slot powers (battery capacity over tau) per user."""
        return tuple(u.harvest.capacity / self.grid.tau for u in self.users)

    def harvest_matrix(self) -> np.ndarray:
        return np.vstack([u.harvest.arrivals for u in self.users])


def validate_scenario(raw: Scenario) -> Scenario:
    """Check shapes and finiteness, truncate harvests at the battery capacity.

    An arrival larger than the battery is lost on arrival, so it is clipped
    here once; the operation is idempotent.
    """
    n = raw.grid.N
    # NaN passes the constructors' sign checks (nan < 0 is False), and inf
    # breaks every solver; TimeGrid already rejects a non-finite tau
    if not (np.isfinite(raw.channel.a) and np.isfinite(raw.channel.b)):
        raise InvalidInputError("cross gains must be finite")
    users = []
    for j, user in enumerate(raw.users):
        e = user.harvest.arrivals
        if e.shape[0] != n:
            raise ShapeError(
                f"user {j + 1}: {e.shape[0]} energy arrivals for {n} slots")
        if not user.data.is_infinite and user.data.arrivals.shape[0] != n:
            raise ShapeError(
                f"user {j + 1}: {user.data.arrivals.shape[0]} data arrivals "
                f"for {n} slots")
        if not (np.all(np.isfinite(e))
                and np.isfinite(user.harvest.capacity)):
            raise InvalidInputError(
                f"user {j + 1}: energy arrivals and capacity must be finite")
        if not (user.data.is_infinite
                or np.all(np.isfinite(user.data.arrivals))):
            raise InvalidInputError(
                f"user {j + 1}: data arrivals must be finite")
        clipped = np.minimum(e, user.harvest.capacity)
        users.append(User(HarvestProfile(clipped, user.harvest.capacity),
                          user.data))
    return replace(raw, users=tuple(users))


def as_policy(policy, n_slots: int) -> np.ndarray:
    """Coerce to a (2, N) nonnegative power matrix."""
    p = np.asarray(policy, dtype=float)
    if p.ndim != 2 or p.shape[1] != n_slots or p.shape[0] != 2:
        raise ShapeError(f"policy must have shape (2, {n_slots}), got {p.shape}")
    return p


@dataclass(frozen=True)
class WorstViolation:
    magnitude: float
    user: Optional[int]
    slot: Optional[int]


@dataclass(frozen=True)
class FeasibilityReport:
    """Worst violation of each constraint family and the overall verdict."""

    energy_causality: WorstViolation
    battery_capacity: WorstViolation
    data_causality: WorstViolation
    tol: float
    feasible: bool


def _worst(violations: np.ndarray) -> WorstViolation:
    # violations: (2, N) array of nonnegative magnitudes
    if violations.size == 0 or np.max(violations) <= 0.0:
        return WorstViolation(0.0, None, None)
    user, slot = np.unravel_index(np.argmax(violations), violations.shape)
    return WorstViolation(float(violations[user, slot]), int(user), int(slot))


def energy_bounds(harvest: HarvestProfile, tau: float):
    """Corridor for cumulative consumption S_n: lower L (battery) and upper U.

    U_n is the cumulative harvest through slot n.  L_n keeps room for the
    next arrival (capacity constraint); there is no lower bound after the
    final slot, so L[-1] = 0.  L_n is clipped to U_n: where slot n+1's
    arrival fills the battery, cum_e[n+1] - capacity can round an ulp above
    cum_e[n], which would leave an empty corridor in floating point.
    """
    cum_e = np.cumsum(harvest.arrivals)
    upper = cum_e.copy()
    lower = np.zeros_like(cum_e)
    if cum_e.shape[0] > 1:
        lower[:-1] = np.minimum(np.maximum(0.0, cum_e[1:] - harvest.capacity),
                                upper[:-1])
    return lower, upper


def open_rows(lower, upper):
    """Masks of the corridor rows of ``energy_bounds`` that p >= 0 leaves
    open: ``(upper_rows, lower_rows)``, one entry per slot.

    S_n <= U_n is kept where U_{n+1} > U_n, and at n = N; where U_{n+1} =
    U_n it follows from S_n <= S_{n+1} <= U_{n+1}.  S_n >= L_n is kept
    where L_n > 0 and L_n > L_{n-1}, before the last slot: L_n = 0 holds
    for any S >= 0, and where L_n <= L_{n-1} the rows before n hold a kept
    k < n with L_k >= L_n (or L_n = 0), so S_n >= S_k >= L_k >= L_n.
    Dropping the others leaves the feasible set of p >= 0 unchanged.
    """
    upper_rows = np.ones(upper.shape, dtype=bool)
    upper_rows[:-1] = upper[:-1] < upper[1:]
    lower_rows = np.zeros(lower.shape, dtype=bool)
    lower_rows[:-1] = lower[:-1] > np.concatenate([[0.0], lower[:-2]])
    return upper_rows, lower_rows


def violation(policy, scenario: Scenario,
              rate_model: _rates.RateModel) -> np.ndarray:
    """Per-user, per-slot cumulative data-causality violation (2, N).

    Zero exactly where the data constraint holds; infinite-backlog users get
    an all-zero row.
    """
    p = np.asarray(policy, dtype=float).reshape(2, scenario.grid.N)
    tau = scenario.grid.tau
    r1, r2 = rate_model.user_rates(p[0], p[1])
    bits = np.vstack([np.atleast_1d(r1), np.atleast_1d(r2)]) * tau
    out = np.zeros((2, scenario.grid.N))
    for j, user in enumerate(scenario.users):
        if user.data.is_infinite:
            continue
        out[j] = np.maximum(0.0,
                            np.cumsum(bits[j]) - np.cumsum(user.data.arrivals))
    return out


def feasibility_report(policy, scenario: Scenario, rate_model,
                       tol: float = 1e-9) -> FeasibilityReport:
    """Evaluate all three constraint families for a candidate policy."""
    n = scenario.grid.N
    tau = scenario.grid.tau
    p = as_policy(policy, n)
    energy = np.zeros((2, n))
    battery = np.zeros((2, n))
    data = violation(p, scenario, rate_model)
    for j, user in enumerate(scenario.users):
        cum_e = np.cumsum(user.harvest.arrivals)
        s = tau * np.cumsum(p[j])
        energy[j] = np.maximum(0.0, s - cum_e)
        # battery check only applies where a next arrival exists
        if n > 1:
            battery[j, :-1] = np.maximum(
                0.0, cum_e[1:] - user.harvest.capacity - s[:-1])
    worst_e, worst_b, worst_d = _worst(energy), _worst(battery), _worst(data)
    feasible = max(worst_e.magnitude, worst_b.magnitude,
                   worst_d.magnitude) <= tol
    return FeasibilityReport(worst_e, worst_b, worst_d, tol, feasible)


def cumulative_departure(policy, rate_model, grid: TimeGrid) -> np.ndarray:
    """Cumulative sum throughput tau*r per slot, in nats (nondecreasing)."""
    p = as_policy(policy, grid.N)
    r = np.atleast_1d(rate_model.sum_rate(p[0], p[1]))
    return grid.tau * np.cumsum(r)


# -- scenario file schema ------------------------------------------------------
#
# {
#   "tau": 1.0, "N": 20,
#   "users": [
#     {"E": [...N...], "Emax": 10.0, "B": [...N...] | "infinite"},
#     {...}
#   ],
#   "channel": {"a": 0.9, "b": 2.0}
#           | {"physical": {"h11_db": -100, "h22_db": -100, "h12_db": -101.55,
#                            "h21_db": -93.01, "noise_psd": 1e-19,
#                            "bandwidth": 1e6}}
# }
#
# With a "physical" channel block, E/Emax are in millijoules and are converted
# to normalized units with the per-user energy scale from normalize_channel.


def _object(value, name) -> dict:
    if not isinstance(value, dict):
        raise InvalidInputError(f"{name} must be a JSON object")
    return value


def _number(value, name) -> float:
    # float() accepts numeric strings and booleans, and fails on other
    # values with ValueError, TypeError or OverflowError, not invalid input
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(
            f"{name} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} is out of range") from None


def _numbers(values, name) -> np.ndarray:
    if not isinstance(values, (list, tuple)):
        raise InvalidInputError(f"{name} must be a list of numbers")
    return np.array([_number(v, name) for v in values], dtype=float)


def _slot_count(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(
            f"slot count 'N' must be an integer, not {value!r}")
    return int(value)


def scenario_from_dict(doc: dict):
    """Parse and validate a scenario document.

    Returns ``(scenario, info)`` where ``info`` records unit conversion
    factors (empty for already-normalized inputs).  Every malformed document
    raises ``InvalidInputError`` or ``ShapeError``.
    """
    _object(doc, "scenario document")
    for key in ("tau", "N", "users", "channel"):
        if key not in doc:
            raise InvalidInputError(f"scenario document missing '{key}'")
    grid = TimeGrid(N=_slot_count(doc["N"]), tau=_number(doc["tau"], "tau"))
    if not isinstance(doc["users"], (list, tuple)) or len(doc["users"]) != 2:
        raise ShapeError("'users' must list exactly two users")
    channel_doc = _object(doc["channel"], "channel")
    info = {}
    if "physical" in channel_doc:
        phys = _object(channel_doc["physical"], "physical channel")
        keys = ("h11_db", "h22_db", "h12_db", "h21_db", "noise_psd",
                "bandwidth")
        try:
            norm = _rates.normalize_channel(
                **{key: _number(phys[key], key) for key in keys})
        except KeyError as exc:
            raise InvalidInputError(f"physical channel missing {exc}") from exc
        except OverflowError:
            raise InvalidInputError(
                "physical channel gains are out of range") from None
        channel = norm.params
        # scenario energies are in mJ; scale converts J -> normalized units
        energy_scale = tuple(s * 1e-3 for s in norm.energy_scale)
        info = {"a": channel.a, "b": channel.b,
                "energy_scale_per_mj": energy_scale,
                "channel_uses_per_slot": 2.0 * float(phys["bandwidth"]) * grid.tau}
    else:
        if "a" not in channel_doc or "b" not in channel_doc:
            raise InvalidInputError("channel must give {a, b} or a physical block")
        channel = _rates.ChannelParams(_number(channel_doc["a"], "a"),
                                       _number(channel_doc["b"], "b"))
        energy_scale = (1.0, 1.0)
    users = []
    for j, u in enumerate(doc["users"]):
        _object(u, f"user {j + 1}")
        for key in ("E", "Emax"):
            if key not in u:
                raise InvalidInputError(f"user {j + 1} missing '{key}'")
        e = _numbers(u["E"], f"user {j + 1} 'E'") * energy_scale[j]
        emax = _number(u["Emax"], f"user {j + 1} 'Emax'") * energy_scale[j]
        b_doc = u.get("B", "infinite")
        if isinstance(b_doc, str):
            if b_doc != "infinite":
                raise InvalidInputError(
                    f"user {j + 1}: B must be a vector or 'infinite'")
            data = DataProfile.infinite()
        else:
            data = DataProfile(_numbers(b_doc, f"user {j + 1} 'B'"))
        users.append(User(HarvestProfile(e, emax), data))
    scenario = validate_scenario(Scenario(grid, tuple(users), channel))
    return scenario, info


def scenario_to_dict(scenario: Scenario) -> dict:
    out = {
        "tau": scenario.grid.tau,
        "N": scenario.grid.N,
        "users": [],
        "channel": {"a": scenario.channel.a, "b": scenario.channel.b},
    }
    for user in scenario.users:
        doc = {"E": [float(x) for x in user.harvest.arrivals],
               "Emax": user.harvest.capacity}
        doc["B"] = ("infinite" if user.data.is_infinite
                    else [float(x) for x in user.data.arrivals])
        out["users"].append(doc)
    return out
