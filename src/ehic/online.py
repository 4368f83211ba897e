"""Online and distributed baselines: finite-horizon DP, naive, single-link.

The dynamic program plans on the energy arrivals only, as the paper's
online policy does: it discretizes both batteries on uniform grids and
sweeps backward over slots, maximizing the per-slot throughput plus the
expected value of the next state under the energy arrival laws.  The state
of a slot is each battery after that slot's arrival, so the first slot's
arrival is part of the initial state and the move from slot i to slot i + 1
adds the arrival of slot i + 1, as ``rollout_table`` does.  Next-state
values between grid nodes are interpolated bilinearly; battery overflow at
an arrival is truncated, exactly like the physical battery, so a rolled-out
policy can waste energy; ``ehic online-dp`` (like ``ehic oracle``) spends
what a battery would lose one slot earlier before it scores and writes the
policy.

Work that does not change between slots is done once.  Every action's
throughput comes from one scalar rate-model call, and the states that can
afford it form a box (a suffix of both battery axes, since the axes start
at 0 and increase).  Each slot then makes one interpolator call per action
and arrival outcome, over the next states of that action's box, read from
per-axis tables of shifted grid coordinates.  A state takes a later action
only when it is strictly better, so among equal values the first action in
(p1, p2) order wins.  The interpolator receives the same points as a
state-by-state loop would give it, so the tables are bit-identical to it.

The naive baseline transmits at the mean harvest rate whenever the battery
allows and drains the battery otherwise.  The distributed baseline is
single-link water-filling against an assumed constant interference power,
which is each user's taut string through its own energy corridor whatever
that power is; it consumes no information about the other user's arrivals.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import (ConvergenceError, InvalidInputError, OracleSizeError,
                     ShapeError)
from .model import Scenario
from .rates import RateModel
# unused here; perfbench's tracer patches both names in this module
from .iterative import build_subproblem  # noqa: F401
from .single_user import solve_single_user  # noqa: F401

# the most bytes the DP's tables may hold: values (N + 1) * G1 * G2 and
# policies N * G1 * G2 * 2, as float64
_TABLE_BYTES = 128 << 20


@dataclass(frozen=True)
class StateGrid:
    """Uniform battery grids of both users; both include 0."""

    e1: np.ndarray
    e2: np.ndarray
    # the grid has no data-queue axes; perfbench's tracer reads this
    with_data = False

    def __post_init__(self):
        for name in ("e1", "e2"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.ndim != 1 or g.shape[0] < 2:
                raise InvalidInputError(f"grid {name} needs at least 2 points")
            if not np.all(np.isfinite(g)):
                raise InvalidInputError(f"grid {name} must be finite")
            if g[0] != 0.0 or np.any(np.diff(g) <= 0):
                raise InvalidInputError(f"grid {name} must start at 0 and increase")
            object.__setattr__(self, name, g)


def battery_grid(scenario: Scenario, grid_step: float) -> StateGrid:
    """Each user's battery grid for a power step of ``grid_step``: uniform
    from 0 to the capacity, about grid_step * tau apart.

    Refuses with ``OracleSizeError``, before it builds anything, grids on
    which the DP's tables would hold more than ``_TABLE_BYTES``.
    """
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise InvalidInputError("grid step must be positive and finite, "
                                f"got {grid_step!r}")
    de = grid_step * scenario.grid.tau
    caps = [u.harvest.capacity for u in scenario.users]
    ratios = [cap / de if de > 0.0 else math.inf for cap in caps]
    size = math.inf
    if all(math.isfinite(r) for r in ratios):
        points = [max(2, int(round(r)) + 1) for r in ratios]
        size = 8.0 * (3 * scenario.grid.N + 1) * points[0] * float(points[1])
    if size > _TABLE_BYTES:
        count = f" ({size:.2e} bytes)" if math.isfinite(size) else ""
        raise OracleSizeError(
            f"DP tables at grid step {grid_step!r} would pass "
            f"{_TABLE_BYTES >> 20} MiB{count}", size_estimate=size)
    return StateGrid(*(np.linspace(0.0, cap, k)
                       for cap, k in zip(caps, points)))


@dataclass(frozen=True)
class ArrivalDistribution:
    """Finite-support per-slot energy arrival laws of both users.

    ``energy[j][i]`` is a (values, probabilities) pair for user j at slot i.
    """

    n_slots: int
    energy: tuple
    # no data arrival laws; perfbench's tracer reads this
    data = None

    def __post_init__(self):
        if len(self.energy) != 2:
            raise ShapeError("arrival laws are for exactly two users")
        for slots in self.energy:
            if len(slots) != self.n_slots:
                raise InvalidInputError("distribution slot count mismatch")
            for values, probs in slots:
                values = np.asarray(values, dtype=float)
                probs = np.asarray(probs, dtype=float)
                # _slot_outcomes zips the two, so a longer side would lose
                # its extra outcomes silently
                if values.ndim != 1 or values.shape != probs.shape:
                    raise InvalidInputError(
                        "arrival values and probabilities must be "
                        "vectors of one length")
                if not (np.all(np.isfinite(values))
                        and np.all(np.isfinite(probs))):
                    raise InvalidInputError("arrival laws must be finite")
                if np.any(values < 0):
                    raise InvalidInputError("arrival values must be >= 0")
                if np.any(probs < 0):
                    raise InvalidInputError("probabilities must be >= 0")
                if abs(float(np.sum(probs)) - 1.0) > 1e-12:
                    raise InvalidInputError("probabilities must sum to 1")

    @classmethod
    def deterministic(cls, scenario: Scenario) -> "ArrivalDistribution":
        energy = tuple(
            tuple((np.array([e]), np.array([1.0]))
                  for e in u.harvest.arrivals)
            for u in scenario.users)
        return cls(scenario.grid.N, energy)


@dataclass
class DPResult:
    """Backward-induction output: J over states per slot, argmax actions."""

    values: np.ndarray       # (N+1, G1, G2)
    policies: np.ndarray     # (N, G1, G2, 2)
    grid: StateGrid


def _slot_outcomes(stats, i):
    """Joint energy arrival outcomes ``((e1, e2), prob)`` that move slot i
    to slot i + 1: the law of slot i + 1.  The last slot's successor value
    is zero, so its own law stands in there."""
    i = min(i + 1, stats.n_slots - 1)
    (v1, q1), (v2, q2) = stats.energy[0][i], stats.energy[1][i]
    return [((float(x1), float(x2)), float(p1) * float(p2))
            for x1, p1 in zip(np.asarray(v1), np.asarray(q1))
            for x2, p2 in zip(np.asarray(v2), np.asarray(q2))]


def value_iteration(stats: ArrivalDistribution, rate_model: RateModel,
                    grid: StateGrid, tau: float) -> DPResult:
    """Solve the finite-horizon control problem on the discretized state.

    State: each user's battery level after the slot's arrival.  Actions are
    powers on the battery-grid resolution, restricted so consumption never
    exceeds the battery.  The terminal value is zero.  ``tau`` is the
    scenario's slot length: tables built for another one are wrong.
    """
    n = stats.n_slots
    axes = (grid.e1, grid.e2)
    g1, g2 = shape = (len(grid.e1), len(grid.e2))
    acts1 = grid.e1 / tau
    acts2 = grid.e2 / tau
    spend1 = acts1 * tau
    spend2 = acts2 * tau
    # slot throughput of action a = j1 * g2 + j2, one scalar call each
    gain = tau * np.fromiter((rate_model.sum_rate(p1, p2)
                              for p1 in acts1 for p2 in acts2), float, g1 * g2)
    # index of the lowest battery level that affords each spend: the states
    # that can afford an action are the box from these indices on
    first1 = [int(np.count_nonzero(grid.e1 + 1e-12 < c)) for c in spend1]
    first2 = [int(np.count_nonzero(grid.e2 + 1e-12 < c)) for c in spend2]
    # a state no action reaches keeps (0, 0), the extra last row
    powers = np.zeros((g1 * g2 + 1, 2))
    powers[:-1, 0] = np.repeat(acts1, g2)
    powers[:-1, 1] = np.tile(acts2, g1)

    values = np.zeros((n + 1,) + shape)
    policies = np.zeros((n,) + shape + (2,))
    for i in range(n - 1, -1, -1):
        interp = RegularGridInterpolator(axes, values[i + 1],
                                         bounds_error=False, fill_value=None)
        # per outcome, the next level of every battery level after every
        # spend, one row per spend
        moved = [(prob,
                  np.clip(grid.e1[None, :] - spend1[:, None] + ev[0], 0.0,
                          grid.e1[-1]),
                  np.clip(grid.e2[None, :] - spend2[:, None] + ev[1], 0.0,
                          grid.e2[-1]))
                 for ev, prob in _slot_outcomes(stats, i)]
        best = np.full(shape, -np.inf)
        choice = np.full(shape, g1 * g2)
        for j1, k1 in enumerate(first1):
            for j2, k2 in enumerate(first2):
                if k1 == g1 or k2 == g2:   # (x / tau) * tau rounded up
                    continue
                a = j1 * g2 + j2
                total = gain[a]
                for prob, next1, next2 in moved:
                    pts = np.empty((2, g1 - k1, g2 - k2))
                    pts[0] = next1[j1, k1:, None]
                    pts[1] = next2[j2, None, k2:]
                    total = total + prob * interp(pts.reshape(2, -1).T)
                total = total.reshape(g1 - k1, g2 - k2)
                held = best[k1:, k2:]
                better = total > held
                np.copyto(held, total, where=better)
                np.copyto(choice[k1:, k2:], a, where=better)
        values[i] = best
        policies[i] = powers[choice]
    return DPResult(values=values, policies=policies, grid=grid)


def _start_state(grid: StateGrid, scenario: Scenario):
    """Battery levels after slot 1's arrivals, each truncated to its grid."""
    return [min(u.harvest.arrivals[0], cap)
            for u, cap in zip(scenario.users, (grid.e1[-1], grid.e2[-1]))]


def table_value_at_start(result: DPResult, scenario: Scenario) -> float:
    """The table value J_0 at the state ``rollout_table`` starts from.

    The rollout's total differs from it where the rollout truncates a full
    battery or interpolates the table's actions between lattice points."""
    grid = result.grid
    interp = RegularGridInterpolator((grid.e1, grid.e2), result.values[0],
                                     bounds_error=False, fill_value=None)
    return float(interp(np.array([_start_state(grid, scenario)]))[0])


def rollout_table(result: DPResult, scenario: Scenario,
                  rate_model: RateModel):
    """Drive the DP policy along a deterministic scenario's energy arrivals;
    returns (policy, total throughput in nats)."""
    n = scenario.grid.N
    tau = scenario.grid.tau
    grid = result.grid
    caps = (grid.e1[-1], grid.e2[-1])
    e = _start_state(grid, scenario)
    policy = np.zeros((2, n))
    total = 0.0
    for i in range(n):
        interp = RegularGridInterpolator((grid.e1, grid.e2),
                                         result.policies[i],
                                         bounds_error=False, fill_value=None)
        act = np.asarray(interp(np.array([e])))[0]
        p1 = float(min(max(act[0], 0.0), e[0] / tau))
        p2 = float(min(max(act[1], 0.0), e[1] / tau))
        policy[:, i] = (p1, p2)
        total += tau * float(rate_model.sum_rate(p1, p2))
        if i < n - 1:
            for j, p in enumerate((p1, p2)):
                nxt = scenario.users[j].harvest.arrivals[i + 1]
                e[j] = min(e[j] - p * tau + nxt, caps[j])
    return policy, total


def naive_policy(scenario: Scenario) -> np.ndarray:
    """Constant transmission at the mean harvest rate, else drain the battery."""
    n, tau = scenario.grid.N, scenario.grid.tau
    policy = np.zeros((2, n))
    for j, user in enumerate(scenario.users):
        e = user.harvest.arrivals
        target = float(np.sum(e)) / (n * tau)
        bat = 0.0
        for i in range(n):
            bat = min(bat + e[i], user.harvest.capacity)
            p = target if bat >= target * tau else bat / tau
            policy[j, i] = p
            bat -= p * tau
    return policy


def distributed_policy(scenario: Scenario, user: int) -> np.ndarray:
    """Single-link water-filling against an assumed constant interferer.

    The paper's distributed transmitter treats the other one as a fixed
    interference power in every slot, so its slot utility is one concave,
    nondecreasing function of its own power, the same in every slot.  For
    any such utility the optimal schedule is the taut string through the
    user's energy corridor (Tutuncuoglu & Yener, IEEE TWC 2012; Yang &
    Ulukus, IEEE Trans. Commun. 2012): the shortest path of cumulative
    consumption from 0 to the total harvest U_N, which it spends because
    every rate is nondecreasing.  The row therefore depends on neither the
    channel nor the assumed interference level, and it uses only the user's
    own arrivals.  ``_taut_fault`` is its certificate.
    """
    if user not in (0, 1):
        raise ShapeError("user index must be 0 or 1")
    corridor = scenario.users[user].harvest.corridor
    row = _taut_string(corridor, scenario.grid.tau)
    fault = _taut_fault(row, corridor, scenario.grid.tau)
    if fault is not None:
        raise ConvergenceError(
            f"distributed baseline of user {user + 1} is not a taut string: "
            f"{fault}", best_policy=np.array(row))
    return np.array(row)


def _taut_string(corridor, tau):
    """Powers of the shortest path of cumulative consumption from (0, 0) to
    (N, U_N) through the gates [L_n, U_n], n = 1 .. N - 1.

    A funnel sweep (Lee & Preparata, Networks 14, 1984): ``ceil`` is the
    shortest path from the apex to the newest ceiling point, with rising
    slopes, and ``floor`` the one to the newest floor point, with falling
    slopes.  A new point removes the vertices it straightens on its own
    side; once it sees past the apex, the vertices of the other side it
    passes are knots of the string, and the last of them is the new apex.
    Each window between knots gets the even split of its energy.
    """
    lower, upper = corridor.lower.tolist(), corridor.upper.tolist()
    n = len(upper)
    knots = [(0, 0.0)]
    ceil = deque(knots)
    floor = deque(knots)

    def add(side, other, t, y, sign):
        # sign 1 adds (t, y) to the ceiling, -1 to the floor; sign times the
        # cross product is positive where the chain turns the way it may
        while len(side) > 1:
            (t1, y1), (t2, y2) = side[-2], side[-1]
            if sign * ((t2 - t1) * (y - y1) - (y2 - y1) * (t - t1)) > 0.0:
                break
            side.pop()
        if len(side) == 1:
            while len(other) > 1:
                (t1, y1), (t2, y2) = other[0], other[1]
                if sign * ((t2 - t1) * (y - y1) - (y2 - y1) * (t - t1)) >= 0.0:
                    break
                other.popleft()
                knots.append(other[0])
            side[0] = other[0]
        side.append((t, y))

    for t in range(1, n + 1):
        hi = upper[t - 1]
        lo = lower[t - 1] if t < n else hi
        add(ceil, floor, t, hi, 1)
        add(floor, ceil, t, lo, -1)
    # both sides end at (N, U_N); the floor's path there closes the string
    knots.extend(list(floor)[1:])
    row = []
    for (t0, y0), (t1, y1) in zip(knots, knots[1:]):
        row.extend([(y1 - y0) / tau / (t1 - t0)] * (t1 - t0))
    return row


def _taut_fault(row, corridor, tau):
    """Why ``row`` is not a taut string, or None when it is one.

    The row must be nonnegative, meet the corridor and spend U_N within
    ``feas_eps``, and its power may rise only where the battery is empty
    (S_i on U_i) and fall only where it is full (S_i on L_i), within
    ``binding_tol``, as in ``verify_kkt``.  With the water level at f'(p_i),
    these are the KKT conditions of every time-invariant concave,
    nondecreasing slot utility f, so they certify the row for all of them.
    """
    lower, upper = corridor.lower.tolist(), corridor.upper.tolist()
    eps, binding = corridor.feas_eps, corridor.binding_tol
    s = 0.0
    for i, p in enumerate(row):
        s += tau * p
        nxt = row[i + 1] if i + 1 < len(row) else p
        if p < 0.0:
            return f"negative power in slot {i + 1}"
        if s > upper[i] + eps or s < lower[i] - eps:
            return f"leaves the corridor after slot {i + 1}"
        if nxt > p and upper[i] - s > binding:
            return f"rises after slot {i + 1} with energy left"
        if nxt < p and s - lower[i] > binding:
            return f"falls after slot {i + 1} with room left"
    if abs(s - upper[-1]) > eps:
        return "does not spend the total harvest"
    return None


def export_tables_csv(result: DPResult, path):
    """Dump battery levels with the argmax action and value per slot."""
    import csv
    import os

    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    grid = result.grid
    e1, e2 = (m.ravel() for m in np.meshgrid(grid.e1, grid.e2, indexing="ij"))
    n = result.policies.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "e1", "e2", "p1", "p2", "value"])
        for i in range(n):
            acts = result.policies[i].reshape(-1, 2)
            vals = result.values[i].ravel()
            for k in range(e1.shape[0]):
                writer.writerow([i + 1, f"{e1[k]:.12g}", f"{e2[k]:.12g}",
                                 f"{acts[k, 0]:.12g}", f"{acts[k, 1]:.12g}",
                                 f"{vals[k]:.12g}"])
