"""Online and distributed baselines: finite-horizon DP, naive, single-link.

The dynamic program discretizes battery levels (and data queues when
arrivals are finite) on uniform grids and sweeps backward over slots,
maximizing the per-slot throughput plus the expected value of the next
state under the arrival distributions.  The state of a slot is each
battery (and queue) after that slot's arrival, so the first slot's arrival
is part of the initial state and the move from slot i to slot i + 1 adds
the arrival of slot i + 1, as ``rollout_table`` does.  Next-state values
between grid nodes are interpolated multilinearly; battery overflow at an
arrival is truncated, exactly like the physical battery, so a rolled-out
policy can waste energy; ``ehic online-dp`` (like ``ehic oracle``) spends
what a battery would lose one slot earlier before it scores and writes
the policy.

Work that does not change between slots is done once.  Every action's
throughput comes from one scalar rate-model call, and the states that can
afford it form a box (a suffix of every grid axis, since the axes start at
0 and increase).  Each slot then makes one interpolator call per action and
arrival outcome, over the next states of that action's box, read from
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

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import ConvergenceError, InvalidInputError, ShapeError
from .model import Scenario, energy_bounds
from .rates import RateModel
from .single_user import _BINDING_TOL, _FEAS_EPS
# unused here; perfbench's tracer patches both names in this module
from .iterative import build_subproblem  # noqa: F401
from .single_user import solve_single_user  # noqa: F401

# rounds of per-user clamping in ``_clamp_departures``: shrinking one user's
# power raises the other's rate, which can then overshoot its queue again
_CLAMP_PASSES = 3


@dataclass(frozen=True)
class StateGrid:
    """Uniform battery (and optional data-queue) grids; all include 0."""

    e1: np.ndarray
    e2: np.ndarray
    b1: Optional[np.ndarray] = None
    b2: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("e1", "e2", "b1", "b2"):
            g = getattr(self, name)
            if g is None:
                continue
            g = np.asarray(g, dtype=float)
            if g.ndim != 1 or g.shape[0] < 2:
                raise InvalidInputError(f"grid {name} needs at least 2 points")
            if not np.all(np.isfinite(g)):
                raise InvalidInputError(f"grid {name} must be finite")
            if g[0] != 0.0 or np.any(np.diff(g) <= 0):
                raise InvalidInputError(f"grid {name} must start at 0 and increase")
            object.__setattr__(self, name, g)

    @property
    def with_data(self) -> bool:
        return self.b1 is not None


@dataclass(frozen=True)
class ArrivalDistribution:
    """Finite-support per-slot arrival laws for energy (and data) per user.

    ``energy[j][i]`` is a (values, probabilities) pair for user j at slot i;
    ``data`` is None in infinite-backlog mode.
    """

    n_slots: int
    energy: tuple
    data: Optional[tuple] = None

    def __post_init__(self):
        for per_user in (self.energy,) + ((self.data,) if self.data else ()):
            for slots in per_user:
                if len(slots) != self.n_slots:
                    raise InvalidInputError("distribution slot count mismatch")
                for values, probs in slots:
                    values = np.asarray(values, dtype=float)
                    probs = np.asarray(probs, dtype=float)
                    # _joint_outcomes zips the two, so a longer side would
                    # lose its extra outcomes silently
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
        n = scenario.grid.N
        energy = tuple(
            tuple((np.array([e]), np.array([1.0]))
                  for e in u.harvest.arrivals)
            for u in scenario.users)
        if all(u.data.is_infinite for u in scenario.users):
            return cls(n, energy)
        data = tuple(
            tuple((np.array([b]), np.array([1.0]))
                  for b in (u.data.arrivals if not u.data.is_infinite
                            else np.zeros(n)))
            for u in scenario.users)
        return cls(n, energy, data)


@dataclass
class DPResult:
    """Backward-induction output: J over states per slot, argmax actions."""

    values: np.ndarray       # (N+1,) + state shape
    policies: np.ndarray     # (N,) + state shape + (2,)
    grid: StateGrid


def _joint_outcomes(dists):
    """Cross product of per-user (values, probs) supports."""
    combos = []
    for v1, p1 in zip(*[np.asarray(x) for x in dists[0]]):
        for v2, p2 in zip(*[np.asarray(x) for x in dists[1]]):
            combos.append(((float(v1), float(v2)), float(p1) * float(p2)))
    return combos


def _slot_outcomes(stats, i):
    """Joint arrival outcomes that move slot i to slot i + 1: the law of
    slot i + 1.  The last slot's successor value is zero, so its own law
    stands in there."""
    i = min(i + 1, stats.n_slots - 1)
    e = (stats.energy[0][i], stats.energy[1][i])
    energy_combos = _joint_outcomes(e)
    if stats.data is None:
        return [(ev, None, p) for ev, p in energy_combos]
    d = (stats.data[0][i], stats.data[1][i])
    data_combos = _joint_outcomes(d)
    out = []
    for ev, pe in energy_combos:
        for dv, pd in data_combos:
            out.append((ev, dv, pe * pd))
    return out


def value_iteration(stats: ArrivalDistribution, rate_model: RateModel,
                    grid: StateGrid, tau: float = 1.0) -> DPResult:
    """Solve the finite-horizon control problem on the discretized state.

    State: per-user battery level after the slot's arrival (and data queue
    length in data mode).  Actions are powers on the battery-grid resolution,
    restricted so consumption never exceeds the battery and departures never
    exceed the queue.  The terminal value is zero.
    """
    n = stats.n_slots
    axes = [grid.e1, grid.e2] + ([grid.b1, grid.b2] if grid.with_data else [])
    shape = tuple(len(ax) for ax in axes)
    ndim = len(axes)

    acts1 = grid.e1 / tau
    acts2 = grid.e2 / tau
    spend1 = acts1 * tau
    spend2 = acts2 * tau
    g1, g2 = len(acts1), len(acts2)
    # slot throughput of action a = j1 * g2 + j2, one scalar call each
    gain = tau * np.fromiter((rate_model.sum_rate(p1, p2)
                              for p1 in acts1 for p2 in acts2), float, g1 * g2)
    # what an action removes from each axis: one row per battery level and,
    # in data mode, one row per action for each queue
    shifts = [spend1, spend2]
    firsts = [[int(np.count_nonzero(grid.e1 + 1e-12 < c)) for c in spend1],
              [int(np.count_nonzero(grid.e2 + 1e-12 < c)) for c in spend2]]
    if grid.with_data:
        own = tau * np.array([[float(r) for r in rate_model.user_rates(p1, p2)]
                              for p1 in acts1 for p2 in acts2])
        shifts += [own[:, 0], own[:, 1]]
        firsts += [np.count_nonzero(sh[:, None] > ax[None, :] + 1e-9,
                                    axis=1).tolist()
                   for sh, ax in zip(shifts[2:], axes[2:])]
    # per axis and row, the states that can afford the shift (a suffix of
    # the axis) as an index and its length; the queue axes share one row
    # per action
    span = [[((slice(k, None),), (len(ax) - k,)) for k in ks]
            for ax, ks in zip(axes, firsts)]
    queue = [((), ())] * (g1 * g2)
    if grid.with_data:
        queue = [(b1[0] + b2[0], b1[1] + b2[1])
                 for b1, b2 in zip(span[2], span[3])]
    # a state no action reaches keeps (0, 0), the extra last row
    powers = np.zeros((g1 * g2 + 1, 2))
    powers[:-1, 0] = np.repeat(acts1, g2)
    powers[:-1, 1] = np.tile(acts2, g1)
    # axis d of a point block is a row reshaped along dimension d
    along = [tuple(-1 if e == d else 1 for e in range(ndim))
             for d in range(ndim)]

    values = np.zeros((n + 1,) + shape)
    policies = np.zeros((n,) + shape + (2,))
    for i in range(n - 1, -1, -1):
        interp = RegularGridInterpolator(axes, values[i + 1],
                                         bounds_error=False, fill_value=None)
        # next coordinate on each axis for every shift, per outcome
        moved = []
        for ev, dv, prob in _slot_outcomes(stats, i):
            arrivals = tuple(ev) + tuple(dv or ())
            moved.append((prob, [
                np.clip(ax[None, :] - sh[:, None] + arr, 0.0, ax[-1])
                for ax, sh, arr in zip(axes, shifts, arrivals)]))
        best = np.full(shape, -np.inf)
        choice = np.full(shape, g1 * g2)
        for j1, (box1, block1) in enumerate(span[0]):
            for j2, (box2, block2) in enumerate(span[1]):
                a = j1 * g2 + j2
                box = box1 + box2 + queue[a][0]
                block = block1 + block2 + queue[a][1]
                if 0 in block:
                    continue
                rows = (j1, j2, a, a)
                total = gain[a]
                for prob, tables in moved:
                    pts = np.empty((ndim,) + block)
                    for d in range(ndim):
                        pts[d] = tables[d][rows[d], box[d]].reshape(along[d])
                    total = total + prob * interp(pts.reshape(ndim, -1).T)
                total = total.reshape(block)
                held = best[box]
                better = total > held
                np.copyto(held, total, where=better)
                np.copyto(choice[box], a, where=better)
        values[i] = best
        policies[i] = powers[choice]
    return DPResult(values=values, policies=policies, grid=grid)


def _start_state(grid: StateGrid, scenario: Scenario):
    """Battery levels and, in data mode, queues after slot 1's arrivals,
    each truncated to its grid: ``(e, b)`` with ``b`` None without data."""
    e = [min(u.harvest.arrivals[0], cap)
         for u, cap in zip(scenario.users, (grid.e1[-1], grid.e2[-1]))]
    b = None
    if grid.with_data:
        b = [0.0 if u.data.is_infinite else min(u.data.arrivals[0], cap)
             for u, cap in zip(scenario.users, (grid.b1[-1], grid.b2[-1]))]
    return e, b


def table_value_at_start(result: DPResult, scenario: Scenario) -> float:
    """The table value J_0 at the state ``rollout_table`` starts from.

    The rollout's total differs from it where the rollout truncates a full
    battery or interpolates the table's actions between lattice points."""
    grid = result.grid
    e, b = _start_state(grid, scenario)
    axes = [grid.e1, grid.e2] + ([grid.b1, grid.b2] if grid.with_data else [])
    interp = RegularGridInterpolator(axes, result.values[0],
                                     bounds_error=False, fill_value=None)
    return float(interp(np.array([e + (b or [])]))[0])


def rollout_table(result: DPResult, scenario: Scenario,
                  rate_model: RateModel):
    """Drive the DP policy along a deterministic scenario; returns
    (policy, total throughput in nats)."""
    n = scenario.grid.N
    tau = scenario.grid.tau
    grid = result.grid
    caps = (grid.e1[-1], grid.e2[-1])
    e, b = _start_state(grid, scenario)
    policy = np.zeros((2, n))
    total = 0.0
    axes = [grid.e1, grid.e2] + ([grid.b1, grid.b2] if grid.with_data else [])
    for i in range(n):
        interp = RegularGridInterpolator(axes, result.policies[i],
                                         bounds_error=False, fill_value=None)
        state = [e[0], e[1]] + (b if b is not None else [])
        act = np.asarray(interp(np.array(state)[np.newaxis, :]))[0]
        p1 = float(min(max(act[0], 0.0), e[0] / tau))
        p2 = float(min(max(act[1], 0.0), e[1] / tau))
        if b is not None:
            p1, p2 = _clamp_departures(rate_model, tau, p1, p2, b)
        policy[:, i] = (p1, p2)
        total += tau * float(rate_model.sum_rate(p1, p2))
        if i < n - 1:
            for j, p in enumerate((p1, p2)):
                nxt = scenario.users[j].harvest.arrivals[i + 1]
                e[j] = min(e[j] - p * tau + nxt, caps[j])
            if b is not None:
                r1, r2 = rate_model.user_rates(p1, p2)
                for j, r in enumerate((r1, r2)):
                    arr = (0.0 if scenario.users[j].data.is_infinite
                           else scenario.users[j].data.arrivals[i + 1])
                    b[j] = min(max(b[j] - tau * float(r), 0.0) + arr,
                               axes[2 + j][-1])
    return policy, total


def _clamp_departures(rate_model, tau, p1, p2, queues):
    """Shrink powers until each user's departures fit its data queue.

    Interpolated table actions can overshoot between queue grid nodes; own
    rates increase in own power, so a per-user bisection restores the same
    restriction the DP imposed on grid states.
    """
    p = [p1, p2]
    for _ in range(_CLAMP_PASSES):
        ok = True
        for j in range(2):
            r = rate_model.user_rates(p[0], p[1])[j]
            if tau * r <= queues[j] + 1e-12:
                continue
            ok = False
            lo, hi = 0.0, p[j]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                trial = [mid, p[1]] if j == 0 else [p[0], mid]
                if tau * rate_model.user_rates(trial[0], trial[1])[j] \
                        > queues[j]:
                    hi = mid
                else:
                    lo = mid
            p[j] = lo
        if ok:
            break
    return p[0], p[1]


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
    harvest = scenario.users[user].harvest
    tau = scenario.grid.tau
    lower, upper = energy_bounds(harvest, tau)
    lower, upper = lower.tolist(), upper.tolist()
    row = _taut_string(lower, upper, tau)
    fault = _taut_fault(row, lower, upper, tau, harvest.capacity)
    if fault is not None:
        raise ConvergenceError(
            f"distributed baseline of user {user + 1} is not a taut string: "
            f"{fault}", best_policy=np.array(row))
    return np.array(row)


def _taut_string(lower, upper, tau):
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
        # a full-battery arrival can put L_t an ulp above U_t
        lo = min(lower[t - 1], hi) if t < n else hi
        add(ceil, floor, t, hi, 1)
        add(floor, ceil, t, lo, -1)
    # both sides end at (N, U_N); the floor's path there closes the string
    knots.extend(list(floor)[1:])
    row = []
    for (t0, y0), (t1, y1) in zip(knots, knots[1:]):
        row.extend([(y1 - y0) / tau / (t1 - t0)] * (t1 - t0))
    return row


def _taut_fault(row, lower, upper, tau, capacity):
    """Why ``row`` is not a taut string, or None when it is one.

    The row must be nonnegative, meet the corridor and spend U_N within
    ``_FEAS_EPS``, and its power may rise only where the battery is empty
    (S_i on U_i) and fall only where it is full (S_i on L_i), within
    ``verify_kkt``'s binding tolerance.  With the water level at f'(p_i),
    these are the KKT conditions of every time-invariant concave,
    nondecreasing slot utility f, so they certify the row for all of them.
    """
    eps = _FEAS_EPS * max(upper[-1], 1.0)
    binding = _BINDING_TOL * max(1.0, capacity)
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
    """Dump state coordinates with the argmax action and value per slot."""
    import csv
    import os

    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    grid = result.grid
    axes = [grid.e1, grid.e2] + ([grid.b1, grid.b2] if grid.with_data else [])
    names = ["e1", "e2"] + (["b1", "b2"] if grid.with_data else [])
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.ravel() for m in mesh]
    n = result.policies.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot"] + names + ["p1", "p2", "value"])
        for i in range(n):
            acts = result.policies[i].reshape(-1, 2)
            vals = result.values[i].ravel()
            for k in range(flat[0].shape[0]):
                writer.writerow([i + 1]
                                + [f"{c[k]:.12g}" for c in flat]
                                + [f"{acts[k, 0]:.12g}", f"{acts[k, 1]:.12g}",
                                   f"{vals[k]:.12g}"])
