"""Exhaustive quantized search over small instances: the testing ground truth.

Powers live on the lattice {0, dp, 2*dp, ...}; energies are tracked in integer
multiples of dp*tau, with arrivals snapped DOWN to the lattice so the search
never fabricates energy.  Two search modes:

* infinite backlog: a dynamic program over joint battery levels.  Battery
  overflow is excluded (it is never profitable without data constraints), so
  returned policies satisfy the full energy corridor.  Per user-1 action s1,
  one array pass gathers the next-slot values of every (b1, b2, s2) from the
  value table and masks infeasible entries with -inf; runs of b2 keep each
  block at most ``_BLOCK`` entries (or a single b2 row).
* finite data arrivals: layered enumeration of (battery, per-user bits) states
  with exact floating-point bit accounting, since cumulative bits are not
  lattice-valued.  Battery overflow is allowed here and simply loses energy
  (truncation), which is what makes blocked-harvest instances well-posed.
  Each slot's rows are counted before they are gathered, and the search
  refuses a slot whose rows would pass ``max_enumeration`` or hold more
  than ``_SLOT_BYTES`` (128 MiB) before duplicates merge.

Both modes are deterministic: among ties the lexicographically smallest
action sequence wins.  In the battery DP that is the first maximum over s2,
and a larger s1 replaces a smaller one only when strictly better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OracleSizeError
from .model import Scenario

_NEG = -math.inf
# candidate entries scored per block of the battery DP
_BLOCK = 1 << 14
# bytes of one state row that the data-mode search holds while it builds a
# slot's layer: battery (2 int32), banked bits (2 float64), objective
# (float64), parent (int64) and action (2 int32)
_ROW_BYTES = 48
# the most state rows' bytes that one slot of the data-mode search may hold
# before it merges duplicates; merging copies them about twice more
_SLOT_BYTES = 128 << 20


@dataclass(frozen=True)
class OracleOptions:
    power_grid_step: float = 0.05
    max_enumeration: int = 50_000_000

    def __post_init__(self):
        step = self.power_grid_step
        if not (math.isfinite(step) and step > 0):
            raise InvalidInputError(
                f"power grid step must be positive and finite, got {step!r}")
        if not self.max_enumeration >= 1:
            raise InvalidInputError(
                "max_enumeration must be at least 1, got "
                f"{self.max_enumeration!r}")


def _snap_units(x: float, quantum: float) -> int:
    return int(math.floor(x / quantum + 1e-9))


def brute_force(scenario: Scenario, rate_model, opts: OracleOptions = None):
    """Best quantized feasible policy and its exact objective under the model.

    Raises ``OracleSizeError`` with a size estimate when the search space
    exceeds ``opts.max_enumeration``.
    """
    if opts is None:
        opts = OracleOptions()
    data_mode = any(not u.data.is_infinite for u in scenario.users)
    if data_mode:
        return _search_with_data(scenario, rate_model, opts)
    return _search_batteries(scenario, rate_model, opts)


def _lattice(scenario: Scenario, opts: OracleOptions):
    tau = scenario.grid.tau
    quantum = opts.power_grid_step * tau
    caps = [_snap_units(u.harvest.capacity, quantum) for u in scenario.users]
    arrivals = [np.array([_snap_units(e, quantum) for e in u.harvest.arrivals],
                         dtype=int) for u in scenario.users]
    return quantum, caps, arrivals


def _rate_tables(rate_model, caps, dp):
    s1 = np.arange(caps[0] + 1) * dp
    s2 = np.arange(caps[1] + 1) * dp
    g1, g2 = np.meshgrid(s1, s2, indexing="ij")
    total = np.asarray(rate_model.sum_rate(g1, g2))
    return total


def _search_batteries(scenario, rate_model, opts):
    n = scenario.grid.N
    tau = scenario.grid.tau
    dp = opts.power_grid_step
    quantum, caps, arr = _lattice(scenario, opts)
    k1, k2 = caps
    states = (k1 + 1) * (k2 + 1)
    estimate = states * states * n
    if estimate > opts.max_enumeration:
        raise OracleSizeError(
            f"battery DP needs about {estimate:.2e} transitions "
            f"(cap {opts.max_enumeration:.2e})", size_estimate=estimate)
    r_total = tau * _rate_tables(rate_model, caps, dp)

    # each (run of b2, s1) scores one block over (b1, b2, s2), gathering the
    # next state from the value table; a block holds at most _BLOCK entries,
    # or a single b2 row (at most the state count)
    b2_run = max(1, _BLOCK // ((k1 + 1) * (k2 + 1)))
    b2v = np.arange(k2 + 1)
    value = np.zeros((k1 + 1, k2 + 1))
    actions = []
    for i in range(n - 1, -1, -1):
        new_val = np.full((k1 + 1, k2 + 1), _NEG)
        act = np.zeros((k1 + 1, k2 + 1, 2), dtype=np.int32)
        last = i == n - 1
        a1n = 0 if last else int(arr[0][i + 1])
        a2n = 0 if last else int(arr[1][i + 1])
        for c in range(0, k2 + 1, b2_run):
            d = min(c + b2_run, k2 + 1)
            # next battery of user 2 for (b2, s2): spending s2 needs b2 >= s2,
            # and room for the next arrival (no overflow) unless at the end
            nxt2 = b2v[c:d, None] - b2v[None, :] + a2n
            off2 = (nxt2 < a2n) | (nxt2 > k2)
            nxt2 = np.clip(nxt2, 0, k2)
            for s1 in range(k1 + 1):
                lo1, hi1 = s1, k1 if last else min(k1, k1 + s1 - a1n)
                if hi1 < lo1:
                    continue
                # the terminal value is zero, so the last slot adds 0.0
                rows = value[lo1 - s1 + a1n:hi1 - s1 + a1n + 1]
                cand = r_total[s1] + rows[:, nxt2]
                cand[:, off2] = _NEG
                # first maximum over s2, and only a strictly better one
                # replaces a smaller s1: the smallest action wins ties
                top = np.argmax(cand, axis=2)
                top_val = np.take_along_axis(cand, top[..., None], 2)[..., 0]
                blk = new_val[lo1:hi1 + 1, c:d]
                better = top_val > blk
                blk[better] = top_val[better]
                act_blk = act[lo1:hi1 + 1, c:d]
                act_blk[better, 0] = s1
                act_blk[better, 1] = top[better]
        value = new_val
        actions.append(act)
    actions.reverse()

    b1 = min(int(arr[0][0]), k1)
    b2 = min(int(arr[1][0]), k2)
    policy = np.zeros((2, n))
    objective = 0.0
    for i in range(n):
        s1, s2 = actions[i][b1, b2]
        policy[0, i] = s1 * dp
        policy[1, i] = s2 * dp
        objective += float(r_total[s1, s2])
        if i < n - 1:
            b1 = b1 - int(s1) + int(arr[0][i + 1])
            b2 = b2 - int(s2) + int(arr[1][i + 1])
    return policy, objective


def _search_with_data(scenario, rate_model, opts):
    n = scenario.grid.N
    tau = scenario.grid.tau
    dp = opts.power_grid_step
    quantum, caps, arr = _lattice(scenario, opts)
    k1, k2 = caps
    s1v = np.arange(k1 + 1) * dp
    s2v = np.arange(k2 + 1) * dp
    g1, g2 = np.meshgrid(s1v, s2v, indexing="ij")
    r1_tab, r2_tab = rate_model.user_rates(g1, g2)
    r1_tab = tau * np.asarray(r1_tab)
    r2_tab = tau * np.asarray(r2_tab)

    cum_b = []
    for u in scenario.users:
        if u.data.is_infinite:
            cum_b.append(np.full(n, math.inf))
        else:
            cum_b.append(np.cumsum(u.data.arrivals))
    bits_eps = 1e-12 * (1.0 + max((float(c[-1]) for c in cum_b
                                   if math.isfinite(c[-1])), default=1.0))

    # layer arrays: battery units, banked bits per user, objective, parent row
    bat = np.array([[min(int(arr[0][0]), k1), min(int(arr[1][0]), k2)]],
                   dtype=np.int32)
    bits = np.zeros((1, 2))
    obj = np.zeros(1)
    layers = []
    generated = 0
    for i in range(n):
        rows_b, rows_bits, rows_obj = [], [], []
        rows_parent, rows_act = [], []
        pending = 0
        a1n = int(arr[0][i + 1]) if i < n - 1 else 0
        a2n = int(arr[1][i + 1]) if i < n - 1 else 0
        for s1 in range(int(np.max(bat[:, 0])) + 1):
            ok1 = bat[:, 0] >= s1
            for s2 in range(int(np.max(bat[:, 1])) + 1):
                db1 = float(r1_tab[s1, s2])
                db2 = float(r2_tab[s1, s2])
                mask = ok1 & (bat[:, 1] >= s2)
                if db1 > 0:
                    mask &= bits[:, 0] + db1 <= cum_b[0][i] + bits_eps
                if db2 > 0:
                    mask &= bits[:, 1] + db2 <= cum_b[1][i] + bits_eps
                count = int(np.count_nonzero(mask))
                if not count:
                    continue
                # refuse before gathering the rows that would pass a limit
                pending += count
                if pending > opts.max_enumeration:
                    raise OracleSizeError(
                        f"data-mode enumeration exceeded {opts.max_enumeration} "
                        f"states at slot {i + 1}", size_estimate=pending)
                if pending * _ROW_BYTES > _SLOT_BYTES:
                    raise OracleSizeError(
                        f"data-mode enumeration would hold more than "
                        f"{_SLOT_BYTES >> 20} MiB of states at slot {i + 1}",
                        size_estimate=pending)
                sel = np.nonzero(mask)[0]
                nb = bat[sel].copy()
                nb[:, 0] -= s1
                nb[:, 1] -= s2
                if i < n - 1:
                    # overflow is lost on arrival (battery truncation)
                    nb[:, 0] = np.minimum(nb[:, 0] + a1n, k1)
                    nb[:, 1] = np.minimum(nb[:, 1] + a2n, k2)
                newbits = bits[sel] + np.array([db1, db2])
                rows_b.append(nb)
                rows_bits.append(newbits)
                rows_obj.append(obj[sel] + (db1 + db2))
                rows_parent.append(sel)
                rows_act.append(np.full((sel.shape[0], 2), (s1, s2),
                                        dtype=np.int32))
        if not rows_b:
            raise OracleSizeError("no feasible quantized policy", 0)
        bat = np.concatenate(rows_b)
        bits = np.concatenate(rows_bits)
        obj = np.concatenate(rows_obj)
        parent = np.concatenate(rows_parent)
        acts = np.concatenate(rows_act)
        # states agreeing on battery and on every finite user's banked bits
        # are interchangeable: infinite-backlog bits only bank objective, so
        # the highest objective (lowest action sequence among ties) survives
        key_cols = [bat[:, 0], bat[:, 1]]
        for j in range(2):
            if math.isfinite(cum_b[j][-1]):
                key_cols.append(bits[:, j])
        keys = np.column_stack(key_cols)
        _, group = np.unique(keys, axis=0, return_inverse=True)
        order = np.lexsort((np.arange(obj.shape[0]), -obj, group))
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = group[order][1:] != group[order][:-1]
        keep = np.sort(order[first])
        bat, bits, obj = bat[keep], bits[keep], obj[keep]
        parent, acts = parent[keep], acts[keep]
        generated += bat.shape[0]
        if generated > opts.max_enumeration:
            raise OracleSizeError(
                f"data-mode enumeration produced {generated} states "
                f"(cap {opts.max_enumeration})", size_estimate=generated)
        layers.append((parent, acts))

    best = int(np.argmax(obj))
    objective = float(obj[best])
    policy = np.zeros((2, n))
    row = best
    for i in range(n - 1, -1, -1):
        parent, acts = layers[i]
        policy[0, i] = acts[row, 0] * dp
        policy[1, i] = acts[row, 1] * dp
        row = int(parent[row])
    return policy, objective
