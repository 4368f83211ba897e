"""Spans around the program's public functions, recorded from outside.

The traced run replaces public functions of the ``ehic`` modules with
wrappers for its duration and restores them afterwards; no code under
``src/ehic`` changes.  Modules import each other's functions by name, so a
function is wrapped in every namespace that holds it.  Each wrapped call
records a span ``[name, tag, start, end, parent, op]`` in memory; a span's
self time is its duration minus the part of it that its child spans cover.
Counts that a span cannot give (sweeps, rounds, residuals, SLSQP statuses)
are read from the wrapped call's arguments and return value.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict

UTILITY_CLASSES = ("ScaledLogUtilities", "InterferedUtilities",
                   "PiecewiseMinUtilities")
SU_METRICS = (("solve_calls", "count"), ("solve_s", "s"),
              ("solve_ms_per_slot", "ms/slot"), ("probes", "count"),
              ("probes_per_solve", "probes/solve"), ("verify_kkt_s", "s"),
              ("fallback_calls", "count"), ("max_residual", "residual"))

# (name, unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = [
    ("cli.run_s", "s", "lower", "scenarios_per_s, all workloads"),
    ("cli.self_s", "s", "lower",
     "scenarios_per_s, all workloads; largest share on lattice_dp"),
    ("model.validate_calls", "count", "lower",
     "setup_s and op_p50_s on fig8_batch"),
    ("model.validate_s", "s", "lower", "setup_s and op_p50_s on fig8_batch"),
    ("model.feasibility_report_s", "s", "lower",
     "setup_s and op_p50_s on fig8_batch"),
    ("rates.sum_rate_calls", "count", "lower",
     "op_p50_s on lattice_dp and fig8_batch"),
    ("rates.sum_rate_s", "s", "lower",
     "op_p50_s on lattice_dp and fig8_batch"),
]
LAYER_METRICS += [
    (f"single_user.{m}", unit, "lower",
     "scenarios_per_s on fig8_batch and data_arrivals; none on lattice_dp")
    for m, unit in SU_METRICS]
LAYER_METRICS += [
    (f"single_user.{cls}.{m}", unit, "lower",
     "scenarios_per_s on fig8_batch and data_arrivals; none on lattice_dp")
    for cls in UTILITY_CLASSES for m, unit in SU_METRICS]
LAYER_METRICS += [
    (f"iterative.{m}", unit, "lower",
     "scenarios_per_s on fig8_batch, op_tail_s on data_arrivals")
    for m, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"),
                    ("sweeps", "count"), ("sweeps_max", "count"),
                    ("build_subproblem_s", "s"))]
LAYER_METRICS += [
    (f"data_causality.{m}", unit, "lower",
     "op_tail_s, failed_frac and objective_rel_gap on data_arrivals")
    for m, unit in (("s", "s"), ("self_s", "s"), ("rounds", "count"),
                    ("penalized_share", "ratio"), ("slsqp_calls", "count"),
                    ("slsqp_s", "s"), ("slsqp_failed", "count"),
                    ("resolve_s", "s"), ("final_violation_max", "nats"))]
LAYER_METRICS += [
    ("online.value_iteration_s", "s", "lower",
     "op_p50_s and peak_rss_mb on lattice_dp"),
    ("online.value_iteration_s_per_slot", "s/slot", "lower",
     "op_p50_s and peak_rss_mb on lattice_dp"),
    ("online.state_action_evals", "count", "lower",
     "op_p50_s on lattice_dp (computed N*(G1*G2)^2*outcomes)"),
    ("online.rollout_s", "s", "lower", "op_p50_s on lattice_dp"),
    ("online.table_minus_rollout", "nats", "lower",
     "objective_rel_gap on lattice_dp"),
    ("online.distributed_s", "s", "lower", "op_p50_s on fig8_batch"),
    ("online.naive_s", "s", "lower", "op_p50_s on fig8_batch"),
    ("oracle.calls", "count", "lower", "op_p50_s on lattice_dp"),
    ("oracle.s", "s", "lower", "op_p50_s on lattice_dp"),
    ("oracle.transitions", "count", "lower",
     "op_p50_s on lattice_dp (computed ((k1+1)(k2+1))^2*N)"),
    ("oracle.size_refusals", "count", "lower", "failed_frac on lattice_dp"),
    ("trace.scenarios_per_s", "1/s", "higher",
     "tracing overhead: traced scenarios_per_s"),
    ("trace.untraced_scenarios_per_s", "1/s", "higher",
     "tracing overhead: untraced scenarios_per_s in the same run"),
    ("trace.overhead_frac", "ratio", "lower",
     "tracing overhead: 1 - traced / untraced scenarios_per_s"),
]


def state_action_evals(stats, grid) -> int:
    """States x actions x arrival outcomes that ``value_iteration`` scores.

    With no data queues this is N * (G1*G2)^2 * outcomes; the mask on
    infeasible actions is ignored, so the count is an upper bound.
    """
    axes = [grid.e1, grid.e2] + ([grid.b1, grid.b2] if grid.with_data else [])
    states = math.prod(len(ax) for ax in axes)
    actions = len(grid.e1) * len(grid.e2)
    total = 0
    for i in range(stats.n_slots):
        laws = [stats.energy[0][i], stats.energy[1][i]]
        if stats.data is not None:
            laws += [stats.data[0][i], stats.data[1][i]]
        total += states * actions * math.prod(len(v) for v, _ in laws)
    return total


def oracle_transitions(scenario, opts) -> int:
    """((k1+1)(k2+1))^2 * N on the oracle's battery lattice."""
    quantum = opts.power_grid_step * scenario.grid.tau
    k = [int(math.floor(u.harvest.capacity / quantum + 1e-9))
         for u in scenario.users]
    return ((k[0] + 1) * (k[1] + 1)) ** 2 * scenario.grid.N


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[4] is not None:
            children[span[4]].append(idx)
    out = []
    for idx, (_name, _tag, start, end, _parent, _op) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((max(spans[c][2], start), min(spans[c][3], end))
                             for c in children.get(idx, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        # per-scenario figures of the passes only (op id >= 0, no warm-up)
        self.dp_tables = []          # (values at slot 0, axes, start, total)
        self.data_reports = []       # SolveReport of each solve_with_data
        self.op = None
        self.op_span = None
        self._op_stack = None        # span stack of the thread running ops
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag=None) -> int:
        # a worker thread (fig8 --jobs) starts with an empty stack; its
        # spans belong to the span the op's own thread has open meanwhile
        stack = self._stack()
        outer = stack or self._op_stack
        parent = outer[-1] if outer else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, tag, 0.0, 0.0, parent, self.op])
        stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def end(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value: float = 1.0):
        with self._lock:
            self.counts[key] += value

    def maximum(self, key: str, value: float):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def enclosing(self, name: str):
        """The innermost open span called ``name`` in this thread, or None."""
        for idx in reversed(self._stack()):
            if self.spans[idx][0] == name:
                return self.spans[idx]
        return None

    def enclosing_tag(self, name: str):
        span = self.enclosing(name)
        return None if span is None else span[1]

    def start_op(self, op: int):
        self.op = op
        self._op_stack = self._stack()
        self.op_span = self.begin("op")

    def end_op(self):
        self.end(self.op_span)
        self.op_span = None

    # -- wrapping ------------------------------------------------------------

    def span_wrapper(self, fn, name, tag=None, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, tag(args) if tag else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx)
                if observe:
                    observe(args, None, exc)
                raise
            tracer.end(idx)
            if observe:
                observe(args, result, None)
            return result
        return wrapper

    def count_wrapper(self, fn, key_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(key_fn(args))
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the public calls of every layer in every namespace."""
        import scipy.optimize
        from ehic import (cli, data_causality, iterative, model, online,
                          oracle, rates, single_user)

        def cls_of(pos):
            return lambda args: type(args[pos]).__name__

        plan = [
            ("cli.run_experiment", [cli], "run_experiment", None, None),
            ("model.validate_scenario",
             [model, cli, iterative, data_causality], "validate_scenario",
             None, None),
            ("model.feasibility_report", [model, cli], "feasibility_report",
             None, None),
            ("model.scenario_from_dict", [model, cli], "scenario_from_dict",
             None, None),
            ("model.cumulative_departure", [model, cli],
             "cumulative_departure", None, None),
            ("rates.sum_rate", [rates.RateModel], "sum_rate", None, None),
            ("single_user.solve", [single_user, iterative, online],
             "solve_single_user", cls_of(0), self._observe_solve),
            ("single_user.verify_kkt", [single_user, cli], "verify_kkt",
             cls_of(1), None),
            ("single_user.fallback", [scipy.optimize], "minimize",
             lambda args: self.enclosing_tag("single_user.solve"),
             self._observe_fallback),
            ("iterative.iterate_offline", [iterative, cli, data_causality],
             "iterate_offline", None, self._observe_iterate),
            ("iterative.build_subproblem", [iterative, cli, online],
             "build_subproblem", None, None),
            ("data_causality.solve_with_data", [data_causality],
             "solve_with_data", None, self._observe_data),
            ("data_causality.slsqp", [data_causality], "minimize", None,
             self._observe_slsqp),
            ("data_causality.resolve", [data_causality],
             "resolve_contradictions", None, None),
            ("online.value_iteration", [online], "value_iteration", None,
             self._observe_value_iteration),
            ("online.rollout", [online], "rollout_table", None,
             self._observe_rollout),
            ("online.distributed", [online], "distributed_policy", None,
             None),
            ("online.naive", [online], "naive_policy", None, None),
            ("oracle.brute_force", [oracle], "brute_force", None,
             self._observe_oracle),
        ]
        for name, owners, attr, tag, observe in plan:
            wrapper = self.span_wrapper(getattr(owners[0], attr), name, tag,
                                        observe)
            for owner in owners:
                self.patch(owner, attr, wrapper)
        for cls_name in dir(single_user):
            cls = getattr(single_user, cls_name)
            if (isinstance(cls, type)
                    and issubclass(cls, single_user.SlotUtilities)
                    and "inv_deriv" in vars(cls)):
                self.patch(cls, "inv_deriv", self.count_wrapper(
                    cls.inv_deriv,
                    lambda args: f"probes.{type(args[0]).__name__}"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observers -----------------------------------------------------------

    def _observe_solve(self, args, result, exc):
        if exc is not None:
            return
        powers, cert = result
        cls = type(args[0]).__name__
        resid = max(cert.stationarity_residual, cert.complementarity_residual)
        for prefix in ("", f"{cls}."):
            self.add(f"slots.{prefix}", len(powers))
            self.maximum(f"max_residual.{prefix}", resid)

    def _observe_fallback(self, args, result, exc):
        cls = self.enclosing_tag("single_user.solve")
        if cls is not None:
            self.add("fallback.")
            self.add(f"fallback.{cls}.")

    def _observe_iterate(self, args, result, exc):
        if exc is not None:
            return
        report = result[1]
        self.add("sweeps", report.sweeps_used)
        self.maximum("sweeps_max", report.sweeps_used)
        if self.enclosing("data_causality.solve_with_data") is not None:
            # the data solver keeps mutating this report; read it at the end
            self._local.data_report = report

    def _observe_data(self, args, result, exc):
        report = (result[1] if exc is None
                  else getattr(self._local, "data_report", None))
        self._local.data_report = None
        if report is not None and self.op >= 0:
            with self._lock:
                self.data_reports.append(report)

    def _observe_slsqp(self, args, result, exc):
        if exc is None and not result.success:
            self.add("slsqp_failed")

    def _observe_value_iteration(self, args, result, exc):
        stats, grid = args[0], args[2]
        self.add("state_action_evals", state_action_evals(stats, grid))
        self.add("dp_slots", stats.n_slots)

    def _observe_rollout(self, args, result, exc):
        if exc is not None or self.op < 0:
            return
        dp, scenario = args[0], args[1]
        grid = dp.grid
        axes = [grid.e1, grid.e2] + (
            [grid.b1, grid.b2] if grid.with_data else [])
        start = [min(u.harvest.arrivals[0], ax[-1])
                 for u, ax in zip(scenario.users, axes)]
        if grid.with_data:
            start += [0.0, 0.0]
        with self._lock:
            self.dp_tables.append((dp.values[0].copy(), axes, start, result[1]))

    def _observe_oracle(self, args, result, exc):
        from ehic.oracle import OracleOptions
        scenario = args[0]
        opts = args[2] if len(args) > 2 and args[2] is not None \
            else OracleOptions()
        self.add("oracle_transitions", oracle_transitions(scenario, opts))
        if exc is not None and type(exc).__name__ == "OracleSizeError":
            self.add("size_refusals")


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric (without the trace.* overhead figures)."""
    from scipy.interpolate import RegularGridInterpolator

    spans = tracer.spans
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        name, tag = span[0], span[1]
        dur = span[3] - span[2]
        for key in (name, f"{name}.{tag}") if tag else (name,):
            total[key] += dur
            calls[key] += 1
            own[key] += self_s
    c = tracer.counts
    m = {
        "cli.run_s": total["cli.run_experiment"],
        "cli.self_s": own["cli.run_experiment"],
        "model.validate_calls": calls["model.validate_scenario"],
        "model.validate_s": total["model.validate_scenario"],
        "model.feasibility_report_s": total["model.feasibility_report"],
        "rates.sum_rate_calls": calls["rates.sum_rate"],
        "rates.sum_rate_s": total["rates.sum_rate"],
    }
    for cls in ("",) + tuple(f"{u}." for u in UTILITY_CLASSES):
        key = "single_user.solve" + (f".{cls[:-1]}" if cls else "")
        kkt = "single_user.verify_kkt" + (f".{cls[:-1]}" if cls else "")
        n_solves = calls[key]
        probes = (sum(v for k, v in c.items() if k.startswith("probes."))
                  if not cls else c[f"probes.{cls[:-1]}"])
        slots = c[f"slots.{cls}"]
        prefix = f"single_user.{cls}"
        m[prefix + "solve_calls"] = n_solves
        m[prefix + "solve_s"] = total[key]
        m[prefix + "solve_ms_per_slot"] = (1e3 * total[key] / slots
                                           if slots else 0.0)
        m[prefix + "probes"] = probes
        m[prefix + "probes_per_solve"] = probes / n_solves if n_solves else 0.0
        m[prefix + "verify_kkt_s"] = total[kkt]
        m[prefix + "fallback_calls"] = c[f"fallback.{cls}"]
        m[prefix + "max_residual"] = c[f"max_residual.{cls}"]
    m.update({
        "iterative.calls": calls["iterative.iterate_offline"],
        "iterative.s": total["iterative.iterate_offline"],
        "iterative.self_s": own["iterative.iterate_offline"],
        "iterative.sweeps": c["sweeps"],
        "iterative.sweeps_max": c["sweeps_max"],
        "iterative.build_subproblem_s": total["iterative.build_subproblem"],
    })
    reports = tracer.data_reports
    m.update({
        "data_causality.s": total["data_causality.solve_with_data"],
        "data_causality.self_s": own["data_causality.solve_with_data"],
        "data_causality.rounds": sum(r.rounds_used for r in reports),
        "data_causality.penalized_share":
            (sum(r.rounds_used > 0 for r in reports) / len(reports)
             if reports else 0.0),
        "data_causality.slsqp_calls": calls["data_causality.slsqp"],
        "data_causality.slsqp_s": total["data_causality.slsqp"],
        "data_causality.slsqp_failed": c["slsqp_failed"],
        "data_causality.resolve_s": total["data_causality.resolve"],
        "data_causality.final_violation_max":
            max((r.final_violation for r in reports), default=0.0),
    })
    gaps = [float(RegularGridInterpolator(axes, v0)(start)[0]) - rolled
            for v0, axes, start, rolled in tracer.dp_tables]
    vi_s = total["online.value_iteration"]
    m.update({
        "online.value_iteration_s": vi_s,
        "online.value_iteration_s_per_slot":
            vi_s / c["dp_slots"] if c["dp_slots"] else 0.0,
        "online.state_action_evals": c["state_action_evals"],
        "online.rollout_s": total["online.rollout"],
        "online.table_minus_rollout": sum(gaps) / len(gaps) if gaps else 0.0,
        "online.distributed_s": total["online.distributed"],
        "online.naive_s": total["online.naive"],
        "oracle.calls": calls["oracle.brute_force"],
        "oracle.s": total["oracle.brute_force"],
        "oracle.transitions": c["oracle_transitions"],
        "oracle.size_refusals": c["size_refusals"],
    })
    return m


def write_spans(tracer: Tracer, path):
    with open(path, "w") as fh:
        fh.write("id,name,tag,start,end,parent,op\n")
        for idx, (name, tag, start, end, parent, op) in enumerate(
                tracer.spans):
            fh.write(f"{idx},{name},{tag or ''},{start!r},{end!r},"
                     f"{'' if parent is None else parent},{op}\n")
