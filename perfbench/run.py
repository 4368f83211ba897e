"""ehic benchmark: CLI workloads run in-process, outputs checked per op.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig8_batch --seed 0 --seconds 30 --trace 0

An op is one ``ehic.cli.main([...])`` call; a scenario is one input carried
through the workload's solver set.  The timed phase runs whole passes over
the seed's units (see ``workloads.py``), as many as fill ``--seconds`` at
the units' recorded costs (``pass_count``), and checks every op's output
afterwards.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1``
runs the passes of half of ``--seconds`` untraced, then the warm-up ops and
as many passes traced, and prints the per-layer metrics (see
``tracing.py``) with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is false
only when an op exits 0 with a summary claiming a feasible result that the
check finds wrong; ops that fail loudly (non-zero exit, an exception, or a
summary that flags its own policy infeasible) count in ``failed`` instead.
Human-readable lines before it give every metric with its unit, the
environment and the failed ops; the full record is written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a machine with few cores (two here), a multi-threaded
# BLAS beside the program's own --jobs threads measures the scheduler; it
# made solve-data ops slower and their times less steady.  Set before numpy
# is imported; the fresh interpreters started below inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
END_TO_END_UNITS = {"scenarios_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


def import_ehic():
    """Import ``ehic.cli`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ehic" / "cli.py").is_file():
        raise SetupError(f"no ehic sources under {src}")
    sys.path.insert(0, str(src))
    import ehic.cli
    if Path(ehic.cli.__file__).resolve().parent != (src / "ehic").resolve():
        raise SetupError(f"imported ehic from {ehic.cli.__file__}")
    return ehic.cli


def setup(workload: str, seed: int, work: Path):
    """Import the program, write the seed's scenario files, load references
    and run every op kind once on a tiny instance.

    Returns ``(cli, plan, seconds)``; ``plan`` lists (unit, scenario doc,
    ops) in run order.
    """
    t0 = time.perf_counter()
    cli = import_ehic()
    import workloads
    refs = workloads.load_references()
    plan = []
    scen_dir = work / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    for unit in workloads.select_units(workload, seed, refs):
        doc = path = None
        if unit["kind"] != "fig8":
            doc = workloads.scenario_doc(unit)
            path = scen_dir / f"{unit['id']}.json"
            with open(path, "w") as fh:
                json.dump(doc, fh)
        plan.append((unit, doc, workloads.unit_ops(unit, str(path))))
    for name, doc in workloads.WARMUP_DOCS.items():
        with open(scen_dir / f"warmup-{name}.json", "w") as fh:
            json.dump(doc, fh)
    warm_up(cli, work)
    return cli, plan, time.perf_counter() - t0


def warm_up(cli, work: Path, tracer=None):
    """Run every op kind once on the four-slot instances of ``setup``.

    Traced, the ops get negative op ids, so that every layer shows a
    measured time on every workload.
    """
    import workloads
    for k, argv in enumerate(workloads.warmup_ops(work / "scenarios"),
                             start=1):
        if tracer is not None:
            tracer.start_op(-k)
        rc, err = call_cli(cli, argv + ["--out", str(work / "warmup")])
        if tracer is not None:
            tracer.end_op()
        if rc != 0:
            raise SetupError(f"warm-up op {argv} exited {rc}: {err}")


def call_cli(cli, argv):
    """One op: ``cli.main(argv)`` with its output captured; (rc, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed op, not a crash
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, err.getvalue()


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the pool's recorded costs.

    A pass is costed as the sum over strata of the stratum's mean unit cost,
    so the count depends only on the workload and ``--seconds``: every seed
    and every run of a workload attempts the same number of passes, however
    fast the machine or the commit runs.
    """
    import workloads
    entry = workloads.load_references()["workloads"][workload]
    cost = workloads.expected_pass_cost(entry)
    return max(1, round(seconds / cost))


def run_passes(cli, plan, work: Path, passes: int, tracer=None):
    """``passes`` whole passes over the plan.

    Returns (records, wall seconds); a record is
    [unit, doc, op name, out dir, rc, stderr, op seconds, pass index].
    """
    records = []
    wall = 0.0
    for n_pass in range(passes):
        t_pass = time.perf_counter()
        for unit, doc, ops in plan:
            for name, argv in ops:
                out = work / "out" / f"{len(records)}"
                if tracer is not None:
                    tracer.start_op(len(records))
                t0 = time.perf_counter()
                rc, err = call_cli(cli, argv + ["--out", str(out)])
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                records.append([unit, doc, name, out, rc, err, dt, n_pass])
        wall += time.perf_counter() - t_pass
    return records, wall


def check_op(unit, doc, name, rc, out, ref):
    """Check one op's output against the unit's reference entry."""
    import checks
    if name == "fig8":
        return checks.check_fig8_op(rc, out, unit["start"], unit["count"],
                                    ref["reference_bits"])
    return checks.check_policy_op(name, rc, out, doc, ref["reference_nats"])


def check_records(records, refs):
    """Check every op; returns (checks, passed scenarios)."""
    results = []
    passed = 0
    by_unit = {}
    for unit, doc, name, out, rc, _err, _dt, n_pass in records:
        chk = check_op(unit, doc, name, rc, out, refs[unit["id"]])
        results.append(chk)
        by_unit.setdefault((n_pass, unit["id"]), []).append(chk)
    for chks in by_unit.values():
        if len(chks) == 1:
            passed += chks[0].passed
        else:
            passed += int(all(c.ok for c in chks))
    return results, passed


def op_times(records) -> list:
    """One time per op of the pass: its median over the run's passes."""
    times = {}
    for unit, _doc, name, _out, _rc, _err, dt, _pass in records:
        times.setdefault((unit["id"], name), []).append(dt)
    return [statistics.median(v) for v in times.values()]


def tail(times):
    """Highest percentile with at least ten ops beyond it: (value, label).

    Below twenty ops that percentile lies under the median; the mean of the
    slowest quarter of the ops (at least two) is reported instead.
    """
    ranked = sorted(times)
    n = len(ranked)
    if n >= 20:
        return ranked[n - 11], f"p{100.0 * (n - 10) / n:.1f}, n={n}"
    k = max(2, math.ceil(n / 4))
    return (sum(ranked[-k:]) / k,
            f"mean of the slowest {k} of n={n}; no percentile above p50 "
            "has ten ops beyond it")


def environment() -> dict:
    import numpy
    import scipy

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"git_sha": git("rev-parse", "HEAD") or
            "unknown (not a git checkout)",
            "src_tree": git("rev-parse", "HEAD:src") or "unknown",
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def setup_samples(workload, seed, work, first):
    """Median set-up time over the main process and fresh interpreters.

    The import of ``ehic`` and its dependencies only repeats in a new
    interpreter, so each further sample runs this script with
    ``--setup-only``.
    """
    samples = [first]
    for k in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed),
             "--work", str(work / f"setup{k}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def summarize(records, checks_, passed, wall):
    times = op_times(records)
    failed = sum(not c.ok for c in checks_)
    gaps = [g for c in checks_ for g in c.gaps]
    value, label = tail(times)
    return {
        "scenarios_per_s": passed / wall,
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "tail": label,
        "pass_ops": len(times),
        "ops": len(records),
        "passed_scenarios": passed,
        "wall_s": wall,
        "failed_ops": failed,
        "failed_frac": failed / len(records),
        "objective_rel_gap": sum(gaps) / len(gaps) if gaps else None,
        "gap_count": len(gaps),
        "correct": not any(c.silent for c in checks_),
    }


def failure_lines(records, checks_, limit=8):
    lines = []
    for rec, chk in zip(records, checks_):
        if not chk.ok:
            unit, name, rc, err = rec[0], rec[2], rec[4], rec[5]
            why = "; ".join(chk.problems[:2])
            extra = f" [{err.strip().splitlines()[-1][:120]}]" if err.strip() \
                else ""
            lines.append(f"  failed op: {name} {unit['id']}: {why}{extra}")
    if len(lines) > limit:
        lines = lines[:limit] + [f"  ... {len(lines) - limit} more"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter, print "
                        "its seconds and exit (a setup_s sample)")
    parser.add_argument("--work", help="work directory for --setup-only")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_only:
        _cli, _plan, seconds = setup(args.workload, args.seed, Path(args.work))
        print(repr(seconds))
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        return _run(args, work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _run(args, work: Path) -> int:
    import workloads
    cli, plan, first_setup = setup(args.workload, args.seed, work)
    refs = {u["id"]: u for u in workloads.load_references()["workloads"]
            [args.workload]["units"]}
    env = environment()
    head = (f"perfbench workload={args.workload} seed={args.seed} "
            f"trace={args.trace} units={len(plan)}")
    print(head)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "units": [u["id"] for u, _, _ in plan]}

    if args.trace:
        metrics, stats = _traced(args, cli, plan, work, refs, record)
    else:
        metrics, stats = _untraced(args, cli, plan, work, refs, record,
                                   first_setup)
    for line in failure_lines(*stats["failures"]):
        print(line)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["metrics"] = metrics
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({
        "correct": stats["correct"], "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                    in metrics.items()}}))
    return 0


def _untraced(args, cli, plan, work, refs, record, first_setup):
    records, wall = run_passes(cli, plan, work,
                               pass_count(args.workload, args.seconds))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, samples = setup_samples(args.workload, args.seed, work,
                                     first_setup)
    checks_, passed = check_records(records, refs)
    s = summarize(records, checks_, passed, wall)
    gap = s["objective_rel_gap"]
    lines = [
        ("scenarios_per_s", s["scenarios_per_s"], "1/s",
         f"{passed} passed scenarios / {wall:.3f} s, "
         f"{records[-1][7] + 1} pass(es)"),
        ("op_p50_s", s["op_p50_s"], "s",
         f"n={s['pass_ops']} ops, each its median over the passes"),
        ("op_tail_s", s["op_tail_s"], "s", s["tail"]),
        ("setup_s", setup_s, "s",
         "median of " + ", ".join(f"{x:.4f}" for x in samples)),
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
        ("failed_frac", s["failed_frac"], "ratio",
         f"{s['failed_ops']} of {s['ops']} ops"),
        ("objective_rel_gap", gap if gap is not None else float("nan"),
         "ratio", f"mean over {s['gap_count']} scenario outputs"),
    ]
    for name, value, unit, note in lines:
        print(f"  {name:<18} {value:>14.6g} {unit:<6} ({note})")
    record.update(summary=s, setup_samples=samples,
                  op_times=[[r[0]["id"], r[2], r[6], r[4]] for r in records])
    metrics = {name: (value, unit) for name, value, unit, _ in lines
               if name in END_TO_END_UNITS}
    return metrics, {"correct": s["correct"], "attempted": s["ops"],
                     "failed": s["failed_ops"],
                     "failures": (records, checks_)}


def _traced(args, cli, plan, work, refs, record):
    import tracing
    half = pass_count(args.workload, args.seconds / 2)
    base, base_wall = run_passes(cli, plan, work / "untraced", half)
    base_checks, base_passed = check_records(base, refs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        warm_up(cli, work, tracer)
        records, wall = run_passes(cli, plan, work / "traced", half,
                                   tracer)
    finally:
        tracer.uninstall()
    checks_, passed = check_records(records, refs)
    layer = tracing.layer_metrics(tracer)
    traced_sps = passed / wall
    untraced_sps = base_passed / base_wall
    layer["trace.scenarios_per_s"] = traced_sps
    layer["trace.untraced_scenarios_per_s"] = untraced_sps
    layer["trace.overhead_frac"] = 1.0 - traced_sps / untraced_sps \
        if untraced_sps else 0.0
    units = {name: unit for name, unit, _b, _m in tracing.LAYER_METRICS}
    for name, unit, _better, moves in tracing.LAYER_METRICS:
        print(f"  {name:<48} {layer[name]:>14.6g} {unit:<12} ({moves})")
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(tracer, OUT / f"spans-{args.workload}-seed"
                        f"{args.seed}.csv")
    failed = sum(not c.ok for c in checks_ + base_checks)
    record.update(spans=len(tracer.spans))
    metrics = {name: (layer[name], units[name]) for name in units}
    return metrics, {
        "correct": not any(c.silent for c in checks_ + base_checks),
        "attempted": len(records) + len(base), "failed": failed,
        "failures": (base + records, base_checks + checks_)}


if __name__ == "__main__":
    sys.exit(main())
