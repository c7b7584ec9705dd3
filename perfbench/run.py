"""Benchmark for visco_impact: one seeded workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form-grid --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one pass untraced and the same pass traced and prints
the per-layer metrics (see NOTES.md).  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 unless a check fails on a case outside the listed known
seed failures, or the package cannot be imported.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # never write into src/ or perfbench/

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
# Each case's latency is a median of three runs, except on oracle-crossval:
# one pass of it is about 20 s of op time on the reference machine.
MIN_PASSES = {"closed-form-grid": 3, "oracle-crossval": 1, "cli-batch": 3}
SETUP_PROBES = 5
# Address-space cap: what the process maps after import, plus this much.
AS_HEADROOM = 1 << 30
# No new op starts this long after the timed loop began.
HARD_LIMIT_S = 120.0
GATE_SAMPLE = 3
# Other tenants slow the reference machine by up to 2x, for seconds to
# minutes.  A fixed calibration kernel runs between ops, and each op's
# latency is scaled by CAL_REF_S over the kernel's time around it;
# CAL_REF_S is the kernel's time on the reference machine when not slowed.
CAL_REF_S = 1.5e-3
CAL_INTERVAL_S = 0.05
CAL_REPEATS = 3

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "failed_frac": "frac",
    "setup_s": "s", "peak_rss_mb": "MB",
}
FAILURE_CLASSES = ("MemoryError", "ValueError", "PlasticImpactError", "DiscriminantError",
                   "NoSeparationError", "CheckFailed", "OracleMismatch")


def calibration_kernel():
    """Fixed mix of interpreter arithmetic and small NumPy calls, like an op's."""
    import math

    import numpy as np

    a = np.linspace(0.0, 1.0, 256)
    s = 0.0
    for i in range(400):
        s += math.sin(i * 0.01) * math.exp(-i * 0.001)
        a = np.sin(a) * 0.5 + 0.25
    return s + float(a[0])


def calibrate():
    """Median time of a few calibration kernel runs, in seconds."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("closed-form-grid", "oracle-crossval", "cli-batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cases", type=int,
                    help="smoke test: one pass over only the first CASES cases")
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate the workload, then exit (timed by the parent)")
    return ap.parse_args(argv)


def import_modules():
    if not (ROOT / "src" / "visco_impact" / "__init__.py").is_file():
        raise ImportError(f"no visco_impact package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    return workloads, tracing


def git_commit():
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args, as_cap):
    import numpy
    import scipy

    cpu = os.cpu_count()
    threads = os.environ.get("VISCO_IMPACT_THREADS")
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": cpu,
        # The package's sweep pool: min(8, os.cpu_count()) unless overridden.
        "sweep_pool": int(threads) if threads else min(8, cpu or 1),
        "visco_impact_threads": threads, "as_cap_bytes": as_cap,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
    }


def cap_address_space():
    """Cap this process's address space; returns the cap in bytes."""
    try:
        with open("/proc/self/status") as fh:
            vm = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
    except (OSError, StopIteration):
        return None
    cap = vm + AS_HEADROOM
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def measure_setup(args):
    """Median wall time of fresh processes that import and generate.

    Not scaled by the calibration kernel: on the reference machine that
    more than doubled the spread of the probe times (see NOTES.md).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


class Runner:
    """Runs passes over the cases and keeps per-op outcomes."""

    def __init__(self, wl, cases, rng):
        self.wl, self.cases, self.rng = wl, cases, rng
        self.case_failure = {}  # case index -> failure class from its checks
        self.messages = {}
        self.oracle_errors = []

    def run_pass(self, tr, checking, deadline):
        """One pass; an op is ``[case index, latency, failure, scaled latency]``."""
        ops = []
        cals = [calibrate()]
        last_cal = time.perf_counter()
        for idx, case in enumerate(self.cases):
            if time.perf_counter() > deadline:
                break
            if time.perf_counter() - last_cal > CAL_INTERVAL_S:
                cals.append(calibrate())
                last_cal = time.perf_counter()
            t0 = time.perf_counter()
            try:
                with tr.op(idx):
                    out = self.wl.OPS[case.kind](case, tr)
                exc = None
            except Exception as e:  # an op's failure is counted; the run goes on
                out, exc = None, e
            latency = time.perf_counter() - t0
            cls = None
            if exc is not None:
                if case.separates or not isinstance(exc, self.wl.vi.ViscoImpactError):
                    cls = type(exc).__name__
                    self.messages.setdefault((idx, cls), str(exc)[:200])
            elif checking:
                try:
                    err = self.wl.check(case, out, tr, self.rng)
                    if err is not None and case.known is None:
                        self.oracle_errors.append(err)
                except self.wl.CheckFailed as e:
                    self.case_failure[idx] = "CheckFailed"
                    self.messages.setdefault((idx, "CheckFailed"), str(e)[:200])
            ops.append([idx, latency, cls, len(cals) - 1])
        cals.append(calibrate())
        for op in ops:
            # The calibrations just before and just after the op bracket it.
            j = op[3]
            op[3] = op[1] * CAL_REF_S / (0.5 * (cals[j] + cals[j + 1]))
        return ops

    def settle(self, ops):
        for op in ops:
            if op[2] is None:
                op[2] = self.case_failure.get(op[0])
        return ops

    def gate(self):
        """Untimed oracle check of a seeded subsample of closed-form results."""
        wl = self.wl
        picks = []
        for kind in ("kv", "mx", "sls", "simulate"):
            pool = [i for i, c in enumerate(self.cases) if c.kind == kind
                    and i not in self.case_failure and wl.gate_candidate(c)]
            if pool:
                picks.append(int(self.rng.choice(pool)))
        for idx in picks[:GATE_SAMPLE]:
            try:
                err = wl.gate_error(self.cases[idx])
                msg = f"closed form and oracle differ by {err:.3g}"
            except Exception as e:  # the oracle or the closed form failed here
                err, msg = float("inf"), f"{type(e).__name__}: {e}"
            if err > wl.TOL_ORACLE:
                self.case_failure[idx] = "OracleMismatch"
                self.messages.setdefault((idx, "OracleMismatch"), msg)
            else:
                self.oracle_errors.append(err)


def case_latencies(ops, scaled=True):
    """One latency per case: the median of its scaled runs, or the fastest
    of its unscaled runs (slowdowns only ever add time)."""
    import numpy as np

    runs = {}
    for op in ops:
        runs.setdefault(op[0], []).append(op[3] if scaled else op[1])
    pick = statistics.median if scaled else min
    return np.array([pick(v) for v in runs.values()])


def end_to_end(ops, setup_s, rss_kb):
    """End-to-end metrics over the per-case latencies (see NOTES.md)."""
    import numpy as np

    lat = case_latencies(ops)
    return {
        "ops_per_s": lat.size / float(lat.sum()),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "failed_frac": sum(op[2] is not None for op in ops) / len(ops),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(tracing, spans, traced, untraced, oracle_errors, pool):
    """Per-layer metrics of one traced pass; see NOTES.md for each."""
    by = {}
    for name, a, b, _, op_id, counts in spans:
        # Library calls made by the checks are not op work, except the two
        # layers only the checks reach.
        if op_id is not None or name in ("biphasic.reduce", "analysis.report"):
            by.setdefault(name, []).append((b - a, counts))

    def count(name):
        return len(by.get(name, ()))

    def total(name, pred=lambda c: True):
        return sum(d for d, c in by.get(name, ()) if pred(c))

    def summed(name, key):
        return sum(c.get(key) or 0 for _, c in by.get(name, ()))

    def mean(name, scale):
        return scale * total(name) / count(name) if count(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    op_time = sum(op[1] for op in traced)
    search = by.get("_search.first_force_zero", ())
    # Only scans that ran: a call that raised (an unallocatable grid) would
    # outweigh every other call by orders of magnitude.
    grid = [c["grid_points"] for _, c in search if c.get("returned")]
    cli_cmds = ("simulate", "sweep", "biphasic", "analyze")
    cli_time = sum(total(f"cli.{c}") for c in cli_cmds)
    oracle_time = sum(total(n) for n in by if n.startswith("oracle."))
    m = {
        "models.construct_us": (mean("models.construct", 1e6), "us"),
        "models.to_csv_ms_per_krow": (ratio(1e6 * total("models.to_csv"), summed("models.to_csv", "rows")), "ms"),
        "models.from_csv_ms_per_krow": (ratio(1e6 * total("models.from_csv"), summed("models.from_csv", "rows")), "ms"),
        "models.csv_bytes": (ratio(summed("models.to_csv", "bytes"), count("models.to_csv")), "B"),
        "kelvin_voigt.metrics_us": (mean("kelvin_voigt.metrics", 1e6), "us"),
        "kelvin_voigt.drop_trajectory_us": (mean("kelvin_voigt.drop_trajectory", 1e6), "us"),
        "maxwell.metrics_us": (mean("maxwell.metrics", 1e6), "us"),
        "maxwell.drop_trajectory_us": (mean("maxwell.drop_trajectory", 1e6), "us"),
        "standard_solid.roots_us": (mean("standard_solid.roots", 1e6), "us"),
        "standard_solid.metrics_us": (mean("standard_solid.metrics", 1e6), "us"),
        "standard_solid.trajectory_us": (mean("standard_solid.trajectory", 1e6), "us"),
        "standard_solid.peak_polish_ms": (ratio(1e3 * total("standard_solid.golden"), count("standard_solid.metrics")), "ms"),
        "search.calls": (len(search), "count"),
        "search.busy_ms": (1e3 * total("_search.first_force_zero"), "ms"),
        "search.share": (ratio(total("_search.first_force_zero"), op_time), "frac"),
        "search.grid_points_sum": (float(sum(grid)), "count"),
        "search.grid_points_max": (float(max(grid, default=0)), "count"),
        "search.tangency_polishes": (count("_search.minimize_scalar"), "count"),
    }
    steps = {k: summed(f"oracle.{k}", "steps") for k in ("exp_sum", "kv_limit", "table")}
    for kind in ("exp_sum", "kv_limit", "table"):
        m[f"oracle.calls.{kind}"] = (count(f"oracle.{kind}"), "count")
    m["oracle.steps"] = (sum(steps.values()), "count")
    for kind in ("exp_sum", "kv_limit", "table"):
        busy = total(f"oracle.{kind}", lambda c: c.get("steps"))
        m[f"oracle.ns_per_step.{kind}"] = (ratio(1e9 * busy, steps[kind]), "ns")
    m["oracle.table_history_madds"] = (
        sum(c["steps"] * (c["steps"] + 1) for _, c in by.get("oracle.table", ()) if c.get("steps")),
        "count")
    m["oracle.busy_share"] = (ratio(oracle_time, op_time), "frac")
    m["oracle.max_abs_err"] = (max(oracle_errors, default=0.0), "1")
    m["biphasic.reduce_us"] = (mean("biphasic.reduce", 1e6), "us")
    m["analysis.report_ms"] = (mean("analysis.report", 1e3), "ms")
    for c in cli_cmds:
        m[f"cli.cmd_ms.{c}"] = (mean(f"cli.{c}", 1e3), "ms")
    m["cli.sweep_points_per_s"] = (ratio(summed("cli.sweep", "points"), total("cli.sweep")), "1/s")
    m["cli.sweep_pool_efficiency"] = (
        ratio(summed("cli.sweep", "cpu"), total("cli.sweep") * pool), "frac")
    m["cli.csv_write_share"] = (
        ratio(total("models.to_csv") + total("cli.write_rows"), cli_time), "frac")
    classes = [op[2] for op in traced if op[2] is not None]
    for cls in FAILURE_CLASSES:
        m[f"failures.{cls}"] = (classes.count(cls), "count")
    m["failures.other"] = (sum(c not in FAILURE_CLASSES for c in classes), "count")
    m["failures.time_share"] = (ratio(sum(op[1] for op in traced if op[2]), op_time), "frac")
    m["trace.coverage"] = (tracing.coverage(spans), "frac")
    # Median over ops of traced / untraced latency of the same case, so a
    # few long ops cannot hide or fake the per-span cost.
    base = {op[0]: op[3] for op in untraced}
    rel = [op[3] / base[op[0]] for op in traced if base.get(op[0])]
    m["trace.overhead_frac"] = (statistics.median(rel) - 1.0 if rel else 0.0, "frac")
    return m


def report(args, env, ops, metrics, runner, passes, wall):
    n = len({op[0] for op in ops})  # latency samples: one per case
    print(f"workload {args.workload}, seed {args.seed}: {passes} pass(es) of "
          f"{len(runner.cases)} cases, {len(ops)} ops, {wall:.1f} s")
    by_class = {}
    for op in ops:
        if op[2] is not None:
            key = (op[2], runner.cases[op[0]].known or "UNKNOWN")
            by_class[key] = by_class.get(key, 0) + 1
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "op_p50_ms":
            extra = f"  (n={n})"
        elif name == "op_p90_ms":
            extra = f"  (n={n}, {n - int(0.9 * n)} beyond)"
        print(f"  {name} = {value:.6g} {unit}{extra}")
    if not args.trace:
        import numpy as np

        raw = case_latencies(ops, scaled=False)
        print(f"  unscaled, fastest run per case: ops_per_s = {raw.size / raw.sum():.6g} 1/s, "
              f"op_p50_ms = {1e3 * np.percentile(raw, 50):.6g} ms, "
              f"op_p90_ms = {1e3 * np.percentile(raw, 90):.6g} ms")
    for (cls, known), k in sorted(by_class.items()):
        print(f"  failed ops: {k} x {cls} [{known}]")
    print("env: " + json.dumps(env))


def main(argv=None):
    args = parse_args(argv)
    t_start = time.perf_counter()
    try:
        wl, tracing = import_modules()
    except ImportError as e:
        print(f"perfbench: cannot import the package: {e}", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        cases = wl.generate(args.workload, args.seed, str(tmp))
        if args.setup_probe:
            return 0
        own_setup = time.perf_counter() - t_start
        if args.cases is not None:
            cases = cases[: args.cases]
        setup_s, probes = measure_setup(args)
        as_cap = cap_address_space()
        env = environment(args, as_cap)
        env["setup_probes_s"] = probes
        env["own_setup_s"] = own_setup
        rng = wl.np.random.default_rng([args.seed, 99])
        runner = Runner(wl, cases, rng)

        t0 = time.perf_counter()
        deadline = t0 + HARD_LIMIT_S
        if args.trace:
            untraced = runner.run_pass(tracing.NULL_TRACER, False, deadline)
            tr = tracing.Tracer()
            with tracing.wrapped(tr):
                traced = runner.run_pass(tr, True, deadline)
            ops, passes = traced, 2
        else:
            ops, passes = [], 0
            while True:
                ops += runner.run_pass(tracing.NULL_TRACER, passes == 0, deadline)
                passes += 1
                enough = args.cases is not None or (
                    len(ops) >= MIN_OPS and passes >= MIN_PASSES[args.workload])
                now = time.perf_counter()
                if (now - t0 >= args.seconds and enough) or now > deadline:
                    break
        wall = time.perf_counter() - t0
        rss_ops = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runner.gate()
        runner.settle(ops)
        if args.trace:
            runner.settle(untraced)
            metrics = per_layer(tracing, tr.spans, traced, untraced, runner.oracle_errors,
                                env["sweep_pool"])
        else:
            e2e = end_to_end(ops, setup_s, rss_ops)
            metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
        unknown = sorted({(op[2], op[0]) for op in ops if op[2] and cases[op[0]].known is None})
        correct = not unknown
        report(args, env, ops, metrics, runner, passes, wall)
        for cls, idx in unknown[:10]:
            msg = runner.messages.get((idx, cls), "")
            print(f"  UNEXPECTED {cls} on case {idx} {cases[idx].kind} {cases[idx].args}: {msg}",
                  file=sys.stderr)
        result = {
            "correct": correct, "attempted": len(ops),
            "failed": sum(op[2] is not None for op in ops),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        with open(OUT / f"result-{stem}.json", "w") as fh:
            json.dump({"env": env, **result}, fh, indent=1)
        if args.trace:
            with open(OUT / f"trace-{stem}.json", "w") as fh:
                json.dump({"env": env, "self_time_s": tracing.self_times(tr.spans),
                           "spans": [s[:5] for s in tr.spans]}, fh)
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
