"""Benchmark of bandlim's transform engine.

    python3 bench/run.py --workload inverse-point --seed 1 --seconds 15 --trace 0

Runs one workload in this process, on one thread, as a closed loop: each
operation starts when the previous one has returned.  A run builds the
workload's fixed list of operations from --seed, runs it once untimed to
warm caches, then runs whole timed passes over the same list until --seconds
have passed and the passes hold TAIL_BEYOND calls beyond the workload's tail
percentile.  Every result is checked against an oracle from oracles.py.

--trace 0 prints the end-to-end metrics; --trace 1 instead runs one untimed
pass, then two passes with every layer function wrapped (tracing.py), checks
that the traced results are bit-identical to the untraced ones and that the
two traced passes count the same work, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details go to bench/out/.  See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 25
TAIL_BEYOND = 10        # samples a run always has beyond the tail percentile
DIGITS_CAP = 12.0       # accuracy_digits never reads above this

# what a user pays before the first result: import, config, measured C*
_SETUP_PROBE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import bandlim
config = bandlim.TransformConfig()
c_star = bandlim.calibrate_normalization(config)
print(time.perf_counter() - start, c_star, bandlim.__file__)
"""


def import_bandlim():
    """bandlim from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "bandlim", "__init__.py")):
        sys.exit(f"bench: no bandlim sources under {SRC}")
    sys.path.insert(0, SRC)
    import bandlim
    import bandlim.cli  # noqa: F401
    if not os.path.abspath(bandlim.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported bandlim from {bandlim.__file__}, not {SRC}")
    return bandlim


def measure_setup():
    """Median set-up time over fresh interpreters, and whether each C* = 2 pi."""
    times, ok = [], True
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, SRC], check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        times.append(float(out[0]))
        ok &= oracles.rel_error(float(out[1]), oracles.C_STAR) <= workloads.CALIBRATION_BAND
        ok &= os.path.abspath(out[2]).startswith(SRC + os.sep)
    return statistics.median(times), ok


def fingerprint(result):
    if isinstance(result, bytes):
        return result
    return np.asarray(getattr(result, "coeffs", result)).tobytes()


def run_pass(ops, failure):
    """Run every op once; per-op latency, failure, oracle error, fingerprint."""
    clock = time.perf_counter
    rows = []
    for op in ops:
        start = clock()
        try:
            raw = op.call()
        except failure as exc:
            elapsed = clock() - start
            rows.append((elapsed, True, None, repr((exc, exc.last_values)).encode()))
            continue
        elapsed = clock() - start
        result = op.finish(raw)
        if result is None:
            rows.append((elapsed, True, None, repr(raw).encode()))
        else:
            rows.append((elapsed, False, op.error(result), fingerprint(result)))
    return rows


def check_passes(ops, passes):
    """True when every pass matches the first bit for bit, no op fails but
    those known to, and every successful op is within its band.  Also
    returns the worst error."""
    ok, worst = True, 0.0
    first = passes[0]
    for rows in passes:
        for op, row, ref in zip(ops, rows, first):
            _, failed, err, fp = row
            ok &= failed == ref[1] and fp == ref[3]
            ok &= op.may_fail or not failed
            if not failed:
                ok &= err <= op.band
                worst = max(worst, err)
    return ok, worst


def harrell_davis(sorted_values, q):
    """The q-quantile as the Harrell-Davis weighted mean of order statistics.

    Latencies here cluster by operation cost with gaps between the clusters;
    a single order statistic jumps across a gap when one operation moves, the
    weighted mean moves by a fraction of it.  The weights are the Beta(a, b)
    mass of each interval ((i-1)/n, i/n], from the trapezoid rule on a grid
    of `fine` points per interval.
    """
    n, fine = len(sorted_values), 64
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    x = np.linspace(0.0, 1.0, fine * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::fine]) / cdf[-1]
    return float(np.dot(weights, sorted_values))


def end_to_end(ops, passes, setup_s, tail_q):
    calls_ms = sorted(1e3 * row[0] for p in passes for row in p)
    pass_s = statistics.median(sum(row[0] for row in p) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / pass_s, "1/s"),
        "latency_p50_ms": (harrell_davis(calls_ms, 0.5), "ms"),
        "latency_tail_ms": (harrell_davis(calls_ms, tail_q), "ms"),
    }
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    _, worst = check_passes(ops, passes)
    digits = DIGITS_CAP if worst <= 10 ** -DIGITS_CAP else -math.log10(worst)
    metrics["accuracy_digits"] = (digits, "digits")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bandlim = import_bandlim()
    oracles.self_check()
    setup_s, setup_ok = (None, True) if args.trace else measure_setup()

    config = bandlim.TransformConfig()
    bandlim.calibrate_normalization(config)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    try:
        ops = workloads.WORKLOADS[args.workload](bandlim, config, args.seed, workdir)
        failure = bandlim.ConvergenceError
        warm = run_pass(ops, failure)
        report = {"workload": args.workload, "seed": args.seed,
                  "ops": [op.label for op in ops]}
        if args.trace:
            correct, measured, metrics = traced_run(bandlim, ops, failure, warm, report)
        else:
            tail_q = workloads.TAIL_Q[args.workload]
            min_samples = round(TAIL_BEYOND / (1 - tail_q))
            timed, start = [], time.perf_counter()
            while (time.perf_counter() - start < args.seconds
                   or len(timed) * len(ops) < min_samples):
                timed.append(run_pass(ops, failure))
            correct, _ = check_passes(ops, [warm] + timed)
            correct &= setup_ok
            measured = timed
            metrics = end_to_end(ops, timed, setup_s, tail_q)
            report["latency_s"] = [[row[0] for row in p] for p in timed]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for p in measured)
    failed = sum(row[1] for p in measured for row in p)
    report["errors"] = [row[2] for row in measured[0]]
    report.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(report, fh, indent=1)
    if not correct:
        print("bench: an operation failed unexpectedly, missed its oracle band "
              "or changed between passes",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(bandlim, ops, failure, warm, report):
    """One untraced pass, then two traced passes; per-layer metrics of the first."""
    plain = run_pass(ops, failure)
    tracers, traced = [], []
    for _ in range(2):
        tracer = tracing.Tracer(bandlim)
        tracer.install()
        try:
            traced.append(run_pass(ops, failure))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    plain_s, traced_s = (sum(row[0] for row in p) for p in (plain, traced[0]))
    correct, _ = check_passes(ops, [warm, plain] + traced)
    repeat = tracers[0].counters() == tracers[1].counters()
    if not repeat:
        print("bench: two traced passes counted different work", file=sys.stderr)
    overhead = traced_s / plain_s
    print(f"bench: tracing overhead {overhead:.3f}x ({traced_s:.2f} s traced, "
          f"{plain_s:.2f} s untraced pass)", file=sys.stderr)
    report.update(untraced_pass_s=plain_s, traced_pass_s=traced_s,
                  functions=tracers[0].table(), counters=tracers[0].counters())
    return correct and repeat, traced[:1], tracers[0].metrics()


if __name__ == "__main__":
    sys.exit(main())
