"""turbox benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload region-map --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, timed in process CPU time; with
`--trace 1` a fixed number of rounds runs untraced, traced and untraced
again, and the metrics are the per-layer ones from the traced pass.  See
README.md in this directory.
"""

from __future__ import annotations

import common

common.pin_threads()  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
# a run that cannot reach workload.min_ok succeeded ops stops here anyway
MAX_TIMED_WALL_S = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import turbox, build the inputs, print the CPU time")
    return p.parse_args(argv)


def build(args):
    """The set-up: import turbox and build the workload's inputs."""
    tb = common.load_turbox()
    return WORKLOADS[args.workload](tb, args.seed)


def measure_setup(args):
    """Median CPU time of SETUP_REPEATS fresh processes that each start the
    interpreter, import turbox and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_cpu_s"])
    return statistics.median(samples)


def run_rounds(workload, rounds=None, seconds=None):
    """Run whole rounds: `rounds` of them, or as many as fit in `seconds`
    of wall time (a round starts only if the mean round so far still fits)
    and at least enough for `workload.min_ok` succeeded operations, up to
    MAX_TIMED_WALL_S.

    Returns (cpu_s, attempted, failed, per-op CPU samples, results, errors).
    """
    attempted = failed = ok = 0
    samples, results, errors = [], [], []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    k = 0
    while True:
        for call in workload.calls(k):
            t0 = time.process_time()
            try:
                out = call.run()
            except Exception as exc:  # counted as failed ops, reported below
                attempted += call.attempted
                failed += call.attempted
                errors.append((call.inputs, exc))
                continue
            dt = time.process_time() - t0
            n_ok = workload.succeeded(out)
            attempted += call.attempted
            failed += call.attempted - n_ok
            ok += n_ok
            if n_ok:
                samples.append(dt / n_ok)
            results.append((call, out))
        k += 1
        if rounds is not None:
            if k >= rounds:
                break
            continue
        projected = (time.perf_counter() - wall0) * (k + 1) / k
        if projected > seconds and (ok >= workload.min_ok or projected > MAX_TIMED_WALL_S):
            break
    return time.process_time() - cpu0, attempted, failed, samples, results, errors


def report_errors(errors):
    kinds = {}
    for inputs, exc in errors:
        key = f"{type(exc).__name__}: {exc}"
        if key not in kinds:
            kinds[key] = [0, inputs, exc]
        kinds[key][0] += 1
    for key, (n, inputs, exc) in kinds.items():
        print(f"failed op x{n}: {key} (first at {inputs})", file=sys.stderr)
        traceback.print_exception(exc, limit=-3, file=sys.stderr)


def quantile(samples, q):
    """Linear-interpolated quantile of the samples (numpy's default)."""
    return float(np.quantile(np.asarray(samples, dtype=float), q))


def end_to_end(args, setup_s):
    workload = build(args)
    cpu_s, attempted, failed, samples, results, errors = run_rounds(
        workload, seconds=args.seconds
    )
    problems = workload.check(results)
    report_errors(errors)
    if not samples:
        problems.append("no operation succeeded")
        samples = [0.0]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_cpu_s": ((attempted - failed) / cpu_s, "1/s"),
        "op_cpu_ms.p50": (1e3 * quantile(samples, 0.50), "ms"),
        "op_cpu_ms.p95": (1e3 * quantile(samples, 0.95), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print(f"{args.workload}: {attempted} ops ({failed} failed) in {cpu_s:.2f} CPU s, "
          f"{len(samples)} timed samples", file=sys.stderr)
    return problems, attempted, failed, metrics


def clear_turbox_caches():
    """Empty every memo cache (`functools.lru_cache`) in turbox's modules."""
    for name, mod in list(sys.modules.items()):
        if name == "turbox" or name.startswith("turbox."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def traced(args):
    from tracer import Tracer, layer_metrics

    workload = build(args)
    rounds = workload.trace_rounds

    def fresh_pass():
        clear_turbox_caches()
        return run_rounds(workload, rounds=rounds)

    # untraced, traced, untraced, each from empty caches like a timed run:
    # the overhead is taken against the mean of the two plain passes, so a
    # slow drift of the machine cancels
    plain_cpu = fresh_pass()[0]
    tracer = Tracer()
    with tracer.install():
        cpu_s, attempted, failed, _, results, errors = fresh_pass()
    plain_cpu = 0.5 * (plain_cpu + fresh_pass()[0])
    problems = workload.check(results)
    report_errors(errors)
    path = common.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv"
    tracer.write(path)
    metrics = layer_metrics(tracer)
    metrics["trace.spans"] = (len(tracer.span_name), "count")
    metrics["trace.overhead_pct"] = (100.0 * (cpu_s / plain_cpu - 1.0), "%")
    print(f"{args.workload}: {rounds} rounds traced, {len(tracer.span_name)} spans "
          f"written to {path}; untraced {plain_cpu:.2f} CPU s (mean), traced {cpu_s:.2f}",
          file=sys.stderr)
    return problems, attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    warnings.filterwarnings("ignore", message="bifurcation_curves: skipped")
    try:
        if args.setup_only:
            build(args)
            print(json.dumps({"setup_cpu_s": time.process_time()}))
            return 0
        if not (common.SRC / "turbox" / "__init__.py").is_file():
            raise common.MissingSources(f"no turbox sources under {common.SRC}")
        if args.trace:
            problems, attempted, failed, metrics = traced(args)
        else:
            setup_s = measure_setup(args)
            problems, attempted, failed, metrics = end_to_end(args, setup_s)
    except common.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
