"""spheremodes benchmark: one workload per run, one caller in a closed loop.

    python3 bench/run.py --workload warm-stream --seed 1 --seconds 30 --trace 0

Run from the repository root (the package is imported from ./src). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (which also writes every span to
bench/out/trace-<workload>-seed<seed>.npz). See bench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="warm-stream, cold-spheres or file-pipeline")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import spheremodes from this checkout's src, never from elsewhere."""
    if not (SRC / "spheremodes" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'spheremodes'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import spheremodes

    if Path(spheremodes.__file__).resolve().parent != SRC / "spheremodes":
        raise SystemExit(f"error: spheremodes imported from {spheremodes.__file__}, not {SRC}")
    return spheremodes


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be > 0")
    package = import_package()
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, package)

    workdir = str(BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    attempted = failed = 0
    check_failures = []  # outputs that a check rejected
    errors = []          # operations that raised

    def attempt(i):
        """Run operation i; returns (duration in ns, outputs), or (None, None)
        if the operation raised."""
        nonlocal attempted, failed
        attempted += 1
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                outputs = workload.operation(i)
            else:
                outputs = tracer.operation(i, lambda: workload.operation(i))
        except Exception:  # an operation that fails is counted, and the run goes on
            failed += 1
            errors.append(f"operation {i} raised:\n{traceback.format_exc()}")
            return None, None
        elapsed = time.perf_counter_ns() - start
        return elapsed, outputs

    def checked(i, outputs):
        try:
            workload.check(i, outputs)
        except checks.CheckFailed as exc:
            check_failures.append(f"operation {i}: {exc}")

    try:
        _, outputs = attempt(0)  # warm-up: part of set-up
        setup_s = time.perf_counter() - T_START
        if outputs is not None:
            checked(0, outputs)
        durations_ns = []
        i = 1
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < args.seconds:
            for _ in range(workload.round_size):
                elapsed, outputs = attempt(i)
                if outputs is not None:
                    durations_ns.append(elapsed)
                    checked(i, outputs)
                i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            workload.final_check()
        except checks.CheckFailed as exc:
            check_failures.append(str(exc))
    finally:
        workload.close()

    for problem in errors + check_failures:
        print(problem, file=sys.stderr)
    if len(durations_ns) < 2:
        print("error: fewer than two timed operations completed", file=sys.stderr)
        return 1
    durations_ms = [d / 1e6 for d in durations_ns]
    ops_per_s = len(durations_ms) / (sum(durations_ms) / 1e3)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "op/s"),
            "op_p50_ms": (statistics.median(durations_ms), "ms"),
            "op_p90_ms": (percentile(durations_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.save(str(BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.npz"))
        values = tracing.per_layer_metrics(tracer, ops_per_s)
        metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}
    print(f"# {args.workload} seed={args.seed}: {len(durations_ms)} timed operations",
          file=sys.stderr)
    print(json.dumps({
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
