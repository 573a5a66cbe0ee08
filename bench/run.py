"""aoijam benchmark: one workload, closed loop, through the public CLI.

Run from the repository root:

    python3 bench/run.py --workload game-audit --seed 1 --seconds 20 --trace 0

The workload's calls (workloads.py) run one after another in this process
through `aoijam.cli.main`, on scenario files generated from --seed, with the
BLAS thread pools pinned to one thread.  The loop repeats the whole list of
calls for --seconds (at least twice), checks every call's output
(checks.py) and reports medians over the repetitions.  A call that
exits non-zero or fails its check is a failed operation; it does not stop
the run.

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json.  With --trace 1 every second repetition runs with every
public aoijam function wrapped in a span (tracing.py); the run reports the
per-layer metrics of the traced repetitions, and trace.overhead_s, the
difference between the median wall time of traced and untraced ones.  The
spans are written to .bench_out/.  The line before the result records the environment.

Times are reference seconds: each call is bracketed by a calibration kernel
and scaled by its speed (calibration.py), which cancels most of the drift in
machine speed a shared machine shows.  setup_s is the median time to import
aoijam.cli (numpy and scipy included) in a fresh interpreter, measured
SETUP_REPEATS times per run.

The program's source is taken from src/ next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import calibration_s, speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
MIN_ITERATIONS = 2
# import time of aoijam.cli, and the calibration kernel's time just before and
# after it, all measured in the fresh interpreter
SETUP_SNIPPET = f"""
import sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from calibration import calibration_s
before = calibration_s()
start = time.perf_counter()
import aoijam.cli
seconds = time.perf_counter() - start
print(seconds, before, calibration_s())
"""
# lscpu on the machine the baseline was measured on; not probed at run time
REFERENCE_CACHES = {"l2": "4 MiB", "l3": "105 MiB"}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup() -> float:
    """Median import time of aoijam.cli in fresh interpreters, each scaled
    by the calibration kernel run in the same interpreter around it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, before, after = map(float, done.stdout.split())
        times.append(seconds * speed(before, after))
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": {**REFERENCE_CACHES,
                  "source": "lscpu on the baseline machine, not probed"},
        "blas_threads": BLAS_PIN,
        "byte_counts": "computed from array sizes, not measured",
    }


def _call_main(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crash is a failed operation, not a failed run
        return "exception: " + traceback.format_exc(limit=3)


def run_iteration(cli, calls):
    """Run every call once, then check the outputs.  Returns
    (call, reference seconds, failure or None) per call, and the speed
    factor of the whole iteration."""
    for call in calls:  # so that a check reads only what its call wrote
        shutil.rmtree(call.out_dir, ignore_errors=True)
        os.makedirs(call.out_dir)
    timed = []
    raw_s = 0.0
    before = calibration_s()
    for call in calls:
        start = time.perf_counter()
        code = _call_main(cli, call.argv)
        seconds = time.perf_counter() - start
        after = calibration_s()
        timed.append((call, seconds * speed(before, after), code))
        raw_s += seconds
        before = after
    out = []
    for call, seconds, code in timed:
        failure = None if code == 0 else f"exit {code}"
        if failure is None:
            try:
                failure = call.check(call.out_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failure = f"unreadable output: {type(exc).__name__}: {exc}"
        out.append((call, seconds, failure))
    return out, _wall(out) / raw_s


def run_phase(cli, calls, seconds, min_iterations, tracer=None):
    """Repeat the calls until `seconds` have passed.  With a tracer, every
    second iteration runs traced, so that traced and untraced iterations
    see the same drift in machine speed.  Returns the untraced and the
    traced iterations' records, and each traced iteration's layer metrics."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # stop before an iteration of average length would overrun
        done = len(plain) + len(traced)
        if done >= min_iterations and elapsed * (done + 1) / done > seconds:
            return plain, traced, layers
        gc.collect()
        if tracer is None or done % 2 == 0:
            plain.append(run_iteration(cli, calls)[0])
            continue
        first = len(tracer.spans)
        tracer.install()
        try:
            records, factor = run_iteration(cli, calls)
        finally:
            tracer.uninstall()
        traced.append(records)
        layers.append(tracer.layer_metrics(first, factor))


def _wall(records) -> float:
    return sum(seconds for _, seconds, _ in records)


def iteration_metrics(records, per_call_metrics) -> dict:
    out = {"wall_s": _wall(records)}
    for metric in per_call_metrics:
        out[metric] = statistics.median(
            s for call, s, _ in records if call.metric == metric)
    out["export_rows_per_s"] = (_mean_count(records, "exact_s", "rows")
                                / out["exact_s"])
    out["mc_runs_per_s"] = (_mean_count(records, "simulate_s", "runs")
                            / out["simulate_s"])
    return out


def _mean_count(records, metric, attr):
    return statistics.mean(
        getattr(call, attr) for call, _, _ in records if call.metric == metric)


def _median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "aoijam" / "cli.py").is_file():
        print(f"benchmark: no aoijam source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import aoijam
    import aoijam.cli as cli

    if not Path(aoijam.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: aoijam imported from {aoijam.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    setup_s = None if args.trace else measure_setup()
    print(json.dumps({"environment": environment()}), flush=True)

    work_dir = (ROOT / ".bench_work"
                / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        calls = workloads.build(args.workload, args.seed, str(work_dir))
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layers = run_phase(cli, calls, args.seconds,
                                          MIN_ITERATIONS, tracer)
        if tracer:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"trace-{args.workload}-seed"
                                       f"{args.seed}.jsonl.gz"),
                         {"workload": args.workload, "seed": args.seed})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    iterations = plain + traced
    records = [r for iteration in iterations for r in iteration]
    failed = [(c, f) for c, _, f in records if f is not None]
    for call, failure in failed:
        print(f"FAILED {call.subcommand} {Path(call.config).stem}: {failure}",
              file=sys.stderr)

    if args.trace:
        values = {k: _median_of(layers, k) for k in layers[0]}
        values["trace.overhead_s"] = (
            statistics.median(map(_wall, traced))
            - statistics.median(map(_wall, plain)))
        declared = spec["per_layer"]
    else:
        per_iteration = [iteration_metrics(i, workloads.PER_CALL_METRICS)
                         for i in iterations]
        values = {k: _median_of(per_iteration, k) for k in per_iteration[0]}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        values["ok_ratio"] = 1 - len(failed) / len(records)
        declared = spec["end_to_end"]

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
