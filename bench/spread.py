"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workloads mc-estimate --seeds 1 2 3 4 5
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 2 \
        --out bench/baseline.json

For every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median across
the seeds, next to the metric's bound from BENCHMARK.json.  With
--traced-seeds it also runs --trace 1 and reports the per-layer medians and
each layer's share of the traced self time.  --out writes all of it as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent

# counters the benchmark cannot see from outside the program
ABSENT_COUNTERS = [
    "best_response descent iterations and final gradient-mapping residuals "
    "(_bb_projected_descent returns only the iterate)",
    "closed-form vs numeric drift (numeric_simplex_minimizer computes it, "
    "then drops it)",
    "oracle nodes visited and ties found per node (adversary_oracle reports "
    "only the tied maximizers)",
]


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds",
           str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--traced-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "traced_seeds": args.traced_seeds, "workloads": {}}
    worst_ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            env, result = run_once(spec, workload, seed, 0)
            report["environment"] = env
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        entry = {"correct": all(r["correct"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            ok = name == "setup_s" or stats["spread"] <= metric["bound"] / 3
            worst_ok &= ok
            print(f"  {name:20s} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {metric['bound']}"
                  f"{'' if ok else '  <-- above bound/3'}", flush=True)
        if args.traced_seeds:
            traced = [run_once(spec, workload, seed, 1)[1]
                      for seed in args.traced_seeds]
            layers = {m["name"]: statistics.median(
                r["metrics"][m["name"]]["value"] for r in traced)
                for m in spec["per_layer"]}
            total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
            entry["per_layer_medians"] = layers
            entry["layer_shares"] = {
                layer: layers[f"{layer}.self_s"] / total for layer in LAYERS}
            entry["traced_failed"] = sum(r["failed"] for r in traced)
            print("  layer shares: " + ", ".join(
                f"{k} {v:.1%}" for k, v in entry["layer_shares"].items()),
                flush=True)
        report["workloads"][workload] = entry
    report["absent_counters"] = ABSENT_COUNTERS
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print("all spreads below bound/3" if worst_ok
          else "some spreads above bound/3")


if __name__ == "__main__":
    main()
