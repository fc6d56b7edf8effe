#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across workload seeds.

    python3 perfbench/spread.py --runs 10 --seconds 30 \
        [--workload NAME ...] [--first-seed 1] [--write perfbench/baseline.json]

Runs run.py once per (seed, workload), seeds in the outer loop, one run at
a time. For each metric it prints the median and the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line.removeprefix("detail: "))
                  for line in lines if line.startswith("detail: "))
    return json.loads(lines[-1]), detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", help="save the figures as a baseline file")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {} for w in args.workload}
    gate = {w: [0, 0] for w in args.workload}
    host = None
    for seed in seeds:
        for w in args.workload:
            result, detail = run_once(w, seed, args.seconds)
            host = detail["host"]
            gate[w][0] += result["attempted"]
            gate[w][1] += result["failed"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + "  ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
                + f"  failed={result['failed']}/{result['attempted']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"host": host, "seconds": args.seconds, "seeds": seeds,
           "workloads": {}}
    print(f"\n{'workload':22s} {'metric':14s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for w, metrics in values.items():
        rows = out["workloads"][w] = {"attempted": gate[w][0],
                                      "failed": gate[w][1]}
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  above bound/3"
            print(f"{w:22s} {name:14s} {med:12.6g} {spread:8.4f} "
                  f"{bounds[name]:6.3f}{flag}")
        print(f"{w:22s} failed {gate[w][1]}/{gate[w][0]}")
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
