"""
A small regret scaling study
============================

The harness runs a grid of horizons x seeds, aggregates regret quantiles
per horizon, fits a log-log slope to the medians, and writes scaling.csv,
report.json, and a gnuplot-ready plotdata file. Everything is keyed by
counter-based RNG streams, so reruns are byte-identical.

The same study is available from the shell:

    onlinectrl run --config config.json --out results/
"""
import json
import tempfile
from pathlib import Path

from onlinectrl.harness import build_experiment, run_batch

doc = {
    "system": {"A": [[0.5]], "B": [[1.0]]},
    "gain": {"K": [[0.5]], "kappa": 1.0, "gamma": 0.9},
    "cost": {"family": "random_quadratic", "seed": 7},
    "noise": {"family": "gaussian", "scale": 1.0, "seed": 1234},
    "schedule": {"kind": "constant_sqrtT"},
    "horizons": [64, 128, 256, 512],
    "seeds": list(range(8)),
    "comparator": {"grid": {"min": 0.4, "max": 0.6, "count": 11}},
    "delta": 0.1,
}

out = Path(tempfile.mkdtemp(prefix="scaling_"))
report = run_batch(build_experiment(doc), out_dir=str(out))

for row in report.rows:
    print(f"T={row['T']:4d}  median regret {row['regret_median']:8.3f}  "
          f"IQR [{row['regret_q25']:.3f}, {row['regret_q75']:.3f}]")
print(f"fitted log-log slope: {report.slope:.3f}")
print(f"divergent episodes: {len(report.divergences)} (failed={report.failed})")
print(f"config hash: {report.config_hash}")

print("\nfiles written to", out)
for name in ("scaling.csv", "report.json", "median_regret.dat", "theory_bound.dat"):
    print(" ", name, (out / name).stat().st_size, "bytes")

# The report mirrors the CSV plus the theory constants for this config.
rep = json.loads((out / "report.json").read_text())
print("\ntheory constants (selected):")
for key in ("D", "C_delta", "alpha_tilde"):
    print(f"  {key} = {rep['constants'][key]}")
print("  H per horizon:", rep["constants"]["H"])
