"""Measurement loop, correctness gate and result line of the benchmark.

A run of one workload, with tracing off:

  setup_s       SETUP_PER_ROUND calls per round of build_experiment plus
                compute_theory_constants on the workload's document
  batch_wall_s  wall time from the document in hand to the finished
                report (for scalar-randcost-pool: `onlinectrl run`
                including its output files), one per round
  us_per_step   run_episode wall time / T over direct calls at the
                largest horizon, one per workload seed per round, with the
                cost schedule built beforehand

Rounds of one batch, one direct episode per seed and the setup calls
repeat until the run's seconds are used. The host-speed kernel
(hostspeed.py) is timed between these blocks, and each metric is the
run's summed block time over the summed time of the kernel calls around
the blocks, scaled to a host on which the kernel takes
hostspeed.KERNEL_REF_S. The detail line keeps every raw sample with its
kernel time, and each metric's raw median and highest percentile that
has ten samples beyond it. With tracing on, half the seconds go to
untraced rounds and one batch then runs traced at workers = 1.

Every batch cell and direct episode passes the correctness gate or counts
as failed: no divergence, results identical to the run's first batch
(byte-identical output files where they are written), and at the default
workload seed, per-cell regret within REL_TOL of reference.json and the
same noise hash.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import onlinectrl
from onlinectrl import cli, harness, learner
from onlinectrl.costs import (adversarial_convex_schedule, constant_schedule,
                              materialize, quadratic_cost)
from onlinectrl.learner import (LearningRateSchedule, alpha_tilde_from,
                                noise_fingerprint)
from onlinectrl.noise import NoiseProcess, population_sigma_lower
from onlinectrl.rng import mix_seed

import hostspeed
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_DIR = ROOT / ".bench_out"
REL_TOL = 1e-12
SETUP_PER_ROUND = 10
OUTPUT_FILES = ("scaling.csv", "report.json")

if not Path(onlinectrl.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"onlinectrl was imported from {onlinectrl.__file__}, "
                      f"not from the checkout's src/")


def host_facts() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fp:
        for line in fp:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


# ------------------------------------------------------------------ batches

def run_batch(wl: Workload, doc: dict, workers: int, work_dir: Path) -> dict:
    """One batch of every (T, seed) cell; returns wall time, per-cell
    regrets (None for a diverged or missing cell) and output bytes."""
    files = {}
    if wl.via_cli:
        cfg = work_dir / "config.json"
        cfg.write_text(json.dumps(doc))
        out = work_dir / "out"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(cfg), "--out", str(out),
                             "--workers", str(workers)])
        wall = time.perf_counter() - t0
        report = {"rows": [], "divergences": []}
        if code == cli.EXIT_OK:
            files = {n: (out / n).read_bytes() for n in OUTPUT_FILES}
            report = json.loads(files["report.json"])
        shutil.rmtree(out, ignore_errors=True)
        rows, divergences = report["rows"], report["divergences"]
    else:
        t0 = time.perf_counter()
        report = harness.run_batch(harness.build_experiment(doc),
                                   workers=workers)
        wall = time.perf_counter() - t0
        rows, divergences = report.rows, report.divergences

    cells = dict.fromkeys(wl.cells)
    for row in rows:
        lost = {d["seed"] for d in divergences if d["T"] == row["T"]}
        live = [s for s in wl.seeds if s not in lost]
        for seed, value in zip(live, row["regrets"]):
            cells[(row["T"], seed)] = value
    return {"wall_s": wall, "cells": cells, "files": files}


# --------------------------------------------------------- direct episodes

def episode_inputs(exp, T: int) -> list:
    """(seed, noise process, cost schedule, step sizes) of each (T, seed)
    cell, built with the public constructors the way the harness builds
    them, so cost generation stays outside the timed call."""
    n_x, n_u = exp.system.n_x, exp.system.n_u
    ncfg, ccfg = exp.noise_cfg, exp.cost_cfg
    inputs = []
    for seed in exp.seeds:
        proc = NoiseProcess(family=ncfg["family"],
                            scale=float(ncfg.get("scale", 1.0)), dim=n_x,
                            seed=mix_seed(int(ncfg["seed"]), seed),
                            df=ncfg.get("df"))
        if ccfg["family"] == "quadratic":
            schedule = constant_schedule(quadratic_cost(
                np.asarray(ccfg["Q"], dtype=float),
                np.asarray(ccfg["R"], dtype=float)), T)
        else:
            schedule = materialize(adversarial_convex_schedule(
                mix_seed(int(ccfg["seed"]), seed), T, n_x, n_u))
        if exp.schedule_kind == "strongly_convex":
            lr = LearningRateSchedule("strongly_convex", alpha_tilde=alpha_tilde_from(
                schedule.alpha, population_sigma_lower(proc), exp.gamma, exp.kappa))
        else:
            lr = LearningRateSchedule("constant_sqrtT")
        inputs.append((seed, proc, schedule, lr))
    return inputs


def run_episodes(exp, inputs: list, horizons: tuple) -> list:
    """Direct run_episode calls at the largest horizon: (seed, us/step, fingerprint),
    where the fingerprint holds the noise hash of every cell's prefix and
    the learner cost, or is None when the episode diverged."""
    T_max = max(horizons)
    out = []
    for seed, proc, schedule, lr in inputs:
        t0 = time.perf_counter()
        try:
            rec = learner.run_episode(exp.system, exp.K, exp.cert, schedule,
                                      proc, lr, T_max, x0=exp.x0)
        except learner.EpisodeDivergedError:
            rec = None
        us = (time.perf_counter() - t0) / T_max * 1e6
        fp = None if rec is None else {
            "noise_hash": {T: noise_fingerprint(rec.ws[:T]) for T in horizons},
            "learner_cost": rec.cum_cost}
        out.append((seed, us, fp))
    return out


# ------------------------------------------------------------ the gate

def load_reference(wl: Workload) -> dict:
    """(T, seed) -> {"regret", "noise_hash"}; empty when the reference was
    recorded for another length setting."""
    ref = json.loads(REFERENCE.read_text()).get(wl.name) if REFERENCE.exists() else None
    if not ref or ref["horizons"] != list(wl.horizons) or ref["seeds"] != list(wl.seeds):
        return {}
    return {(c["T"], c["seed"]): c for c in ref["cells"]}


class Gate:
    """Counts attempted and failed cells and episodes of one run."""

    def __init__(self, wl: Workload, seed: int):
        self.reference = load_reference(wl) if seed == DEFAULT_SEED else None
        self.first_batch = None
        self.first_episodes = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(what)

    def batch(self, result: dict) -> None:
        if self.first_batch is None:
            self.first_batch = result
        first = self.first_batch
        same_files = result["files"] == first["files"]
        for key, value in result["cells"].items():
            self.attempted += 1
            if value is None:
                self._fail(f"cell {key} diverged or missing")
            elif value != first["cells"][key] or not same_files:
                self._fail(f"cell {key} differs from the run's first batch")
            elif self.reference is not None:
                ref = self.reference.get(key)
                if ref is None or abs(value - ref["regret"]) > REL_TOL * abs(ref["regret"]):
                    self._fail(f"cell {key} regret {value!r} misses the reference")

    def episodes(self, results: list) -> None:
        for seed, _, fp in results:
            self.attempted += 1
            first = self.first_episodes.setdefault(seed, fp)
            if fp is None:
                self._fail(f"episode seed {seed} diverged")
            elif fp != first:
                self._fail(f"episode seed {seed} differs from the run's first")
            elif self.reference is not None and any(
                    self.reference.get((T, seed), {}).get("noise_hash") != digest
                    for T, digest in fp["noise_hash"].items()):
                self._fail(f"episode seed {seed} noise hash misses the reference")


# ------------------------------------------------------------------ runs

def time_setup(doc: dict, repeats: int) -> list:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        harness.compute_theory_constants(harness.build_experiment(doc))
        samples.append(time.perf_counter() - t0)
    return samples


def upper_percentile(samples: list):
    """Highest of p90/p99/p999 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return None


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            work_dir: Path) -> tuple:
    """One run; returns (result line dict, detail dict)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    doc = wl.doc(seed)
    gate = Gate(wl, seed)
    detail = {"workload": wl.name, "seed": seed, "trace": int(trace),
              "host": host_facts()}

    t0 = time.perf_counter()
    exp = harness.build_experiment(doc)
    harness.compute_theory_constants(exp)  # warms what setup_s then times
    inputs = episode_inputs(exp, wl.t_max)
    detail["inputs_s"] = time.perf_counter() - t0

    clock = hostspeed.HostClock()
    samples = {"batch_wall_s": [], "us_per_step": []}
    if not trace:
        samples["setup_s"] = []
    budget = seconds / 2 if trace else seconds
    min_rounds = 1 if trace else 2   # the traced batch is the second otherwise
    rounds = 0
    start = time.perf_counter()
    deadline = start + budget
    while True:
        r0 = time.perf_counter()
        batch = run_batch(wl, doc, wl.workers, work_dir)
        clock.add("batch_wall_s", batch["wall_s"])
        gate.batch(batch)
        samples["batch_wall_s"].append(batch["wall_s"])
        for one in inputs:
            episode = run_episodes(exp, [one], wl.horizons)
            clock.add("us_per_step", episode[0][1])
            gate.episodes(episode)
            samples["us_per_step"].append(episode[0][1])
        if not trace:
            block = time_setup(doc, SETUP_PER_ROUND)
            clock.add("setup_s", statistics.median(block))
            samples["setup_s"] += block
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - r0) > deadline:
            break
    detail.update(rounds=rounds, measured_s=time.perf_counter() - start,
                  samples=samples, counts={k: len(v) for k, v in samples.items()},
                  medians={k: statistics.median(v) for k, v in samples.items()},
                  upper={k: upper_percentile(v) for k, v in samples.items()})

    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run_batch(wl, doc, 1, work_dir)
        clock.add("traced_batch_s", traced["wall_s"])
        left = tracing.leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")
        gate.batch(traced)
        metrics = layer_metrics(wl, tracer, clock)
        detail["spans_kept"] = len(tracer.spans)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {k: clock.scaled(k) for k in ("setup_s", "batch_wall_s",
                                                 "us_per_step")}
        units = {"setup_s": "s", "batch_wall_s": "s", "us_per_step": "us"}
    detail.update(kernel_median_s=clock.kernel_median(),
                  kernel_ref_s=hostspeed.KERNEL_REF_S, blocks=clock.blocks)
    if trace:
        write_trace(work_dir, wl, seed, tracer, detail)

    detail.update(failed_frac=gate.failed / gate.attempted, reasons=gate.reasons)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, detail


def layer_metrics(wl: Workload, tracer: tracing.Tracer,
                  clock: hostspeed.HostClock) -> dict:
    """Per-layer metrics of the traced batch, with the three derived ones.
    The derived timing ratios compare times scaled to the same host speed."""
    metrics = tracer.layer_metrics()
    blocks = tracer.counts["policy.project.blocks"]
    metrics["policy.project.clipped_block_ratio"] = (
        tracer.counts["policy.project.clipped_blocks"] / blocks if blocks else 0.0)
    (_, kernel), = clock.blocks["traced_batch_s"]
    scale = hostspeed.KERNEL_REF_S / kernel
    cell_busy = tracer.totals("harness._episode_job")[1] * scale
    metrics["harness.pool_efficiency"] = cell_busy / (
        wl.workers * clock.scaled("batch_wall_s"))
    traced_us = [s["busy_s"] / wl.t_max * 1e6 for s in tracer.spans
                 if s["name"] == "learner.run_episode" and s["T"] == wl.t_max]
    metrics["trace.overhead_ratio"] = (statistics.median(traced_us) * scale
                                       / clock.scaled("us_per_step"))
    return metrics


def _layer_unit(name: str) -> str:
    kind = name.rsplit(".", 1)[-1]
    return {"calls": "count", "busy_s": "s", "self_s": "s"}.get(kind, "ratio")


def write_trace(work_dir: Path, wl: Workload, seed: int,
                tracer: tracing.Tracer, detail: dict) -> None:
    """The traced batch's accumulators and whole spans, written once."""
    doc = {"detail": detail,
           "accumulators": [{"name": n, "parent": p, "calls": c, "busy_s": b,
                             "self_s": s} for (n, p), (c, b, s) in tracer.acc.items()],
           "counts": dict(tracer.counts), "spans": tracer.spans}
    path = work_dir / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n")


def write_reference(wl: Workload) -> None:
    """Record per-cell regret and noise hash at the default workload seed."""
    work_dir = WORK_DIR / wl.name
    work_dir.mkdir(parents=True, exist_ok=True)
    doc = wl.doc(DEFAULT_SEED)
    batch = run_batch(wl, doc, wl.workers, work_dir)
    exp = harness.build_experiment(doc)
    episodes = {seed: fp for seed, _, fp in
                run_episodes(exp, episode_inputs(exp, wl.t_max), wl.horizons)}
    if None in batch["cells"].values() or None in episodes.values():
        raise RuntimeError(f"{wl.name}: a cell diverged; no reference written")
    cells = [{"T": T, "seed": s, "regret": batch["cells"][(T, s)],
              "noise_hash": episodes[s]["noise_hash"][T]} for T, s in wl.cells]
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[wl.name] = {"horizons": list(wl.horizons), "seeds": list(wl.seeds),
                    "cells": cells}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def summary_line(name: str, result: dict, detail: dict) -> str:
    medians = detail["medians"]
    parts = [f"{k}={v['value']:.6g} {v['unit']}"
             + (f" (raw median {medians[k]:.6g})" if k in medians else "")
             for k, v in result["metrics"].items()]
    return (f"{name}: " + "  ".join(parts)
            + f"  failed_frac={detail['failed_frac']:.6g} "
              f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference.json for the workload(s) and exit")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if args.write_reference:
        for name in names:
            write_reference(WORKLOADS[name])
        print(f"wrote {REFERENCE.relative_to(ROOT)} for {', '.join(names)}")
        return 0

    results = {}
    for name in names:
        work_dir = WORK_DIR / name
        result, detail = measure(WORKLOADS[name], args.seed, args.seconds,
                                 bool(args.trace), work_dir)
        (work_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
        print("detail: " + json.dumps(detail))
        print(summary_line(name, result, detail))
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0
