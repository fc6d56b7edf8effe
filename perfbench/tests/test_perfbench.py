"""Tests of the benchmark's own code, outside the tier-1 suite:

    python -m pytest perfbench/tests -q

They run the workloads at tiny horizons, so they check structure,
counts and the gate, never timings.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from onlinectrl import (cli, comparator, costs, harness, learner, noise,
                        policy, rng, stability, surrogate, system)

import bench
import hostspeed
import tracing
from workloads import WORKLOADS

BENCH = Path(bench.__file__).resolve().parent
TINY = {name: dataclasses.replace(wl, horizons=(8, 16), seeds=(0, 1))
        for name, wl in WORKLOADS.items()}
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def _package_bindings() -> dict:
    out = {}
    for m in tracing._package_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = value
    for cls in (costs.CostSchedule, surrogate.SurrogateKernel):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def _traced(wl, tmp_path):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        batch = bench.run_batch(wl, wl.doc(0), 1, tmp_path)
    return tracer, batch


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrappers_removed_after_traced_run(name, tmp_path):
    before = _package_bindings()
    bench.measure(TINY[name], seed=3, seconds=0.0, trace=True, work_dir=tmp_path)
    after = _package_bindings()
    assert tracing.leftover_wrappers() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert learner.sample is noise.sample
    assert noise.keyed_rng is rng.keyed_rng and costs.keyed_rng is rng.keyed_rng
    assert harness.certify is stability.certify
    assert harness.run_episode is learner.run_episode
    assert learner.project is policy.project
    assert learner.control_input is policy.control_input
    assert learner.recover_noise is system.recover_noise
    assert harness.best_fixed_K is comparator.best_fixed_K
    assert cli.build_experiment is harness.build_experiment
    assert cli.run_batch is harness.run_batch


def test_wrappers_removed_when_the_traced_call_raises():
    with pytest.raises(ValueError):
        with tracing.installed(tracing.Tracer()):
            assert learner.sample.__perfbench_original__ is noise.sample.__wrapped__
            harness.build_experiment({})
    assert tracing.leftover_wrappers() == []
    assert learner.sample is noise.sample


class _Clock:
    def __init__(self, *times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_on_nested_spans():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    # r [11, 20] holds a recursive r [12, 15].
    tr = tracing.Tracer(clock=_Clock(0, 1, 3, 4, 5, 6, 8, 10, 11, 12, 15, 20))
    tr.enter("outer")
    tr.enter("a")
    tr.exit()
    tr.enter("b")
    tr.enter("c")
    tr.exit()
    tr.exit()
    tr.exit(keep=True)
    tr.enter("r")
    tr.enter("r")
    tr.exit()
    tr.exit()
    assert tr.totals("outer") == (1, 10, 4)
    assert tr.totals("a") == (1, 2, 2)
    assert tr.totals("b") == (1, 4, 3)
    assert tr.totals("c") == (1, 1, 1)
    assert tr.totals("r") == (2, 9, 9)
    assert tr.acc[("c", "b")] == [1, 1, 1]
    assert [s["name"] for s in tr.spans] == ["outer"]


def test_excluded_bookkeeping_leaves_enclosing_spans():
    tr = tracing.Tracer(clock=_Clock(0, 1, 2, 4))
    tr.enter("x")
    tr.enter("y")
    tr.exit()
    tr.exclude(0.5)
    tr.exit()
    assert tr.totals("x") == (1, 3.5, 2.5)


def test_host_clock_scales_by_the_kernel_around_each_block():
    # warm-up 9, then probes 2 | block | 4 | block | 2
    clock = hostspeed.HostClock(probe=_Clock(9, 2, 4, 2))
    clock.add("x", 3.0)
    clock.add("x", 6.0)
    assert clock.blocks["x"] == [(3.0, 3.0), (6.0, 3.0)]
    assert clock.scaled("x") == pytest.approx(hostspeed.KERNEL_REF_S * 9 / 6)
    assert clock.kernel_median() == 3.0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wl = TINY["mimo4-heavytail"]
    plain, _ = bench.measure(wl, 0, 0.0, False, tmp_path)
    traced, _ = bench.measure(wl, 0, 0.0, True, tmp_path)
    names = [*plain["metrics"], *traced["metrics"]]
    assert all(NAME_RE.match(n) for n in names)
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(NAME_RE.match(w["name"]) for w in spec["workloads"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_call_counts_repeat_and_match_closed_forms(name, tmp_path):
    wl = TINY[name]
    first, batch = _traced(wl, tmp_path)
    second, _ = _traced(wl, tmp_path)
    calls = {k: v for k, v in first.layer_metrics().items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second.layer_metrics().items()
                     if k.endswith(".calls")}
    cells = len(wl.cells)
    assert all(v is not None for v in batch["cells"].values())
    assert calls["noise.sample.calls"] == sum(T for T, _ in wl.cells)
    assert calls["harness.build_experiment.calls"] == cells + 1
    assert calls["learner.run_episode.calls"] == cells
    assert calls["harness.write_outputs.calls"] == (1 if wl.via_cli else 0)
    per_step = {tracing.span_name(m, a) for m, a, step in tracing.TARGETS if step}
    assert not any(s["name"] in per_step for s in first.spans)


def test_gate_counts_a_cell_off_the_reference():
    wl = TINY["mimo4-heavytail"]
    gate = bench.Gate(wl, seed=5)
    cells = {key: 1.0 for key in wl.cells}
    gate.batch({"cells": cells, "files": {}})
    gate.batch({"cells": {**cells, (8, 0): 1.0 + 1e-9}, "files": {}})
    assert (gate.attempted, gate.failed) == (2 * len(cells), 1)
    gate.reference = {key: {"regret": 1.0 + 1e-6} for key in wl.cells}
    gate.batch({"cells": cells, "files": {}})
    assert gate.failed == 1 + len(cells)


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mimo4-heavytail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
