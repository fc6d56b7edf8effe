"""The onlinectrl surface that the benchmark in perfbench/ and the demos
run against.

perfbench/bench.py, perfbench/tracing.py and demos/*.py are not part of
the tier-1 suite, so a cleanup of the package could break them unnoticed.
These tests resolve every onlinectrl name they import or read off an
imported module, every attribute the tracer wraps, and run the
cost-schedule path of the benchmark's direct episodes.
"""

import ast
import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from onlinectrl import harness, learner
from onlinectrl.costs import (CostSchedule, adversarial_convex_schedule,
                              constant_schedule, materialize, quadratic_cost)
from onlinectrl.noise import NoiseProcess, population_sigma_lower
from onlinectrl.rng import mix_seed
from onlinectrl.stability import certify
from onlinectrl.system import make_system

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
CLIENTS = (PERFBENCH / "bench.py", PERFBENCH / "tracing.py",
           *sorted((ROOT / "demos").glob("*.py")))


def _resolve(module: str, name: str):
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def _used_names(path: Path) -> list:
    """(module, name) for each `from onlinectrl... import name`, and for
    each attribute read off a name bound to an onlinectrl module."""
    tree = ast.parse(path.read_text())
    used, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("onlinectrl"):
            for alias in node.names:
                used.append((node.module, alias.name))
                if isinstance(_resolve(node.module, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("onlinectrl"):
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.append((modules[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("client", CLIENTS, ids=lambda path: path.name)
def test_benchmark_imports_resolve(client):
    used = _used_names(client)
    assert used, f"{client.name} uses no onlinectrl name"
    missing = []
    for module, name in used:
        try:
            _resolve(module, name)
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert not missing, f"{client.name} needs {missing}"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracing_targets_resolve():
    for module, attr, _ in _tracing().TARGETS:
        mod = importlib.import_module(f"onlinectrl.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer replaces methods found in the class's own __dict__
            assert callable(getattr(mod, cls_name).__dict__[meth]), attr
        else:
            assert callable(getattr(mod, attr)), f"{module}.{attr}"
    assert "reveal" in CostSchedule.__dict__


def _bench(monkeypatch):
    """perfbench/bench.py, loaded by path with its sibling modules found
    as `python perfbench/run.py` finds them, and unloaded again after."""
    siblings = ("hostspeed", "tracing", "workloads")
    new = [name for name in siblings if name not in sys.modules]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for name in new:  # bench keeps its own references
        sys.modules.pop(name, None)
    return mod


@pytest.mark.parametrize("name,candidates,H", [("scalar-randcost-pool", 11, 19),
                                               ("mimo4-heavytail", 4, 31)])
def test_setup_chain_on_the_workload_documents(name, candidates, H, perfbench_workloads):
    """What perfbench's setup_s times: the constants of the built experiment."""
    wl = perfbench_workloads[name]
    exp = harness.build_experiment(wl.doc(0))
    constants = harness.compute_theory_constants(exp)
    assert len(exp.candidates) == candidates
    assert constants.H[wl.t_max] == H


@pytest.mark.parametrize("name", ["scalar-randcost-pool", "mimo4-heavytail"])
def test_batch_regrets_match_the_benchmark_reference(name, perfbench_workloads):
    """perfbench's correctness gate at the default workload seed: every
    cell's regret lies within 1e-12 relative of perfbench/reference.json,
    so a draw or rollout that drifts fails here before the benchmark runs."""
    wl = perfbench_workloads[name]
    ref = json.loads((PERFBENCH / "reference.json").read_text())[name]
    assert (ref["horizons"], ref["seeds"]) == (list(wl.horizons), list(wl.seeds))
    report = harness.run_batch(harness.build_experiment(wl.doc(0)), workers=1)
    assert report.divergences == []
    got = {(row["T"], seed): regret
           for row in report.rows for seed, regret in zip(wl.seeds, row["regrets"])}
    want = {(cell["T"], cell["seed"]): cell["regret"] for cell in ref["cells"]}
    assert got.keys() == want.keys()
    for cell, regret in want.items():
        assert abs(got[cell] - regret) <= 1e-12 * abs(regret), (cell, got[cell], regret)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("workload_seed", [0, 3])
@pytest.mark.parametrize("name", ["scalar-randcost-pool", "mimo4-heavytail"])
def test_batch_episodes_run_the_benchmark_inputs(name, workload_seed, monkeypatch,
                                                 perfbench_workloads):
    """perfbench's us_per_step times direct episodes on inputs that
    bench.episode_inputs builds apart from the batch: every (T, seed) cell
    of a batch runs the same noise process, step sizes and Q and R stacks,
    bit for bit."""
    bench = _bench(monkeypatch)
    exp = harness.build_experiment(perfbench_workloads[name].doc(workload_seed))
    calls = []
    run_episode = harness.run_episode

    def spy(sys_, K, cert, schedules, procs, lr, T, **kwargs):
        calls.append((T, schedules, procs, lr))
        return run_episode(sys_, K, cert, schedules, procs, lr, T, **kwargs)

    monkeypatch.setattr(harness, "run_episode", spy)
    harness.run_batch(exp)
    assert sorted(T for T, *_ in calls) == sorted(exp.horizons)
    for T, schedules, procs, lr in calls:
        want = bench.episode_inputs(exp, T)
        assert [seed for seed, *_ in want] == list(exp.seeds)
        for schedule, proc, (_, want_proc, want_schedule, want_lr) in zip(
                schedules, procs, want, strict=True):
            assert repr(proc) == repr(want_proc)  # float reprs round-trip exactly
            assert lr == want_lr
            assert _same_bits(schedule.Q, want_schedule.Q), (T, "Q")
            assert _same_bits(schedule.R, want_schedule.R), (T, "R")


def _scalar_doc(cost):
    return {
        "system": {"A": [[0.5]], "B": [[1.0]]},
        "gain": {"K": [[0.5]], "kappa": 1.0, "gamma": 0.9},
        "cost": cost,
        "noise": {"family": "gaussian", "scale": 1.0, "seed": 1234},
        "schedule": {"kind": "strongly_convex"},
        "horizons": [64],
        "seeds": [0],
        "comparator": {"grid": {"min": 0.4, "max": 0.6, "count": 3}},
    }


@pytest.mark.parametrize("cost", [
    {"family": "random_quadratic", "seed": 7},
    {"family": "quadratic", "Q": [[1.0]], "R": [[1.0]]},
], ids=["random", "fixed"])
def test_direct_episode_on_the_benchmark_path(cost):
    """The schedule construction of perfbench's episode_inputs, then
    run_episode, as its direct episodes call it."""
    exp = harness.build_experiment(_scalar_doc(cost))
    T, ccfg, ncfg = 64, exp.cost_cfg, exp.noise_cfg
    if ccfg["family"] == "quadratic":
        schedule = constant_schedule(quadratic_cost(
            np.asarray(ccfg["Q"], dtype=float), np.asarray(ccfg["R"], dtype=float)), T)
    else:
        schedule = materialize(adversarial_convex_schedule(
            mix_seed(int(ccfg["seed"]), 0), T, 1, 1))
    proc = NoiseProcess(family=ncfg["family"], scale=float(ncfg.get("scale", 1.0)),
                        dim=1, seed=mix_seed(int(ncfg["seed"]), 0), df=ncfg.get("df"))
    lr = learner.LearningRateSchedule("strongly_convex", alpha_tilde=learner.alpha_tilde_from(
        schedule.alpha, population_sigma_lower(proc), exp.gamma, exp.kappa))
    rec = learner.run_episode(exp.system, exp.K, exp.cert, schedule, proc, lr, T,
                              x0=exp.x0)
    assert rec.costs.shape == (T,) and np.isfinite(rec.cum_cost)
    revealed = [schedule.reveal(t, rec.us[t]) for t in range(T)]
    assert rec.cum_cost == pytest.approx(float(np.sum(
        [x @ Q @ x + u @ R @ u for (Q, R), x, u in zip(revealed, rec.xs, rec.us)])))


def test_every_step_layer_is_traced_once_per_step():
    """The tracer wraps the per-step layers of run_episode by their
    module-level names and reads project's (PolicyParams, kappa, gamma,
    kappa_B) arguments; each must still be called once per step."""
    tracing = _tracing()
    B = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.3]])
    K = np.array([[0.2, -0.1, 0.3], [0.1, 0.25, -0.2]])
    sys_ = make_system(np.diag([0.3, -0.2, 0.1]) + B @ K, B)
    cert = certify(sys_, K, 1.5, 0.5)
    T = 16
    schedule = constant_schedule(quadratic_cost(np.eye(3), np.eye(2)), T)
    proc = NoiseProcess("student_t", 1.0, dim=3, seed=5, df=5.0)
    lr = learner.LearningRateSchedule("strongly_convex", alpha_tilde=1.0)
    with tracing.installed(tracing.Tracer()) as tracer:
        rec = learner.run_episode(sys_, K, cert, schedule, proc, lr, T)
    for name in ("policy.control_input", "costs.reveal", "system.recover_noise",
                 "surrogate.grad", "policy.project"):
        assert tracer.totals(name)[0] == T, name
    assert tracer.counts["policy.project.blocks"] == T * rec.H
    assert tracer.counts["policy.project.clipped_blocks"] > 0
    assert tracing.leftover_wrappers() == []


def test_episode_job_spans_carry_horizon_and_seeds(tmp_path):
    """The tracer tags each kept `harness._episode_job` span with the job's
    positional arguments 1 and 2 (T and the seed tuple), and perfbench
    times the one `write_outputs` call of a batch."""
    tracing = _tracing()
    doc = _scalar_doc({"family": "random_quadratic", "seed": 7})
    doc.update(horizons=[16, 8], seeds=[0, 3])
    exp = harness.build_experiment(doc)
    with tracing.installed(tracing.Tracer()) as tracer:
        harness.run_batch(exp, out_dir=str(tmp_path / "out"), workers=1)
    jobs = [span for span in tracer.spans if span["name"] == "harness._episode_job"]
    assert sorted(span["T"] for span in jobs) == [8, 16]
    assert all(span["seed"] == exp.seeds == (0, 3) for span in jobs)
    assert tracer.totals("harness.write_outputs")[0] == 1
    assert (tmp_path / "out" / "report.json").exists()
    assert tracing.leftover_wrappers() == []
