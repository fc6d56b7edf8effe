import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onlinectrl.harness as hz
from onlinectrl.cli import main as cli_main
from onlinectrl.harness import (build_experiment, compute_theory_constants,
                                config_hash, load_config, run_batch, write_outputs)
from onlinectrl.learner import EpisodeDivergedError
from onlinectrl.rng import mix_seed
from onlinectrl.stability import CertificationError


def _base_doc(**over):
    doc = {
        "system": {"A": [[0.5]], "B": [[1.0]]},
        "gain": {"K": [[0.5]], "kappa": 1.0, "gamma": 0.9},
        "cost": {"family": "quadratic", "Q": [[1.0]], "R": [[1.0]]},
        "noise": {"family": "gaussian", "scale": 1.0, "seed": 42},
        "schedule": {"kind": "constant_sqrtT"},
        "horizons": [8, 16],
        "seeds": [0, 1, 2],
        "comparator": {"grid": {"min": 0.4, "max": 0.6, "count": 5}},
        "delta": 0.1,
    }
    doc.update(over)
    return doc


def test_build_experiment_accepts_base_config():
    exp = build_experiment(_base_doc())
    assert exp.horizons == (8, 16)
    assert exp.seeds == (0, 1, 2)
    assert len(exp.candidates) == 5
    assert exp.delta == 0.1


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("system"), "system"),
    (lambda d: d["gain"].update(K=[[0.5, 0.1]]), "gain K"),
    (lambda d: d["schedule"].update(kind="adam"), "schedule kind"),
    (lambda d: d["cost"].update(family="huber"), "cost family"),
    (lambda d: d["noise"].pop("seed"), "seed"),
    (lambda d: d.update(horizons=[]), "horizons"),
    (lambda d: d.update(horizons=[2, 8]), ">= 3"),
    (lambda d: d.update(seeds=[]), "seeds"),
    (lambda d: d.update(seeds=[1, 1]), "duplicates"),
    (lambda d: d.update(seeds=[-1]), "seeds entry must lie in"),
    (lambda d: d.update(seeds=[0, 2 ** 64]), "seeds entry must lie in"),
    (lambda d: d["noise"].update(seed=2 ** 64), "noise seed must lie in"),
    (lambda d: d.update(cost={"family": "random_quadratic", "seed": -1}), "cost seed must lie in"),
    (lambda d: d.pop("comparator"), "comparator"),
    (lambda d: d.update(x0=[1.0, 2.0]), "x0"),
    (lambda d: d.update(delta=0.0), "delta"),
    (lambda d: d.update(delta=1.5), "delta"),
    (lambda d: d.update(m0=[[0.1]]), "m0"),
    (lambda d: d["system"].pop("A"), "config system is missing 'A'"),
    (lambda d: d["system"].update(A=[[0.1, 0.2], [0.3]], B=[[1.0], [1.0]]),
     "system A must be a numeric array"),
    (lambda d: d["system"].update(A=[[0.5, 0.1]]), "A must be square"),
    (lambda d: d["system"].update(A=[[0.5, 0.1], [0.0, 0.3]]), "B must be 2 x n_u"),
    (lambda d: d["system"].update(A=[["0.5"]]), "system A must hold only JSON numbers"),
    (lambda d: d["system"].update(B=[[True]]), "system B must hold only JSON numbers"),
    (lambda d: d["gain"].update(K=[["0.5"]]), "gain K must hold only JSON numbers"),
    (lambda d: d["cost"].update(R=[[True]]), "cost R must hold only JSON numbers"),
    (lambda d: d.update(x0=["  1.0 "]), "x0 must hold only JSON numbers"),
    (lambda d: d.update(comparator={"candidates": [[[" 0.5 "]]]}),
     "comparator candidate must hold only JSON numbers"),
    (lambda d: d.update(x0=[1e300]), "x0 must lie within the divergence guard"),
])
def test_build_experiment_rejects_bad_configs(mutate, needle):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ValueError, match=needle):
        build_experiment(doc)


def test_explicit_zero_start_accepted():
    doc = _base_doc()
    doc["m0"] = "zero"
    build_experiment(doc)


def test_grid_requires_scalar_system():
    doc = _base_doc()
    doc["system"] = {"A": [[0.5, 0.0], [0.0, 0.4]], "B": [[1.0], [0.0]]}
    doc["gain"] = {"K": [[0.5, 0.0]], "kappa": 2.0, "gamma": 0.5}
    with pytest.raises(ValueError, match="scalar"):
        build_experiment(doc)


def test_grid_drops_uncertifiable_points_silently():
    # gamma = 0.9 admits only |0.5 - K| <= 0.1; the wide grid shrinks to it
    doc = _base_doc(comparator={"grid": {"min": 0.0, "max": 1.0, "count": 6}})
    exp = build_experiment(doc)
    vals = sorted(float(np.asarray(c).ravel()[0]) for c in exp.candidates)
    np.testing.assert_allclose(vals, [0.4, 0.6], atol=1e-12)


def test_grid_with_no_survivors_raises():
    doc = _base_doc(comparator={"grid": {"min": 0.0, "max": 0.1, "count": 2}})
    with pytest.raises(ValueError, match="no comparator candidate"):
        build_experiment(doc)


def test_explicit_candidate_failure_propagates():
    doc = _base_doc(comparator={"candidates": [[[0.5]], [[2.5]]]})
    with pytest.raises(CertificationError):
        build_experiment(doc)


def test_defective_listed_candidate_exits_2(tmp_path, capsys):
    # the second candidate closes the loop on a Jordan block
    doc = _base_doc(system={"A": [[0.5, 1.0], [0.0, 0.5]], "B": [[1.0, 0.0], [0.0, 1.0]]},
                    gain={"K": [[0.0, 1.0], [0.0, 0.0]], "kappa": 5.0, "gamma": 0.3},
                    cost={"family": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]],
                          "R": [[1.0, 0.0], [0.0, 1.0]]},
                    horizons=[64],
                    comparator={"candidates": [[[0.0, 1.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [0.0, 0.0]]]})
    with pytest.raises(CertificationError) as exc:
        build_experiment(doc)
    assert exc.value.reason == "defective"
    assert cli_main(["certify", "--config", _write_cfg(tmp_path, doc)]) == 2
    assert "defective" in capsys.readouterr().err
    doc["comparator"]["candidates"].pop()
    assert len(build_experiment(doc).candidates) == 1


def test_config_hash_is_git_blob_sha1():
    # git hash-object of the canonical serialization, frozen externally
    assert config_hash({"a": 1}) == "daa5053ecf5f9a37b2de733d0751cc1ab53ac010"
    assert config_hash({"b": [1, 2], "a": 1}) == \
        "a6c135cdc13beae12acb48af65a38da67f04ffa4"
    # key order must not matter
    assert config_hash({"a": 1, "b": [1, 2]}) == \
        config_hash({"b": [1, 2], "a": 1})


def test_load_config_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(str(arr))


def _constants_doc():
    return _base_doc(
        gain={"K": [[0.5]], "kappa": 1.0, "gamma": 0.5},
        cost={"family": "quadratic", "Q": [[0.5]], "R": [[0.5]]},
        comparator={"grid": {"min": 0.3, "max": 0.7, "count": 5}},
        horizons=[100, 200],
    )


def test_theory_constants_hand_examples():
    exp = build_experiment(_constants_doc())
    c = compute_theory_constants(exp)
    assert c.D == 8.0                      # 4 kappa_B kappa^3 sqrt(n) / gamma
    assert c.alpha_tilde == 0.25 / 36.0    # alpha=sigma=1, gamma=0.5, kappa=1
    assert c.alpha == 1.0
    assert c.H[100] == 19                  # ceil(2 * ln(100) / 0.5)
    assert c.H_sc[100] == 21
    assert c.subgaussian is True
    # gaussian scale 1, dim 1: E|w|^2 = 1, E|w|^4 = 3
    assert c.sigma_w_subgauss == pytest.approx(1.0)
    assert c.sigma_w == pytest.approx(3.0 ** 0.25)
    assert c.sigma_lower == pytest.approx(1.0)


def test_theory_constants_formulas_recompute():
    exp = build_experiment(_constants_doc())
    c = compute_theory_constants(exp)
    delta, gamma, kappa, kappa_B, n, G_c = 0.1, 0.5, 1.0, 1.0, 1, c.G_c
    s14 = max(c.sigma_w, c.sigma_w ** 4)
    C = 65724.0 * s14 * n ** 2 * G_c ** 2 * kappa_B ** 6 * kappa ** 18 / (
        delta * gamma ** 8 * (1 - gamma) ** 4)
    assert c.C_delta == pytest.approx(C, rel=1e-12)
    C_sc = (2 / delta) * (201 * c.sigma_w_subgauss * kappa_B ** 2 * kappa ** 8
                          / (gamma ** 2 * (1 - gamma))
                          + 2 * c.sigma_w_subgauss * math.sqrt(2 * 1 * (1 + 0)))
    assert c.C_delta_sc == pytest.approx(C_sc, rel=1e-12)
    for T in (100, 200):
        lT = math.log(T)
        bound = ((2 * math.sqrt(3) * G_c * C ** 3 / math.sqrt(gamma)
                  + c.D ** 2 / 2) * math.sqrt(T) * lT ** 3
                 + (C / 2) * math.sqrt(T) * lT + 6 * G_c * C ** 2 * lT ** 2)
        assert c.bound_curve[T] == pytest.approx(bound, rel=1e-12)
        assert c.L_bar[T] == pytest.approx(
            4 * G_c * C_sc ** 2 * lT ** 2.5 / math.sqrt(gamma), rel=1e-12)
        assert c.beta_bar[T] == pytest.approx(
            6 * kappa_B * kappa ** 3 * c.beta * n ** 2 * C_sc * lT ** 1.5
            / (gamma ** 2 * (1 - gamma)), rel=1e-12)


def test_theory_constants_flags_heavy_tails():
    doc = _base_doc(noise={"family": "student_t", "scale": 1.0, "seed": 1,
                           "df": 5.0})
    c = compute_theory_constants(build_experiment(doc))
    assert c.subgaussian is False
    assert c.sigma_w > c.sigma_w_subgauss  # fourth moment dominates


def test_bound_curve_positive_and_monotone():
    doc = _base_doc(horizons=[16, 64, 256, 1024])
    c = compute_theory_constants(build_experiment(doc))
    vals = [c.bound_curve[T] for T in (16, 64, 256, 1024)]
    assert all(v > 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_theory_constants_delta_override():
    """delta comes from the config alone; C_delta scales as 1/delta."""
    c1 = compute_theory_constants(build_experiment(_base_doc(delta=0.1)))
    c2 = compute_theory_constants(build_experiment(_base_doc(delta=0.05)))
    assert (c1.delta, c2.delta) == (0.1, 0.05)
    assert c2.C_delta == pytest.approx(2 * c1.C_delta, rel=1e-12)
    assert c2.C_delta_sc == pytest.approx(2 * c1.C_delta_sc, rel=1e-12)


def test_theory_constants_rebuild_nothing(monkeypatch, perfbench_workloads):
    """The constants read exp.cost and exp.noise, which build_experiment
    made; they equal what a rebuilt cost family and the noise process at
    seed 0 give, since population moments do not depend on the seed."""
    docs = [_base_doc(), *(wl.doc(0) for wl in perfbench_workloads.values())]
    for doc in docs:
        exp = build_experiment(doc)
        cost, _ = hz._cost_schedule(exp.cost_cfg, exp.system.n_x, exp.system.n_u)
        rebuilt = dataclasses.replace(exp, cost=cost, noise=dataclasses.replace(exp.noise, seed=0))
        want = compute_theory_constants(rebuilt).to_json_dict()
        with monkeypatch.context() as m:
            m.setattr(hz, "_cost_schedule", None)  # a call would raise TypeError
            assert compute_theory_constants(exp).to_json_dict() == want


@pytest.mark.parametrize("cost", [
    {"family": "random_quadratic", "seed": 7},
    {"family": "quadratic", "Q": [[1.0]], "R": [[2.0]]},
], ids=["random", "fixed"])
def test_batch_reads_no_json_after_build(monkeypatch, tmp_path, cost):
    """Every field is parsed once, by build_experiment: the constants and a
    batch come out the same when the JSON readers are gone afterwards and
    the raw cost and noise sections are dropped from the experiment."""
    exp = build_experiment(_base_doc(cost=cost, x0=[0.25]))
    constants = compute_theory_constants(exp).to_json_dict()
    want = run_batch(exp, out_dir=str(tmp_path / "want"), trace=True)
    for name in ("_as_array", "_as_float", "_as_seed", "_as_int"):
        monkeypatch.setattr(hz, name, None)  # a call would raise TypeError
    exp = dataclasses.replace(exp, noise_cfg=None, cost_cfg=None)
    assert compute_theory_constants(exp).to_json_dict() == constants
    got = run_batch(exp, out_dir=str(tmp_path / "got"), trace=True)
    assert got.rows == want.rows
    for name in ("report.json", "traces/T16_seed2.jsonl"):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


@pytest.mark.parametrize("kappa,gamma,kind,needle", [
    (1e20, 0.9, "constant_sqrtT", "C_delta"),       # kappa ** 18 raises OverflowError
    (1e17, 0.9, "constant_sqrtT", "C_delta"),       # the product rounds to inf
    (1.0, 1e-41, "constant_sqrtT", "C_delta"),      # gamma ** 8 underflows to 0.0
    (1e35, 0.9, "strongly_convex", "alpha_tilde"),  # kappa ** 10 in alpha_tilde_from
])
def test_overflowing_constants_exit_2_before_any_episode(tmp_path, capsys, monkeypatch,
                                                         kappa, gamma, kind, needle):
    # T = 1e45 keeps H <= T at gamma = 1e-41 (H = 2.1e43)
    doc = _base_doc(gain={"K": [[0.5]], "kappa": kappa, "gamma": gamma},
                    schedule={"kind": kind}, horizons=[10 ** 45])
    with pytest.raises(ValueError, match=needle):
        compute_theory_constants(build_experiment(doc))
    monkeypatch.setattr(hz, "_episode_job", None)  # any episode would raise TypeError
    cfg = _write_cfg(tmp_path, doc)
    for args in (["constants"], ["run", "--out", str(tmp_path / "out")]):
        assert cli_main(args + ["--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid config:") and needle in captured.err
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_batch_deterministic_outputs(tmp_path):
    exp = build_experiment(_base_doc())
    d1, d2 = str(tmp_path / "one"), str(tmp_path / "two")
    run_batch(exp, out_dir=d1)
    run_batch(exp, out_dir=d2)
    for name in ("scaling.csv", "report.json", "median_regret.dat",
                 "theory_bound.dat"):
        with open(os.path.join(d1, name), "rb") as fa, \
             open(os.path.join(d2, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_run_batch_worker_count_is_invisible(tmp_path):
    """One job per horizon runs all its seeds together, so the seed axis,
    and with it every bit, is fixed by the config, not by the pool; the
    traces the workers serialize are written by the parent alike."""
    exp = build_experiment(_base_doc())
    r1 = run_batch(exp, out_dir=str(tmp_path / "w1"), trace=True, workers=1)
    traces = sorted(p.name for p in (tmp_path / "w1" / "traces").iterdir())
    assert traces == [f"T{T}_seed{s}.jsonl" for T in (16, 8) for s in (0, 1, 2)]
    for workers in (2, 3):
        r2 = run_batch(exp, out_dir=str(tmp_path / f"w{workers}"), trace=True,
                       workers=workers)
        assert r1.rows == r2.rows
        assert sorted(p.name for p in (tmp_path / f"w{workers}" / "traces").iterdir()) == traces
        for name in ("scaling.csv", "report.json", *(f"traces/{t}" for t in traces)):
            assert ((tmp_path / "w1" / name).read_bytes()
                    == (tmp_path / f"w{workers}" / name).read_bytes()), (workers, name)


def test_run_batch_pool_holds_at_most_one_worker_per_horizon(monkeypatch):
    """Each horizon is one job, so a larger pool would start idle workers;
    a single job runs in-process without a pool."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(hz, "ProcessPoolExecutor", RecordingPool)
    two = build_experiment(_base_doc())
    one = build_experiment(_base_doc(horizons=[8]))
    for exp, workers, pools in ((two, 1, []), (two, 2, [2]), (two, 3, [2]), (one, 3, [])):
        sizes.clear()
        assert run_batch(exp, workers=workers).rows == run_batch(exp).rows
        assert sizes == pools, (exp.horizons, workers)


def test_run_batch_csv_schema(tmp_path):
    exp = build_experiment(_base_doc())
    report = run_batch(exp, out_dir=str(tmp_path))
    with open(tmp_path / "scaling.csv") as fp:
        lines = fp.read().splitlines()
    assert lines[0] == ("T,seed_count,regret_q25,regret_median,regret_q75,"
                        "regret_q90,bound_value,slope")
    assert len(lines) == 1 + len(exp.horizons)
    first = lines[1].split(",")
    assert first[0] == "8" and first[1] == "3"
    # two horizons only: slope needs four positive medians
    assert first[-1] == "nan"
    assert report.slope is None


def test_zero_noise_batch_reports_zero_regret(tmp_path):
    doc = _base_doc(noise={"family": "zero", "scale": 0.0, "seed": 0})
    report = run_batch(build_experiment(doc), out_dir=str(tmp_path))
    for row in report.rows:
        assert row["regret_median"] == 0.0
    assert report.slope is None
    with open(tmp_path / "scaling.csv") as fp:
        body = fp.read().splitlines()[1:]
    assert all(line.split(",")[3] == "0" for line in body)


def test_divergent_batch_is_flagged(monkeypatch):
    def explode(sys_, K, cert, schedules, procs, *a, **k):
        return [EpisodeDivergedError(step=0, norm=float("inf")) for _ in procs]

    monkeypatch.setattr(hz, "run_episode", explode)
    report = run_batch(build_experiment(_base_doc()))
    assert report.failed
    assert len(report.divergences) == 6
    assert all(r["seed_count"] == 0 for r in report.rows)
    assert report.slope is None
    assert all(math.isnan(r["regret_median"]) for r in report.rows)


@pytest.mark.parametrize("workers,diverge", [(1, True), (2, False)],
                         ids=["one-worker-seed-9-diverges", "two-workers"])
def test_unsorted_seeds_give_the_sorted_batch(monkeypatch, tmp_path, workers, diverge):
    """Rows list their regrets, and the report its divergences, in ascending
    seed order whatever the config's order. On the criterion-7 plant
    A - BK = 0, so lockstep seeds equal their solo runs bit for bit and the
    order of the seed list changes nothing else."""
    if diverge:
        run_episode = hz.run_episode

        def seed_9_diverges(sys_, K, cert, schedules, procs, *args, **kwargs):
            records = run_episode(sys_, K, cert, schedules, procs, *args, **kwargs)
            return [EpisodeDivergedError(step=3, norm=math.inf)
                    if proc.seed == mix_seed(1234, 9) else record
                    for proc, record in zip(procs, records)]

        monkeypatch.setattr(hz, "run_episode", seed_9_diverges)
    reports = {}
    for name, seeds in (("sorted", [2, 5, 9]), ("unsorted", [9, 2, 5])):
        doc = _base_doc(cost={"family": "random_quadratic", "seed": 7},
                        noise={"family": "gaussian", "scale": 1.0, "seed": 1234}, seeds=seeds)
        reports[name] = run_batch(build_experiment(doc), out_dir=str(tmp_path / name),
                                  trace=True, workers=workers)
    want, got = reports["sorted"], reports["unsorted"]
    assert got.rows == want.rows
    assert got.divergences == want.divergences
    live = (2, 5) if diverge else (2, 5, 9)
    assert [row["seed_count"] for row in got.rows] == [len(live)] * 2
    assert got.divergences == ([{"T": T, "seed": 9, "step": 3} for T in (8, 16)]
                               if diverge else [])
    traces = sorted(p.name for p in (tmp_path / "sorted" / "traces").iterdir())
    assert traces == sorted(f"T{T}_seed{s}.jsonl" for T in (8, 16) for s in live)
    assert sorted(p.name for p in (tmp_path / "unsorted" / "traces").iterdir()) == traces
    for name in traces:
        assert ((tmp_path / "unsorted" / "traces" / name).read_bytes()
                == (tmp_path / "sorted" / "traces" / name).read_bytes()), name


def test_trace_files_written(tmp_path):
    doc = _base_doc(horizons=[8], seeds=[0, 1])
    run_batch(build_experiment(doc), out_dir=str(tmp_path), trace=True)
    for seed in (0, 1):
        p = tmp_path / "traces" / f"T8_seed{seed}.jsonl"
        assert p.exists()
        assert len(p.read_text().splitlines()) == 8


def test_plot_series_shape(tmp_path):
    exp = build_experiment(_base_doc())
    write_outputs(run_batch(exp), str(tmp_path))
    med = (tmp_path / "median_regret.dat").read_text().splitlines()
    bnd = (tmp_path / "theory_bound.dat").read_text().splitlines()
    assert med[0] == "# T median_regret"
    assert bnd[0] == "# T theory_bound"
    assert len(med) == len(bnd) == 1 + len(exp.horizons)
    t, v = med[1].split()
    assert int(t) == 8 and float(v) >= 0.0


def test_write_outputs_writes_report_last(tmp_path, monkeypatch):
    """write_outputs writes every file of a batch, the traces first and
    report.json last, so a present report.json marks a complete batch."""
    report = run_batch(build_experiment(_base_doc(horizons=[8], seeds=[0])))
    opened = []
    real_open = open

    def spy(path, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(os.path.relpath(path, tmp_path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    assert write_outputs(report, str(tmp_path), {"traces/T8_seed0.jsonl": "{}\n"}) is None
    monkeypatch.undo()
    assert opened == [os.path.join("traces", "T8_seed0.jsonl"), "scaling.csv",
                      "median_regret.dat", "theory_bound.dat", "report.json"]
    assert (tmp_path / "traces" / "T8_seed0.jsonl").read_text() == "{}\n"
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["config_hash"] == report.config_hash
    assert blob["failed"] is False


# CLI ----------------------------------------------------------------------

def _write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_missing_config(tmp_path, capsys):
    rc = cli_main(["certify", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "invalid config" in capsys.readouterr().err


def test_cli_rejects_bad_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli_main(["run", "--config", str(p)]) == 2


def test_cli_certify_prints_summary(tmp_path, capsys):
    rc = cli_main(["certify", "--config", _write_cfg(tmp_path, _base_doc())])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidates_certified"] == 5
    assert len(out["config_hash"]) == 40


def test_cli_certify_reports_violations(tmp_path, capsys):
    doc = _base_doc(gain={"K": [[2.5]], "kappa": 1.0, "gamma": 0.9})
    rc = cli_main(["certify", "--config", _write_cfg(tmp_path, doc)])
    assert rc == 2
    assert "violated" in capsys.readouterr().err


def test_cli_constants_delta_out_of_range(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _base_doc(delta=1.5))
    assert cli_main(["constants", "--config", cfg]) == 2
    assert "delta" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # the config is the one source of delta
        cli_main(["constants", "--config", cfg, "--delta", "0.05"])


def test_cli_constants_prints_json(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _constants_doc())
    rc = cli_main(["constants", "--config", cfg])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["D"] == 8.0


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _base_doc(horizons=[8], seeds=[0, 1]))
    out = tmp_path / "out"
    rc = cli_main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "slope=" in stdout and "T=" in stdout
    for name in ("scaling.csv", "report.json", "median_regret.dat",
                 "theory_bound.dat"):
        assert (out / name).exists()


def test_cli_run_rejects_zero_workers(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _base_doc())
    assert cli_main(["run", "--config", cfg, "--workers", "0"]) == 2


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d["comparator"]["grid"].pop("max"), "max"),
    (lambda d: d["noise"].pop("family"), "family"),
    (lambda d: d.update(horizons=64), "horizons"),
    (lambda d: d["cost"].pop("Q"), "Q"),
    (lambda d: d["noise"].update(scale=float("nan")), "scale"),
    (lambda d: d.update(x0=[float("nan")]), "x0"),
    (lambda d: d["gain"].update(kappa=float("nan")), "kappa"),
    (lambda d: d.update(comparator=5), "comparator"),
    (lambda d: d.update(horizons=[[8]]), "horizon"),
    (lambda d: d.update(seeds=[[1]]), "seed"),
    (lambda d: d.update(cost={"family": "random_quadratic", "seed": [1]}), "cost seed"),
    (lambda d: d.update(noise={"family": "student_t", "scale": 1.0, "df": "5",
                               "seed": 42}), "df"),
    (lambda d: d["noise"].update(seed="abc"), "noise seed"),
    (lambda d: d["noise"].update(df=3.0), "df applies only to student_t noise, not gaussian"),
    (lambda d: d["cost"].update(Q=[[1.0, 0.0], [0.0, 1.0]]), "cost Q"),
    (lambda d: d["gain"].update(require_diagonal=True), "gain has unknown key 'require_diagonal'"),
    (lambda d: d["schedule"].update(eta_constant=0.5), "schedule has unknown key 'eta_constant'"),
    (lambda d: d.update(horizon=[8]), "root has unknown key 'horizon'"),
    (lambda d: d["comparator"]["grid"].update(step=0.05), "grid has unknown key 'step'"),
    (lambda d: d["noise"].update(sigma=2.0), "noise has unknown key 'sigma'"),
    (lambda d: d["cost"].update(seed=7), "cost has unknown key 'seed'"),
    (lambda d: d.update(schedule={"kind": "strongly_convex"},
                        noise={"family": "gaussian", "scale": 1e200, "seed": 42}),
     "sigma_lower overflows"),
    (lambda d: d.update(gain={"K": [[0.5]], "kappa": 1.0, "gamma": 1e-6}, horizons=[4096]),
     "memory H = 16635533 exceeds horizon T = 4096 at gamma = 1e-06"),
    (lambda d: d.update(seeds=[0, 2 ** 64]), "seeds entry must lie in"),
    (lambda d: d["comparator"].update(candidates=[[[0.45]]]),
     "comparator must give either 'candidates' or 'grid'"),
    (lambda d: d.update(horizons=[64, 64]), "horizons list has duplicates"),
    (lambda d: d["system"].update(A=[["0.5"]]), "system A must hold only JSON numbers"),
    (lambda d: d["system"].update(B=[[True]]), "system B must hold only JSON numbers"),
    (lambda d: d["gain"].update(K=[["0.5"]]), "gain K must hold only JSON numbers"),
    (lambda d: d["cost"].update(R=[[True]]), "cost R must hold only JSON numbers"),
    (lambda d: d.update(x0=["  1.0 "]), "x0 must hold only JSON numbers"),
    (lambda d: d.update(comparator={"candidates": [[[" 0.5 "]]]}),
     "comparator candidate must hold only JSON numbers"),
    (lambda d: d.update(x0=[1e300]), "x0 must lie within the divergence guard"),
], ids=["grid-without-max", "noise-without-family", "horizons-not-a-list",
        "quadratic-without-Q", "nan-noise-scale", "nan-x0", "nan-kappa",
        "comparator-not-an-object", "nested-horizon", "nested-seed",
        "list-cost-seed", "string-df", "string-noise-seed", "df-on-gaussian",
        "cost-Q-wrong-shape",
        "unknown-gain-key", "unknown-schedule-key", "unknown-root-key",
        "unknown-grid-key", "unknown-noise-key", "stale-quadratic-seed",
        "overflowing-noise-scale", "memory-longer-than-episode", "aliasing-seeds",
        "candidates-and-grid", "duplicate-horizons", "string-A", "boolean-B", "string-K",
        "boolean-R", "string-x0", "string-candidate", "x0-beyond-divergence-guard"])
def test_cli_malformed_config_exits_2(tmp_path, capsys, mutate, needle):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ValueError, match=needle):
        build_experiment(doc)
    rc = cli_main(["run", "--config", _write_cfg(tmp_path, doc),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("invalid config:") and needle in err
    assert not (tmp_path / "out").exists()


def test_cli_unallocatable_grid_exits_2(tmp_path, capsys):
    # np.linspace asks for 711 PiB, which is refused before anything is allocated
    doc = _base_doc(comparator={"grid": {"min": 0.4, "max": 0.6, "count": 10 ** 17}})
    rc = cli_main(["run", "--config", _write_cfg(tmp_path, doc),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("invalid config: too large to allocate")


@pytest.mark.parametrize("case,workers", [
    ("new", 1), ("new", 2), ("existing", 1), ("existing", 2), ("shared", 1), ("same", 1),
], ids=["new", "new-pool", "existing", "existing-pool", "shared", "same"])
def test_cli_failed_batch_leaves_no_out_dir_of_its_own(tmp_path, capsys, monkeypatch,
                                                       case, workers):
    # the step sizes of T = 10^13 ask for 72.8 TiB, refused before anything is allocated;
    # at two workers a pool starts and the failure comes back from a worker
    doc = _base_doc(horizons=[10 ** 13] if workers == 1 else [8, 10 ** 13])
    out = tmp_path / "kept" if case == "existing" else tmp_path / "new" / "out"
    if case == "existing":
        out.mkdir()
        (out / "notes.txt").write_text("the user's own file")
    if case in ("shared", "same"):  # another run writes while this one runs
        other = tmp_path / "new" / "other" if case == "shared" else out
        job = hz._episode_job  # a local function cannot be pickled, so one worker

        def job_beside_another_run(*args):
            other.mkdir(parents=True, exist_ok=True)
            (other / "report.json").write_text("{}")
            return job(*args)

        monkeypatch.setattr(hz, "_episode_job", job_beside_another_run)
    rc = cli_main(["run", "--config", _write_cfg(tmp_path, doc), "--trace", "--out", str(out),
                   "--workers", str(workers)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("invalid config: too large to allocate")
    if case == "existing":  # the user's directory stays as it was
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
    elif case == "shared":  # the shared parent and the other run's files stay
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["other"]
        assert (tmp_path / "new" / "other" / "report.json").read_text() == "{}"
    elif case == "same":  # the other run's file in the same --out stays
        assert [p.name for p in out.iterdir()] == ["report.json"]
        assert (out / "report.json").read_text() == "{}"
    else:
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_cli_unusable_out_exits_2(tmp_path, capsys, trace, below):
    """An --out that is a regular file, or lies below one, fails once the
    episodes have run; the run exits 2 with a message, not a traceback."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / "sub" if below else blocker
    args = ["run", "--config", _write_cfg(tmp_path, _base_doc(horizons=[8], seeds=[0, 1])),
            "--out", str(out)] + (["--trace"] if trace else [])
    rc = cli_main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"cannot write outputs to {out}: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def _paths(node, prefix=()):
    """Every (key or index) path to a field below the root."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_MUTATION_BASES = (
    _base_doc(horizons=[8], seeds=[0, 1], x0=[0.0], m0="zero"),
    _base_doc(cost={"family": "random_quadratic", "seed": 7},
              noise={"family": "student_t", "scale": 0.5, "df": 5.0, "seed": 3},
              schedule={"kind": "strongly_convex"}, horizons=[8], seeds=[0],
              comparator={"candidates": [[[0.45]], [[0.55]]]}),
)
# one value of each JSON type, plus the numbers the boundary must refuse
_MUTATION_VALUES = ("abc", [], {}, None, True, 5, -1, 0.5, float("nan"),
                    float("inf"))


@st.composite
def _mutated_doc(draw):
    """A valid config with one field dropped, wrapped in a list or replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(_MUTATION_BASES)))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(("missing", "nested", "replaced")))
    if kind == "missing":
        del parent[path[-1]]
    elif kind == "nested":
        parent[path[-1]] = [parent[path[-1]]]
    else:
        parent[path[-1]] = draw(st.sampled_from(_MUTATION_VALUES))
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=_mutated_doc())
def test_single_field_mutations_build_or_exit_2(doc):
    try:
        build_experiment(doc)
        built = True
    except ValueError:
        built = False
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fp:
            json.dump(doc, fp)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(["run", "--config", cfg, "--out", os.path.join(tmp, "out")])
    assert rc in ((0, 3) if built else (2,))


def test_cli_no_surviving_grid_candidates(tmp_path, capsys):
    doc = _base_doc(comparator={"grid": {"min": 0.0, "max": 0.1, "count": 2}})
    assert cli_main(["run", "--config", _write_cfg(tmp_path, doc)]) == 2
