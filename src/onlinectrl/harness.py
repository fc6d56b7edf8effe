"""Experiment harness: JSON configs, seeded batches, scaling reports.

A config document fixes the plant, the stabilizing gain with its
(kappa, gamma) certificate, the cost and noise families, the step-size
schedule, horizons, seeds, and the comparator gain set:

    {
      "system":     {"A": [[0.5]], "B": [[1.0]]},
      "gain":       {"K": [[0.5]], "kappa": 1.0, "gamma": 0.9},
      "cost":       {"family": "quadratic", "Q": [[1.0]], "R": [[1.0]]}
                    or {"family": "random_quadratic", "seed": 7},
      "noise":      {"family": "gaussian", "scale": 1.0, "seed": 1234},
      "schedule":   {"kind": "constant_sqrtT"},
      "horizons":   [256, 512, 1024, 2048, 4096],
      "seeds":      [0, 1, 2, 3],
      "comparator": {"grid": {"min": 0.4, "max": 0.6, "count": 11}}
                    or {"candidates": [[[0.45]], [[0.55]]]},
      "delta":      0.1          (optional)
      "x0":         [0.0]        (optional, default the origin)
      "m0":         "zero"       (optional; the only batch-level start)
    }

build_experiment reads the document once, keeping the validated cost
family and the noise process at the config's noise seed; each job builds
its seeds' inputs from those two, mixing the family seed with the episode
seed. A batch runs one job per horizon, which learns all seeds in
lockstep, so its outputs are byte-identical across invocations and worker
counts. Each job hands back its horizon's regrets, divergences and traces
in ascending seed order, so each report row lists its regrets in that
order whatever the config's seed order. The jobs open no file:
write_outputs writes every file once all jobs have finished, report.json
last, so a failed batch writes nothing and a present report.json marks a
complete batch.
Theory constants are pure functions of the config; they are
astronomically conservative (growing as kappa^18) and are reported for
the shape of the bound, not tightness.

Memory length: run_episode uses H = horizon_H(T, gamma) = ceil(2 ln T / gamma)
under both step-size schedules, and a config must keep H <= T for every
horizon T. The logarithmic-regret analysis states its constants with
H_sc = ceil(2 ln T / gamma) + 2; TheoryConstants.H_sc reports that value
next to the bound but no episode runs with it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import isfinite, log, sqrt
from typing import Optional

import numpy as np

from .comparator import best_fixed_K, regret
from .costs import (CostSchedule, adversarial_convex_schedule,
                    constant_schedule, quadratic_cost)
from .learner import (EpisodeDivergedError, LearningRateSchedule,
                      alpha_tilde_from, run_episode)
from .noise import (SUBGAUSSIAN_FAMILIES, NoiseProcess, population_sigma_lower,
                    population_sigma_w, population_sigma_w4)
from .policy import horizon_H, policy_class_diameter
from .rng import mix_seed
from .stability import CertificationError, StabilityCertificate, _certify_stack
from .stability import certify  # noqa: F401  (perfbench's tests read harness.certify)
from .system import LinearSystem, initial_state, make_system

_ROOT_KEYS = ("system", "gain", "cost", "noise", "schedule", "horizons", "seeds",
              "comparator", "delta", "x0", "m0")


@dataclass(frozen=True)
class ExperimentConfig:
    doc: dict
    system: LinearSystem
    K: np.ndarray
    kappa: float
    gamma: float
    cert: StabilityCertificate
    cost_cfg: dict              # the raw sections, read after the build only
    noise_cfg: dict             # by perfbench's bench.episode_inputs
    cost: CostSchedule          # the validated family: one step of a fixed (Q, R),
    cost_seed: Optional[int]    # or zero steps of the random one and its seed
    noise: NoiseProcess         # the family at the config's noise seed
    lr_schedule: LearningRateSchedule
    horizons: tuple             # ascending
    seeds: tuple                # in the config's order
    candidates: tuple
    delta: float
    x0: Optional[np.ndarray] = None

    @property
    def schedule_kind(self) -> str:
        return self.lr_schedule.kind


def load_config(path: str) -> dict:
    try:
        with open(path) as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    return doc


def config_hash(doc: dict) -> str:
    """Git-style SHA-1 of the canonical JSON serialization."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


def _require(doc: dict, key: str, section: str) -> object:
    if not isinstance(doc, dict):
        raise ValueError(f"config {section} must be a JSON object")
    if key not in doc:
        raise ValueError(f"config {section} is missing {key!r}")
    return doc[key]


def _require_list(doc: dict, key: str, section: str = "root") -> list:
    value = _require(doc, key, section)
    if not isinstance(value, list):
        raise ValueError(f"config {key} must be a list, got {type(value).__name__}")
    return value


def _no_unknown(doc: dict, keys: tuple, section: str) -> None:
    unknown = sorted(set(doc) - set(keys), key=str)
    if unknown:
        raise ValueError(f"config {section} has unknown key {', '.join(map(repr, unknown))}")


def _section(doc: dict, key: str, keys: tuple) -> dict:
    value = _require(doc, key, "root")
    if not isinstance(value, dict):
        raise ValueError(f"config {key} must be a JSON object")
    _no_unknown(value, keys, key)
    return value


def _as_int(value, what: str) -> int:
    """A JSON integer; integral floats such as 8.0 are accepted."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config {what} must be an integer, got {value!r}")
    return value


def _as_seed(value, what: str) -> int:
    """A JSON integer in [0, 2**64); mix_seed reduces its arguments mod 2**64,
    so seeds outside that range would alias seeds inside it."""
    seed = _as_int(value, what)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"config {what} must lie in [0, 2**64), got {seed}")
    return seed


def _as_float(value, what: str) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config {what} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"config {what} is out of range") from None
    if not isfinite(value):
        raise ValueError(f"config {what} must be finite, got {value}")
    return value


def _as_array(value, what: str) -> np.ndarray:
    """A finite float array from nested lists of JSON numbers. Strings and
    booleans are refused, but numpy promotes a boolean among numbers."""
    try:
        arr = np.array(value)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"config {what} must be a numeric array: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"config {what} must hold only JSON numbers, got {arr.dtype} entries")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"config {what} must be finite")
    return arr


def _cost_schedule(section: dict, n_x: int, n_u: int) -> tuple[CostSchedule, Optional[int]]:
    """The configured cost family, validated, with the family constants
    g_c, alpha and beta: the one-step quadratic_cost of a fixed (Q, R), or
    the zero-step random schedule and its seed. Nothing is drawn."""
    family = _require(section, "family", "cost")
    if family == "quadratic":
        _no_unknown(section, ("family", "Q", "R"), "cost")
        Q = _as_array(_require(section, "Q", "cost"), "cost Q")
        R = _as_array(_require(section, "R", "cost"), "cost R")
        if Q.shape != (n_x, n_x) or R.shape != (n_u, n_u):
            raise ValueError(f"cost Q must be ({n_x}, {n_x}) and R ({n_u}, {n_u}), "
                             f"got {Q.shape} and {R.shape}")
        return quadratic_cost(Q, R), None
    if family == "random_quadratic":
        _no_unknown(section, ("family", "seed"), "cost")
        seed = _as_seed(_require(section, "seed", "cost"), "cost seed")
        return adversarial_convex_schedule(seed, 0, n_x, n_u), seed
    raise ValueError(f"unknown cost family {family!r}")


def _finite(name: str, f) -> float:
    """f() as a finite float, or a ValueError naming the constant."""
    try:
        value = f()
    except (OverflowError, ZeroDivisionError):  # x ** k too large, or x / 0.0
        value = math.inf
    if not isfinite(value):
        raise ValueError(f"theory constant {name} overflows the float range")
    return value


def build_experiment(doc: dict) -> ExperimentConfig:
    """Validate a parsed config document end to end.

    Everything that can be rejected statically is rejected here, before
    any episode runs: shapes, family names, certification of the gain
    and of every comparator candidate, and unknown keys. Grid-generated
    candidates that fail certification are dropped; listed ones must certify.
    """
    plant = _section(doc, "system", ("A", "B"))
    sys = make_system(*(_as_array(_require(plant, key, "system"), f"system {key}")
                        for key in ("A", "B")))
    _no_unknown(doc, _ROOT_KEYS, "root")
    gain = _section(doc, "gain", ("K", "kappa", "gamma"))
    K = _as_array(_require(gain, "K", "gain"), "gain K")
    if K.shape != (sys.n_u, sys.n_x):
        raise ValueError(f"gain K must be ({sys.n_u}, {sys.n_x}), got {K.shape}")
    kappa = _as_float(_require(gain, "kappa", "gain"), "gain kappa")
    gamma = _as_float(_require(gain, "gamma", "gain"), "gain gamma")

    kind = _require(_section(doc, "schedule", ("kind",)), "kind", "schedule")

    noise_cfg = dict(_section(doc, "noise", ("family", "scale", "seed", "df")))
    family = _require(noise_cfg, "family", "noise")
    seed = _as_seed(_require(noise_cfg, "seed", "noise"), "noise seed")
    df = noise_cfg.get("df")
    proc = NoiseProcess(family, _as_float(noise_cfg.get("scale", 1.0), "noise scale"), sys.n_x,
                        seed, df=None if df is None else _as_float(df, "noise df"))

    horizons = sorted(_as_int(T, "horizon") for T in _require_list(doc, "horizons"))
    if not horizons:
        raise ValueError("horizons list is empty")
    if horizons[0] < 3:
        raise ValueError("every horizon must be >= 3")
    seeds = [_as_seed(s, "seeds entry") for s in _require_list(doc, "seeds")]
    if not seeds:
        raise ValueError("seeds list is empty")
    for name, values in (("horizons", horizons), ("seeds", seeds)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} list has duplicates")

    comp = _section(doc, "comparator", ("candidates", "grid"))
    if len(comp) != 1:  # the section has no other keys
        raise ValueError("comparator must give either 'candidates' or 'grid'")
    from_grid = "grid" in comp
    if not from_grid:
        raw = [_as_array(c, "comparator candidate")
               for c in _require_list(comp, "candidates", "comparator")]
    else:
        if sys.n_x != 1 or sys.n_u != 1:
            raise ValueError("comparator grid is only defined for scalar systems")
        g = _section(comp, "grid", ("min", "max", "count"))
        lo = _as_float(_require(g, "min", "comparator grid"), "comparator grid min")
        hi = _as_float(_require(g, "max", "comparator grid"), "comparator grid max")
        count = _as_int(_require(g, "count", "comparator grid"), "comparator grid count")
        if count < 1 or hi < lo:
            raise ValueError("comparator grid must have count >= 1 and max >= min")
        raw = [np.array([[v]]) for v in np.linspace(lo, hi, count)]
    if any(cand.shape != (sys.n_u, sys.n_x) for cand in raw):
        raise ValueError(f"candidate gain must be ({sys.n_u}, {sys.n_x})")
    cert, *certs = _certify_stack(sys, np.stack([K, *raw]), kappa, gamma)
    for c in [cert] + ([] if from_grid else certs):  # failing grid points are skipped
        if isinstance(c, CertificationError):
            raise c
    candidates = [cand for cand, c in zip(raw, certs) if not isinstance(c, CertificationError)]
    if not candidates:
        raise ValueError("no comparator candidate certifies at (kappa, gamma)")
    for T in horizons:  # the episode buffers hold T + 2H + 1 rows
        if (H := horizon_H(T, gamma)) > T:
            raise ValueError(f"memory H = {H} exceeds horizon T = {T} at gamma = {gamma}")

    cost_cfg = dict(_section(doc, "cost", ("family", "Q", "R", "seed")))
    cost, cost_seed = _cost_schedule(cost_cfg, sys.n_x, sys.n_u)

    alpha_tilde = None  # from seed-free inputs, so one schedule serves every cell
    if kind == "strongly_convex":
        if cost.alpha is None:
            raise ValueError("strongly_convex schedule needs strongly convex costs")
        sigma_lower = _finite("sigma_lower", lambda: population_sigma_lower(proc))
        if sigma_lower <= 0.0:
            raise ValueError("strongly_convex schedule needs non-degenerate noise")
        alpha_tilde = _finite("alpha_tilde", lambda: alpha_tilde_from(
            cost.alpha, sigma_lower, gamma, kappa))
    lr = LearningRateSchedule(kind, alpha_tilde)  # also rejects an unknown kind

    x0 = None if doc.get("x0") is None else initial_state(sys, _as_array(doc["x0"], "x0"))

    delta = _as_float(doc.get("delta", 0.1), "delta")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")

    # Batches span several horizons and H grows with T, so no single block
    # stack fits them all; every episode starts from zero blocks.
    if doc.get("m0", "zero") != "zero":
        raise ValueError('m0 supports only "zero"')

    return ExperimentConfig(
        doc=doc, system=sys, K=K, kappa=kappa, gamma=gamma, cert=cert,
        cost_cfg=cost_cfg, noise_cfg=noise_cfg, cost=cost, cost_seed=cost_seed, noise=proc,
        lr_schedule=lr,
        horizons=tuple(horizons), seeds=tuple(seeds),
        candidates=tuple(candidates), delta=delta, x0=x0,
    )


@dataclass(frozen=True)
class TheoryConstants:
    """Constants of the two regret guarantees, as pure functions of config.

    sigma_w is the smallest single scale consistent with both the
    first- and fourth-moment assumptions; sigma_w_subgauss is the
    sub-Gaussian scale used by the logarithmic-regret constants and is
    only a valid certificate when `subgaussian` is true.
    """

    delta: float
    n: int
    G_c: float
    kappa: float
    gamma: float
    kappa_B: float
    sigma_w: float
    sigma_w_subgauss: float
    sigma_lower: float
    subgaussian: bool
    D: float
    C_delta: float
    alpha: Optional[float]
    beta: Optional[float]
    alpha_tilde: Optional[float]
    H: dict
    bound_curve: dict
    C_delta_sc: float
    H_sc: dict
    L_bar: dict
    beta_bar: Optional[dict]

    def to_json_dict(self) -> dict:
        return {key: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
                for key, value in self.__dict__.items()}


def compute_theory_constants(exp: ExperimentConfig) -> TheoryConstants:
    """Evaluate both regret bounds' constants for the config's horizons,
    at the config's delta. A constant that overflows raises ValueError."""
    delta = exp.delta
    sys = exp.system
    kappa, gamma, kappa_B = exp.kappa, exp.gamma, sys.kappa_B
    n = max(sys.n_x, sys.n_u)
    G_c, alpha, beta, proc = exp.cost.g_c, exp.cost.alpha, exp.cost.beta, exp.noise
    sw = _finite("sigma_w", lambda: max(population_sigma_w(proc), population_sigma_w4(proc)))
    sw_sub = population_sigma_w(proc)
    sigma_lower = population_sigma_lower(proc)
    subgaussian = proc.family in SUBGAUSSIAN_FAMILIES

    D = _finite("D", lambda: policy_class_diameter(n, kappa, gamma, kappa_B))
    C = _finite("C_delta", lambda: 65724.0 * max(sw, sw ** 4) * n ** 2 * G_c ** 2
                * kappa_B ** 6 * kappa ** 18 / (delta * gamma ** 8 * (1.0 - gamma) ** 4))

    alpha_tilde = None
    if alpha is not None and sigma_lower > 0.0:
        alpha_tilde = _finite("alpha_tilde", lambda: alpha_tilde_from(
            alpha, sigma_lower, gamma, kappa))

    C_sc = _finite("C_delta_sc", lambda: (2.0 / delta) * (
        201.0 * sw_sub * kappa_B ** 2 * kappa ** 8 / (gamma ** 2 * (1.0 - gamma))
        + 2.0 * sw_sub * sqrt(2.0 * sys.n_x * (1.0 + log(sys.n_x)))))

    H, bound, H_sc, L_bar, beta_bar = {}, {}, {}, {}, {}
    for T in exp.horizons:
        lT = log(T)
        H[T] = horizon_H(T, gamma)
        bound[T] = _finite("bound_curve", lambda: (
            (2.0 * sqrt(3.0) * G_c * C ** 3 / sqrt(gamma) + D ** 2 / 2.0) * sqrt(T) * lT ** 3
            + (C / 2.0) * sqrt(T) * lT
            + 6.0 * G_c * C ** 2 * lT ** 2))
        H_sc[T] = H[T] + 2
        L_bar[T] = _finite("L_bar", lambda: 4.0 * G_c * C_sc ** 2 * lT ** 2.5 / sqrt(gamma))
        if beta is not None:
            beta_bar[T] = _finite("beta_bar", lambda: (
                6.0 * kappa_B * kappa ** 3 * beta * n ** 2 * C_sc
                * lT ** 1.5 / (gamma ** 2 * (1.0 - gamma))))

    return TheoryConstants(
        delta=delta, n=n, G_c=G_c, kappa=kappa, gamma=gamma, kappa_B=kappa_B,
        sigma_w=sw, sigma_w_subgauss=sw_sub, sigma_lower=sigma_lower,
        subgaussian=subgaussian, D=D, C_delta=C, alpha=alpha, beta=beta,
        alpha_tilde=alpha_tilde, H=H, bound_curve=bound, C_delta_sc=C_sc,
        H_sc=H_sc, L_bar=L_bar, beta_bar=beta_bar if beta is not None else None,
    )


@dataclass
class ScalingReport:
    rows: list                  # per-T dicts, ascending T
    slope: Optional[float]
    residuals: dict             # T -> log-regret residual of the slope fit
    divergences: list           # per-(T, seed) dicts with the failing step
    failed: bool
    config_hash: str
    constants: TheoryConstants
    horizons: tuple             # ascending
    seeds: tuple                # in the config's order
    schedule_kind: str

    def to_json_dict(self) -> dict:
        def clean(x):
            if isinstance(x, float) and math.isnan(x):
                return None
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, list):
                return [clean(v) for v in x]
            return x

        return {
            "config_hash": self.config_hash,
            "schedule": self.schedule_kind,
            "horizons": list(self.horizons),
            "seeds": list(self.seeds),
            "rows": clean(self.rows),
            "slope": self.slope,
            "residuals": {str(k): v for k, v in self.residuals.items()},
            "divergences": self.divergences,
            "divergence_count": len(self.divergences),
            "failed": self.failed,
            "constants": self.constants.to_json_dict(),
        }


def _episode_job(exp: ExperimentConfig, T: int, seeds: tuple, trace: bool) -> tuple:
    """Every (T, seed) cell of horizon T: learn all seeds in lockstep, replay
    the comparator on every seed that did not diverge in one more lockstep
    loop, and measure regret. Returns (regrets, divergences, traces) in
    ascending seed order: the live cells' regrets, a {T, seed, step} dict
    per diverged cell, and with trace each live cell's per-step JSONL text
    under its output path. Opens no file."""
    sys = exp.system
    procs = [replace(exp.noise, seed=mix_seed(exp.noise.seed, seed)) for seed in seeds]
    if exp.cost_seed is None:  # a fixed (Q, R): every seed shares its stride-0 schedule
        schedules = [constant_schedule(exp.cost, T)] * len(seeds)
    else:
        schedules = [adversarial_convex_schedule(mix_seed(exp.cost_seed, seed), T, sys.n_x,
                                                 sys.n_u) for seed in seeds]
    outcomes = run_episode(sys, exp.K, exp.cert, schedules, procs, exp.lr_schedule,
                           T, x0=exp.x0)
    live = [i for i, record in enumerate(outcomes)
            if not isinstance(record, EpisodeDivergedError)]
    comps = dict(zip(live, best_fixed_K(sys, list(exp.candidates), [schedules[i] for i in live],
                                        [outcomes[i].ws for i in live]) if live else []))
    regrets, divergences, traces = [], [], {}
    for seed, i in sorted(zip(seeds, range(len(seeds)))):
        record = outcomes[i]
        if i not in comps:
            divergences.append({"T": T, "seed": seed, "step": record.step})
            continue
        regrets.append(float(regret(record, comps[i]).regret_final))
        if trace:
            text = io.StringIO()
            record.write_jsonl(text)
            traces[f"traces/T{T}_seed{seed}.jsonl"] = text.getvalue()
    return regrets, divergences, traces


def run_batch(exp: ExperimentConfig, out_dir: Optional[str] = None,
              trace: bool = False, workers: int = 1) -> ScalingReport:
    """Run every (T, seed) cell and aggregate regret quantiles per T.

    One job runs all seeds of one horizon in lockstep, so a seed's numbers
    depend on the config's seed list but not on the worker count. With
    workers > 1 the jobs fan out to a process pool, largest T first, of at
    most one process per horizon; a single horizon runs in-process. Each
    job hands back its horizon's cells in ascending seed order, so every
    row lists its regrets, and the report its divergences, in that order
    whatever the config's order or the scheduling. Diverged episodes are
    dropped from the quantiles; once more than 20% of cells diverge the
    whole batch is marked failed. The theory constants come first, so
    overflowing ones reject the config before any episode runs. The jobs
    open no file: out_dir, its traces and its outputs are written only
    after every job has finished, so a failed batch writes nothing, and an
    unusable out_dir raises OSError only then.
    """
    constants = compute_theory_constants(exp)
    trace = trace and out_dir is not None
    jobs = [(exp, T, exp.seeds, trace) for T in reversed(exp.horizons)]
    workers = min(workers, len(jobs))  # a worker past one per job would idle
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_episode_job, *zip(*jobs)))
    else:
        done = [_episode_job(*job) for job in jobs]

    rows, divergences, traces = [], [], {}
    for T, (regrets, diverged, texts) in zip(exp.horizons, reversed(done)):
        divergences += diverged
        traces.update(texts)
        q25, med, q75, q90 = (np.quantile(regrets, (0.25, 0.5, 0.75, 0.9)).tolist()
                              if regrets else [float("nan")] * 4)
        rows.append({"T": T, "seed_count": len(regrets), "regret_q25": q25,
                     "regret_median": med, "regret_q75": q75, "regret_q90": q90,
                     "bound_value": float(constants.bound_curve[T]), "regrets": regrets})

    failed = len(divergences) > 0.2 * len(exp.horizons) * len(exp.seeds)

    fit_rows = [r for r in rows
                if r["seed_count"] > 0 and r["regret_median"] > 0.0]
    slope = None
    residuals = {}
    if len(fit_rows) >= 4:
        lt = np.log([r["T"] for r in fit_rows])
        lr_ = np.log([r["regret_median"] for r in fit_rows])
        coef = np.polyfit(lt, lr_, 1)
        slope = float(coef[0])
        fitted = np.polyval(coef, lt)
        residuals = {r["T"]: float(lr_[i] - fitted[i])
                     for i, r in enumerate(fit_rows)}

    report = ScalingReport(
        rows=rows, slope=slope, residuals=residuals, divergences=divergences,
        failed=failed, config_hash=config_hash(exp.doc), constants=constants,
        horizons=exp.horizons, seeds=exp.seeds,
        schedule_kind=exp.schedule_kind,
    )
    if out_dir is not None:
        write_outputs(report, out_dir, traces)
    return report


def _fmt(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(x, ".12g")


def write_outputs(report: ScalingReport, out_dir: str, traces: Optional[dict] = None) -> None:
    """Write a batch's files into out_dir, the one place that writes them:
    the traces ({relative path: JSONL text}), scaling.csv, the plot series
    median_regret.dat and theory_bound.dat, and report.json last, so its
    presence marks a complete batch.

    The .dat files hold two columns, T then the median regret or the
    regret-bound value. The bound should dominate the medians in a valid
    run, but that is reported rather than asserted since the constants are
    conservative by orders of magnitude.
    """
    cols = ("regret_q25", "regret_median", "regret_q75", "regret_q90", "bound_value")
    files = {**(traces or {}), "scaling.csv": "".join(
        [f"T,seed_count,{','.join(cols)},slope\n"]
        + [",".join([str(r["T"]), str(r["seed_count"]), *(_fmt(r[c]) for c in cols),
                     _fmt(report.slope)]) + "\n" for r in report.rows])}
    for name, key in (("median_regret", "regret_median"), ("theory_bound", "bound_value")):
        files[f"{name}.dat"] = "".join([f"# T {name}\n"] + [
            f"{r['T']} {_fmt(r[key])}\n" for r in report.rows])
    files["report.json"] = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    paths = [os.path.join(out_dir, name) for name in files]
    for folder in dict.fromkeys(map(os.path.dirname, paths)):
        os.makedirs(folder, exist_ok=True)
    for path, text in zip(paths, files.values()):
        with open(path, "w") as fp:
            fp.write(text)
