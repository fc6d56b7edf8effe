"""The benchmark's two workloads: config documents and batch shapes.

Every workload's largest horizon is T_MAX = 4096, so the memory length H
matches the ROADMAP baseline rows (19 for the scalar plant, 31 for the
n = 4 plant). The horizon subset and seed count are the length setting:
they fix how much work one batch is, and the reference in
reference.json is tied to them.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
T_MAX = 4096


def mix(base: int, seed: int) -> int:
    """Config seed for a workload seed; the default seed keeps the base."""
    if seed == DEFAULT_SEED:
        return base
    digest = hashlib.sha256(f"{base}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict          # config document without horizons and seeds
    horizons: tuple
    seeds: tuple
    workers: int
    via_cli: bool       # batch runs through `onlinectrl run` and writes outputs

    def doc(self, seed: int) -> dict:
        """The config document for a workload seed, mixed into the noise
        and cost seeds so a claim can be rechecked on a held-out seed."""
        doc = copy.deepcopy(self.base)
        doc["noise"]["seed"] = mix(doc["noise"]["seed"], seed)
        if "seed" in doc["cost"]:
            doc["cost"]["seed"] = mix(doc["cost"]["seed"], seed)
        doc["horizons"] = list(self.horizons)
        doc["seeds"] = list(self.seeds)
        return doc

    @property
    def t_max(self) -> int:
        return max(self.horizons)

    @property
    def cells(self) -> list:
        return [(T, s) for T in self.horizons for s in self.seeds]


def _scalar(cost: dict, kind: str) -> dict:
    """The acceptance-test scalar plant (tests/test_acceptance.py)."""
    return {
        "system": {"A": [[0.5]], "B": [[1.0]]},
        "gain": {"K": [[0.5]], "kappa": 1.0, "gamma": 0.9},
        "cost": cost,
        "noise": {"family": "gaussian", "scale": 1.0, "seed": 1234},
        "schedule": {"kind": kind},
        "comparator": {"grid": {"min": 0.4, "max": 0.6, "count": 11}},
        "delta": 0.1,
    }


def _mimo4() -> dict:
    """n_x = n_u = 4 plant whose closed loop A_K = V diag(lam) V^-1 is
    non-diagonal with a real spectrum.

    Comparator candidates keep A_K's eigenvectors and scale its spectrum,
    K_c = B^-1 (A - V diag(c lam) V^-1), so each certifies at the shared
    (kappa, gamma); perturbing K by +-delta I instead breaks the ||Q^-1||
    bound.
    """
    lam = np.array([0.42, 0.3, -0.25, 0.1])
    V = np.array([[1.0, 0.3, 0.0, 0.1],
                  [0.2, 1.0, 0.3, 0.0],
                  [0.0, 0.2, 1.0, 0.3],
                  [0.1, 0.0, 0.2, 1.0]])
    V = V / np.linalg.norm(V, axis=0)
    V_inv = np.linalg.inv(V)
    B = np.array([[1.0, 0.2, 0.0, 0.0],
                  [0.0, 0.9, 0.2, 0.0],
                  [0.0, 0.0, 1.1, 0.1],
                  [0.1, 0.0, 0.0, 0.8]])
    K = np.array([[0.3, 0.1, 0.0, 0.0],
                  [0.0, 0.25, 0.1, 0.0],
                  [0.0, 0.0, 0.2, 0.05],
                  [0.05, 0.0, 0.0, 0.3]])
    A = V @ np.diag(lam) @ V_inv + B @ K
    B_inv = np.linalg.inv(B)
    candidates = [B_inv @ (A - V @ np.diag(c * lam) @ V_inv)
                  for c in (0.75, 0.9, 1.0, 1.07)]
    Q = np.array([[2.0, 0.5, 0.0, 0.0],
                  [0.5, 1.5, 0.3, 0.0],
                  [0.0, 0.3, 1.0, 0.2],
                  [0.0, 0.0, 0.2, 0.8]])
    R = np.diag([0.5, 0.6, 0.7, 0.8])
    return {
        "system": {"A": A.tolist(), "B": B.tolist()},
        "gain": {"K": K.tolist(), "kappa": 2.0, "gamma": 0.55},
        "cost": {"family": "quadratic", "Q": Q.tolist(), "R": R.tolist()},
        "noise": {"family": "student_t", "scale": 0.5, "df": 5.0,
                  "seed": 4321},
        "schedule": {"kind": "constant_sqrtT"},
        "comparator": {"candidates": [c.tolist() for c in candidates]},
        "delta": 0.1,
    }


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="scalar-randcost-pool",
        base=_scalar({"family": "random_quadratic", "seed": 7},
                     "constant_sqrtT"),
        horizons=(1024, T_MAX), seeds=(0, 1), workers=2, via_cli=True),
    Workload(
        name="mimo4-heavytail",
        base=_mimo4(),
        horizons=(T_MAX,), seeds=(0,), workers=1, via_cli=False),
)}
