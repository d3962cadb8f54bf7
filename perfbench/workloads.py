"""Seeded workload generator for the pfoco benchmark.

Each workload is a function of its seed alone: it returns the experiment
config dicts that ``pfoco run`` receives (segment targets, and for the
polytope its A/b).  The program sees only the generated configs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np


def _segments(rng: np.random.Generator, T: int, count: int, n: int, norm: float) -> list:
    """``count`` equal-length segments with Gaussian target directions
    scaled to ``norm``; the last segment absorbs the remainder."""
    base = T // count
    lengths = [base] * (count - 1) + [T - base * (count - 1)]
    out = []
    for length in lengths:
        v = rng.standard_normal(n)
        out.append([length, (norm * v / np.linalg.norm(v)).tolist()])
    return out


def _polytope(rng: np.random.Generator, n: int, m: int) -> tuple[list, list]:
    """Box faces |x_i| <= 1 plus ``m - 2n`` random unit cuts a @ x <= b
    with b in [0.6, 1.0]: bounded by construction, origin interior."""
    rows, offs = [], []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e, -e]
        offs += [1.0, 1.0]
    for _ in range(m - 2 * n):
        a = rng.standard_normal(n)
        rows.append(a / np.linalg.norm(a))
        offs.append(float(rng.uniform(0.6, 1.0)))
    return np.stack(rows).tolist(), offs


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named family of configs; one benchmark run covers ``batch``
    instances drawn from its seed."""

    name: str
    batch: int
    make: Callable[[np.random.Generator, int], dict]

    def configs(self, seed: int) -> list[dict]:
        return [self.make(np.random.default_rng([seed, index]), seed) for index in range(self.batch)]


def _sep_l1_switch(rng: np.random.Generator, seed: int) -> dict:
    """Per-round SO path: the l1 ball is not a Euclidean ball, so the
    radial rescale is not the projection and switches make cip_so pull."""
    T, n = 10_000, 8
    return {
        "T": T,
        "seeds": [seed],
        "set": {"kind": "l1", "n": n, "radius": 1.0},
        "loss": {"kind": "switching_linear", "segments": _segments(rng, T, 20, n, 1.0)},
        "learner": {"kind": "so_ogd"},
    }


def _blocked_quad_l1(rng: np.random.Generator, seed: int) -> dict:
    """Blocked LOO path: targets outside K keep Frank-Wolfe busy; the
    default eps = 60R^2/sqrt(T) would let almost every projection return
    early, hence the override."""
    T, n = 2_000, 8
    return {
        "T": T,
        "seeds": [seed],
        "set": {"kind": "l1", "n": n, "radius": 1.0},
        "loss": {"kind": "switching_quadratic", "segments": _segments(rng, T, 10, n, 2.0)},
        "learner": {"kind": "loo_bogd", "eps": 0.02},
    }


def _blocked_poly_lp(rng: np.random.Generator, seed: int) -> dict:
    """LP-bound: every learner and comparator LOO call is one linprog."""
    T, n = 200, 10
    A, b = _polytope(rng, n, 60)
    return {
        "T": T,
        "seeds": [seed],
        "set": {"kind": "polytope", "A": A, "b": b},
        "loss": {"kind": "switching_linear", "segments": _segments(rng, T, 10, n, 1.0)},
        "learner": {"kind": "loo_bogd", "eps": 0.08, "K": 20},
    }


# Batch sizes keep the seed-to-seed spread of the batch means of
# oracle calls and adaptive regret under a few percent (the per-instance
# spread is largest on blocked_quad_l1, hence its many short instances)
# while one pass over the batch, and the check of its outputs,
# each take 10-17 s on a 2-core x86-64 VM; the reason for each
# workload is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sep_l1_switch", 20, _sep_l1_switch),
        Workload("blocked_quad_l1", 56, _blocked_quad_l1),
        Workload("blocked_poly_lp", 20, _blocked_poly_lp),
    )
}
