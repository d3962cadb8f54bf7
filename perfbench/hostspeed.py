"""Host-speed reference for the benchmark's time metrics.

On a shared host the CPU speed a process gets swings by 30-50% over
phases of seconds to minutes (other tenants, frequency scaling), so a
raw wall time of the same work spreads that much from run to run, and no
median over one run removes a phase that lasts the whole run.  The
benchmark therefore times a fixed reference computation right before and
right after every timed piece of work and reports that work's time at a
fixed reference speed::

    scaled = elapsed * REFERENCE_S / mean(reference before, reference after)

The reference mixes the kinds of work pfoco does (interpreted loops,
small NumPy vector operations and a small HiGHS LP) and touches nothing
under ``src/``, so a change to pfoco moves the scaled time exactly as it
moves the raw time.  Raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

# Nominal wall time of one reference() call; the scaled times are in
# seconds at the host speed at which reference() takes this long.
REFERENCE_S = 0.04

_N = 10
_RNG = np.random.default_rng(20220209)
_A = np.vstack([np.eye(_N), -np.eye(_N), _RNG.standard_normal((40, _N))])
_B = np.concatenate([np.ones(2 * _N), _RNG.uniform(0.6, 1.0, 40)])
_C = _RNG.standard_normal((5, _N))
_G = _RNG.standard_normal((8, 8))


def _python_loop() -> int:
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return s


def _vector_steps() -> float:
    x = np.zeros(8)
    for t in range(2400):
        g = _G[t % 8]
        x = x - 0.05 * g
        norm = np.abs(x).sum()
        if norm > 1.0:
            x = x / norm
    return float(x @ x)


def _small_lps() -> float:
    return sum(linprog(c, A_ub=_A, b_ub=_B, bounds=(None, None), method="highs").fun for c in _C)


def reference() -> float:
    """Wall time of one fixed computation (about REFERENCE_S, its median
    on a 2-core x86-64 VM)."""
    t0 = time.perf_counter()
    _python_loop()
    _vector_steps()
    _small_lps()
    return time.perf_counter() - t0


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` at the reference speed, given the reference times
    measured right before and right after it."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))
