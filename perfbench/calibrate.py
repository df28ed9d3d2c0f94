"""A fixed calibration kernel that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a factor two, in phases of seconds to minutes, as other tenants come
and go. The runner times this kernel between operations and scales each
operation's wall time by REFERENCE_S over the mean of the readings on
either side of it, so a phase that slows both alike cancels out (see
README, "Timing on a shared host").

The kernel uses only numpy and the benchmark's own oracle, never vqesim, so
no change to the program can move it. Its mix follows the program's: a
loop of 2-qubit states with sampling (Python-bound, like `noisy-2q`), one
7-qubit dense ansatz (128x128 products, like `wide-8q`) and three
192x192 `eigvalsh` calls (LAPACK, like the dense spectra of `cli-modes`).
It draws from a fixed seed, so every call does the same work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import oracle

# The kernel's median time on the reference VM (see README).
REFERENCE_S = 0.029
# Back-to-back runs per reading; the reading is their median.
REPEATS = 3

_H2 = oracle.hamiltonian_matrix([(0.3, "ZI"), (0.5, "IZ"), (0.2, "XX"), (-0.1, "YY")])
_M = np.random.default_rng(0).standard_normal((192, 192))
_M = _M + _M.T


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(30):
        state = oracle.layered_state(2, 1, rng.uniform(-1.0, 1.0, 12))
        p = np.abs(state) ** 2
        total += oracle.expectation(state, _H2) + int(rng.choice(4, size=100, p=p / p.sum()).sum())
    total += float(np.abs(oracle.layered_state(7, 1, rng.uniform(-1.0, 1.0, 42))[0]))
    for _ in range(3):
        total += float(np.linalg.eigvalsh(_M)[0])
    return total


def kernel_seconds() -> float:
    """Median wall time of one run of the kernel over REPEATS back-to-back runs.

    The median drops a run that a burst of a few milliseconds sped up or
    slowed down; phases that last longer show in every run.
    """
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
