"""Host speed reference: a fixed kernel that never touches teamsearch.

On a shared host the CPU speed a process gets drifts: on a 2-core Xeon VM,
one fixed loop ran 1.6x slower for stretches of tens of seconds, so two
30-second runs of the same code could differ by more than any useful bound.
Each run therefore times this kernel just before and just after each timed
piece of work, and reports the work's time scaled to the host speed at which
the kernel takes REF_S:

    scaled time = wall time * REF_S / mean(kernel time before, kernel time after)

A change to teamsearch cannot change the kernel, so a real speed-up or
slow-down of the program shows in full.  The raw wall times and the kernel
times are kept in the result file beside the scaled ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# A fixed reference speed: the kernel took 10-18 ms on the 2-core Xeon VM the
# benchmark was sized on, as that host's speed drifted.
REF_S = 0.015


def reference() -> float:
    """Run the kernel once; returns its wall seconds.

    It mixes what teamsearch spends its time on: a scalar Python loop (the
    root finders), many small numpy calls (per-call array set-up) and large
    vectorised array and RNG work (the path engine).
    """
    t0 = perf_counter()
    x, memo = 0.0, {}
    for i in range(30000):
        x += math.exp(-i * 1e-4) * 0.5
        memo[i & 255] = x
    a = np.linspace(1.0, 2.0, 64)
    for _ in range(1000):
        a = np.sqrt(a + 1.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        np.maximum.accumulate(np.cumsum(rng.standard_normal(50000)))
    return perf_counter() - t0


def scaled(times: list[float], kernel_times: list[float]) -> list[float]:
    """Scale times[i] by the kernel times just before and after it (kernel_times[i], [i + 1])."""
    if len(kernel_times) != len(times) + 1:
        raise ValueError("need one kernel time before each time and one after the last")
    return [t * 2.0 * REF_S / (before + after)
            for t, before, after in zip(times, kernel_times, kernel_times[1:])]
