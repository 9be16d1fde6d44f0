"""Machine-speed probe: rescales wall times to a reference speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
tens of seconds, because of load from other tenants.  Every process and
thread slows together, so no statistic of raw wall times stays within a
25% bound from one run to the next.  So the benchmark times a fixed small
kernel right before and right after each timed interval, and reports

    seconds * REF_PROBE_S / (mean probe time around the interval)

That is the interval's length in seconds at the speed where the kernel
takes REF_PROBE_S.  The kernel does not touch striplab, so a change to the
program moves the rescaled times exactly as it moves the raw ones.  The raw
times are reported next to them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_PROBE_S = 1.0e-2  # about the kernel's median on a 2.1 GHz Xeon guest
_rng = np.random.default_rng(0)
_A = _rng.random((640, 2, 2, 2, 2))
_S = _rng.random((4, 2))
_X = _rng.random(64)
_Y = _rng.random(4096)


def probe() -> float:
    """Seconds the kernel takes now: median of 3 repeats of a ~10 ms mix.

    The mix has the shapes of the benchmark's own hot spots: a five-operand
    einsum like the element stiffness, a broadcast distance minimum like the
    McShane fill, and a Python loop.  It tracked unit times on a drifting
    host better than a cache-resident kernel did.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.einsum("eikjl,ak,bl->eaibj", _A, _S, _S)
        np.min(_Y[None, :] + np.hypot(_X[:, None], _Y[None, :]), axis=1)
        sum(i * i for i in range(3000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescale(seconds: float, probe_s: float) -> float:
    return seconds * REF_PROBE_S / probe_s
