"""A CPU-speed probe, to take the host's speed swings out of the timings.

On a shared 2-vCPU machine the same pure-Python work runs at speeds that
differ by up to 2x for stretches of seconds to minutes, whatever else this
process does.  A fixed pure-Python loop, run right before and right after a
measured interval, tracks that speed; multiplying the interval by
REF_PROBE_S / (mean probe time) states it at the speed of the reference
machine.  The probe is part of the benchmark, not of the program, so a
change to the program moves the scaled time as much as the raw one.
"""

import time

# Probe time of the reference machine (Intel Xeon vCPU at 2.1 GHz, quiet).
REF_PROBE_S = 0.004


def _work(n=12000):
    counts = {}
    keys = []
    for i in range(n):
        k = (i % 97, i % 89, "ab"[i & 1])
        counts[k] = counts.get(k, 0) + 1
        if i % 7 == 0:
            keys.append(k)
    return sum(counts[k] for k in keys)


def probe():
    """Seconds for one probe loop, the median of three."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def scale(before, after):
    """Factor that turns a time measured between two probes into reference
    machine time."""
    return REF_PROBE_S * 2 / (before + after)
