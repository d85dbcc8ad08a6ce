"""How fast this CPU runs Python right now, sampled while children run.

The benchmark shares its host: other tenants' load slows the processor by
up to half for seconds to minutes at a time, and the CPU time of a child
grows with it (it is the processor that slows, not waiting for it).  So a
thread of the benchmark, on the same CPU as the child it measures, runs a
fixed chunk of pure-Python work every `PERIOD_S` and records the chunk's
CPU time.  A child's CPU time divided by the mean chunk cost over its
lifetime, times a fixed nominal chunk cost, is its CPU time at that
nominal speed: `calibrate`.

The chunk mixes the two kinds of work the analyzer does: dict and tuple
handling (environments, partitions, configurations) and machine-integer
arithmetic with gcds (the counting domain's rows).  It uses nothing from
`picount`, so no change to the analyzer moves it.
"""

from __future__ import annotations

import statistics
import threading
import time
from math import gcd

PERIOD_S = 0.045
# the span of samples a short child is calibrated with, centred on it
MIN_WINDOW_S = 0.5
# The scale of calibrated times: a calibrated time is the CPU time a child
# would take at the speed at which a sampled chunk costs this much.  In the
# sampler, between a child's time slices, a chunk costs 3.2-3.7 ms on a
# 2-vCPU Xeon VM with Python 3.11.7 (2.3 ms when run back to back).
NOMINAL_CHUNK_S = 0.003


def chunk() -> None:
    table: dict = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        row = table.get(key)
        if row is None:
            row = table[key] = []
        row.append(i ^ len(row))
        if len(row) > 8:
            row.sort()
            del row[:4]
    rows = [(i * 7919) % 10007 + 1 for i in range(32)]
    acc = 0
    for i in range(1500):
        a, b = rows[i & 31], rows[(i * 5) & 31]
        g = gcd(a * (i + 3), b * 11)
        acc += (a * b) // g - (a ^ b)
        rows[i & 31] = (a * 31 + g) % 100003 + 1


def chunk_cost() -> float:
    """CPU time of one chunk; time spent descheduled does not count."""
    t0 = time.thread_time()
    chunk()
    return time.thread_time() - t0


class Sampler:
    """Samples `chunk_cost` every `PERIOD_S` on a thread of its own, from
    `start` to `stop`.  Use it from a process pinned to one CPU, so the
    samples and the children it calibrates share that CPU."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time taken, cost)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        cost = chunk_cost()
        self.samples.append((time.perf_counter(), cost))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def start(self) -> None:
        self._sample()  # so every interval has a sample at or before it
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def cost(self, t0: float, t1: float) -> float:
        """Mean chunk cost sampled in [t0, t1], widened to `MIN_WINDOW_S`;
        the last sample before it when the window holds none."""
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2
        samples = list(self.samples)
        inside = [c for t, c in samples if t0 - pad <= t <= t1 + pad]
        if inside:
            return statistics.fmean(inside)
        return [c for t, c in samples if t <= t1][-1]

    def calibrate(self, cpu_s: float, t0: float, t1: float) -> float:
        """`cpu_s` spent in [t0, t1], scaled to the nominal chunk speed."""
        return cpu_s * NOMINAL_CHUNK_S / self.cost(t0, t1)
