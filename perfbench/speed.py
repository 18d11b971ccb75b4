"""A clock that runs at the speed of the core the benchmark runs on.

On a shared host, work on the sibling hardware thread of the benchmark's core
slows CPU-bound code by up to 70%, in spells lasting from milliseconds to
minutes, so raw wall times of one pass differ by a third between runs.  A
probe process pinned to the benchmark's core runs a short fixed kernel every
few milliseconds, once to refill the caches the benchmark evicted and once
timed.  Between two samples the core is taken to run at speed
``REFERENCE_KERNEL_S / t``, where ``t`` is the running median of the timed
kernels.  ``SpeedClock.elapsed`` integrates that speed over an interval: the
seconds the interval's work would take on a core where the kernel takes
``REFERENCE_KERNEL_S``, about this kernel's time on an uncontended core of
the host the benchmark was written on.  The speed comes from the probe, not
from the program, so work the program adds or removes shows in full.

Run as a script, this module is the probe: it writes "end duration" lines,
one per kernel, to the file named on the command line until terminated.
"""

import bisect
import statistics
import sys
import time

PROBE_PERIOD_S = 0.02
REFERENCE_KERNEL_S = 1.2e-4
SMOOTHING = 3  # probe samples per running median


def _kernel(np):
    """Small numpy calls driven from Python, then one small LAPACK eigensolve.

    The workloads spend their time in both kinds of code, and a busy sibling
    hardware thread slows the two by different amounts.
    """
    rng = np.random.default_rng(0)
    E = rng.standard_normal((16, 64))
    x = rng.standard_normal(64)
    A = rng.standard_normal((40, 40))
    A = A + A.T

    def run():
        y = x
        for _ in range(10):
            z = E @ y
            y = y + 1e-9 * (E.T @ (np.tanh(z) * 0.5 + z))
        np.linalg.eigvalsh(A)
        return y

    return run


def probe(path):
    import numpy as np

    kernel = _kernel(np)
    with open(path, "w", buffering=1) as fh:
        while True:
            kernel()  # refill the caches the benchmark evicted
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            fh.write(f"{end!r} {end - start!r}\n")
            time.sleep(PROBE_PERIOD_S)


def read_samples(path):
    """(time, duration) pairs from a probe file; skips a torn last line."""
    samples = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2 and line.endswith("\n"):
                samples.append((float(parts[0]), float(parts[1])))
    return samples


class SpeedClock:
    """Elapsed time rescaled to the reference speed of the probe kernel."""

    def __init__(self, samples):
        if not samples:
            raise ValueError("no probe samples")
        self.times = [t for t, _ in samples]
        self.durations = [d for _, d in samples]
        half = SMOOTHING // 2
        self.rates = [
            REFERENCE_KERNEL_S
            / statistics.median(self.durations[max(0, i - half):i + half + 1])
            for i in range(len(self.durations))
        ]
        self.cumulative = [0.0]
        for i in range(1, len(self.times)):
            step = (self.times[i] - self.times[i - 1]) * self.rates[i - 1]
            self.cumulative.append(self.cumulative[-1] + step)

    def _at(self, t):
        i = max(0, bisect.bisect_right(self.times, t) - 1)
        return self.cumulative[i] + (t - self.times[i]) * self.rates[i]

    def elapsed(self, start, end):
        return self._at(end) - self._at(start)

    def summary(self):
        return {
            "probe_samples": len(self.durations),
            "probe_median_s": statistics.median(self.durations),
            "probe_fastest_s": min(self.durations),
        }


if __name__ == "__main__":
    probe(sys.argv[1])
