"""Host-speed references: a fixed kernel and a fixed reference process.

The 2-core machine the bounds were set on runs at changing speed; the same
solve took anywhere from 0.55 s to 1.1 s there.  Both references use no code of the program.  The kernel
does the small-array NumPy and float arithmetic that the program's ODE layer
spends its time on; ``Sampler`` times it in bursts between operations, and
scaling a run's times by NOMINAL over the mean of its samples states them at
one fixed host speed.

Starting an interpreter and importing modules from disk do not follow the
kernel: within minutes the kernel's speed moved by a factor of two while
set-up time moved by 10%.  Set-up time is stated relative to
``reference_process``, a fresh interpreter that imports NumPy and a few
standard modules, run right before and right after each set-up probe.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# kernel seconds in the host's fast phase on the 2-core machine the bounds
# in BENCHMARK.json were set on; only the ratio of two runs matters
NOMINAL = 5.5e-3
# wall seconds of reference_process() on the 2-core machine the bounds were
# set on, in a slow phase of its host; only the ratio of two runs matters
REFERENCE_NOMINAL = 0.25
REFERENCE_IMPORTS = "import numpy, json, argparse, subprocess"


def kernel() -> float:
    """One fixed unit of reference work; returns its wall time."""
    t0 = time.perf_counter()
    y = np.array([1.0, 0.5])
    acc = 0.0
    for _ in range(1500):
        g = np.array([y[1] * 0.5, -y[0] * 0.25])
        y = y + 1e-3 * g
        acc += math.sqrt(float(np.dot(g, g)) + 1.0)
    return time.perf_counter() - t0


def reference_process() -> float:
    """Wall time of a fresh interpreter that imports REFERENCE_IMPORTS."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True, timeout=60)
    return time.perf_counter() - t0


class Sampler:
    """Times a reference in bursts between operations, at most every
    ``interval`` seconds, and states the run's times at its nominal speed."""

    def __init__(self, reference, nominal: float, interval: float, burst: int):
        self.reference = reference
        self.nominal = nominal
        self.interval = interval
        self.burst = burst
        self.samples: list[float] = []
        self._last = float("-inf")

    def take(self) -> None:
        self.samples += [self.reference() for _ in range(self.burst)]
        self._last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.take()

    def factor(self) -> float:
        """Multiply a time measured during the run by this to state it at
        the nominal host speed."""
        return self.nominal / statistics.mean(self.samples)


def kernel_sampler() -> Sampler:
    # in a slow phase single kernel timings scatter between the fast and the
    # slow speed, and only their mean follows the host
    return Sampler(kernel, NOMINAL, interval=0.5, burst=3)


def process_sampler() -> Sampler:
    # taken only right before and right after each set-up probe
    return Sampler(reference_process, REFERENCE_NOMINAL, interval=math.inf, burst=1)
