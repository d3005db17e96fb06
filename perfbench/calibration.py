"""Timing scaled by a speed probe that runs inside every timed unit.

The benchmark runs on shared virtual machines.  There, co-tenants slow
CPU-bound Python by up to 1.8x, in bursts of a tenth of a second and in
stretches of many minutes, so a whole run can be slow and no in-run
statistic of wall time removes that.  So while a unit (a study cell, an
assembly pair, a set-up) runs, a timer signal interrupts it every
`INTERVAL_S` and times a fixed probe in the same thread.  The unit's scaled
time is

    scaled = wall * REFERENCE_S / median(probe times during the unit)

that is, its wall time at the speed at which the probe takes REFERENCE_S.
The median, not the mean: a stall of the virtual CPU that hits one probe
would move the mean of some hundred probes far more than it moves the
unit's wall time.

The probe has two halves of about equal time.  One is a miniature of what
multifem's assembler does per entity: small einsum contractions, a 2x2
determinant and a scatter with np.add.at, all in the first-level cache.
The other gathers and scatters at 16000 random places of an 8 MB array,
which slows as co-tenants take the shared cache and memory bandwidth.  On
the reference machine, over 87 assembly pairs whose wall time ranged over
1.2-2.2 s, the logarithm of the pair time rose 0.87 times as fast as that
of the first half, 0.91 times as fast as that of the second, and 1.03
times as fast as that of the whole probe.  The medians of six blocks of
those pairs spread over 26 % of their median in wall time, and over 8 %
in scaled time.

The probe imports nothing from multifem, so a change to the library moves
the scaled time exactly as it moves the wall time, while the machine's
speed at the moment cancels out.  REFERENCE_S sets the scale only, close to
the probe's time when the reference machine is quiet.  Changing it would
make earlier measurements incomparable, so it stays fixed.  Probes add
about 4 % to every wall time and 16 MB to the resident memory.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 5e-4
INTERVAL_S = 0.02
ENTITIES = 16
ARRAY_SIZE = 1 << 20   # float64: 8 MB
GATHERS = 16000


class Probe:
    """The fixed probe and the arrays it works on."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vertices = rng.standard_normal((ENTITIES, 3, 2))
        self.grads = rng.standard_normal((6, 3, 2))
        self.weights = rng.random(6)
        self.local = np.zeros((ENTITIES + 1, ENTITIES + 1))
        self.source = rng.standard_normal(ARRAY_SIZE)
        self.target = np.zeros(ARRAY_SIZE)
        self.index = rng.integers(0, ARRAY_SIZE, GATHERS)

    def __call__(self):
        """Seconds the probe takes now."""
        start = time.perf_counter()
        for e in range(ENTITIES):
            J = np.einsum("ai,qaj->qij", self.vertices[e], self.grads)
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            K = np.einsum("q,qij,qkj->ik", self.weights * np.abs(det), J, J)
            idx = np.arange(e, e + 2)
            np.add.at(self.local, (idx[:, None], idx[None, :]), K)
        np.add.at(self.target, self.index, self.source[self.index])
        return time.perf_counter() - start


class Speed:
    """Probe samples of one run, and the units they scale."""

    def __init__(self):
        self.samples = []
        self.probe = Probe()
        for _ in range(20):  # warm the probe's code paths
            self.probe()

    def _on_timer(self, signum, frame):
        self.samples.append(self.probe())

    def timed(self, fn, *args):
        """(fn(*args), wall seconds, probe seconds); probe seconds is the
        median probe time while fn ran, with one probe just before it."""
        first = len(self.samples)
        self.samples.append(self.probe())
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            value = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return value, wall, statistics.median(self.samples[first:])


def scaled(wall, probe_s):
    """Wall seconds at the speed at which the probe takes REFERENCE_S."""
    return wall * REFERENCE_S / probe_s


def wall_timed(fn, *args):
    """(fn(*args), wall seconds, None): timing without the probe."""
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start, None
