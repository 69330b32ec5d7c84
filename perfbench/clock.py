"""Timing at a reference machine speed.

The cores of the machines this runs on change speed by tens of percent from
one second to the next (other tenants share them), so raw wall times of one
and the same pass spread by ±10 % or more. A `ScaledTimer` therefore
samples the speed while it times: every SAMPLE_INTERVAL seconds a timer
signal runs a short fixed pure-Python loop (the probe), and before and after
the region one more probe runs. Each stretch of work between two probes is
scaled by PROBE_REF_S over the mean of those two probe durations, and probe
time itself is left out. The result is the region's time at the speed where
the probe takes exactly PROBE_REF_S. The probe runs no package code, so a
change to the package moves scaled times as much as raw ones.
"""

from __future__ import annotations

import signal
import time

PROBE_ITERATIONS = 300_000
PROBE_REF_S = 0.02
SAMPLE_INTERVAL = 0.25


def probe() -> tuple[float, float]:
    """(start, end) of one run of the fixed loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return start, time.perf_counter()


class ScaledTimer:
    """Context manager timing its body raw and at the reference speed.

    With ``sample=False`` only the probes before and after the region run, so
    nothing interrupts the body (used for traced passes, whose spans must not
    contain probe time).
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self._marks: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self._marks.append(probe())

    def __enter__(self) -> "ScaledTimer":
        self.before = probe()
        self._marks = []
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.stop = time.perf_counter()
        self.after = probe()
        # Work stretches [lo, hi) with the probe durations at their two ends.
        marks = [m for m in self._marks if self.start <= m[0] < self.stop]
        edges = [self.start] + [t for m in marks for t in m] + [self.stop]
        durations = [end - begin for begin, end in [self.before, *marks, self.after]]
        self._stretches = [
            (edges[2 * j], edges[2 * j + 1], PROBE_REF_S / (0.5 * (durations[j] + durations[j + 1])))
            for j in range(len(marks) + 1)
        ]
        return False

    def scaled_between(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of work between perf_counter readings t0 and t1."""
        return sum(max(0.0, min(hi, t1) - max(lo, t0)) * f for lo, hi, f in self._stretches)

    @property
    def raw(self) -> float:
        """Seconds of work in the region, probe time left out."""
        return sum(hi - lo for lo, hi, _ in self._stretches)

    @property
    def scaled(self) -> float:
        return self.scaled_between(self.start, self.stop)

    @property
    def probe_s(self) -> float:
        """Mean probe duration over the region: the machine's speed while it ran."""
        return PROBE_REF_S * self.raw / self.scaled if self.scaled else PROBE_REF_S
