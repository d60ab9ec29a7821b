"""Machine-speed sampling, to take host drift out of measured times.

On a shared host the speed of one core drifts by tens of percent over
tens of seconds, which is the length of one pass of a workload.
:class:`SpeedSampler` samples that drift inside the measured process:
every :data:`PERIOD_S` of CPU time a ``SIGPROF`` handler times
:func:`probe`, a fixed exact rational pivot step built from the
standard library only (so no change to the analyzer can move it).
:meth:`SpeedSampler.normalize` turns a measured interval into seconds
at the reference speed: the interval minus the probes that ran inside
it, scaled by :data:`REFERENCE_PROBE_S` times the mean probe speed of
the samples around it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

#: CPU seconds between two probes.
PERIOD_S = 0.02
#: Probe seconds at the reference speed; normalized times are the
#: times the work would take on a machine where the probe takes this.
REFERENCE_PROBE_S = 0.0004
#: Seconds of samples on each side of an interval that count for it.
WINDOW_S = 0.5

_MATRIX = tuple(
    tuple(Fraction((3 * row + 5 * col) % 13 - 6, 1 + (row * col) % 5)
          for col in range(9))
    for row in range(6)
)


def probe():
    """Two Gauss-Jordan pivots on a fixed 6x9 rational matrix."""
    rows = [list(row) for row in _MATRIX]
    for column in (0, 1):
        pivot = rows[column]
        for index, row in enumerate(rows):
            if index != column and row[column]:
                factor = row[column] / pivot[column]
                rows[index] = [a - factor * b for a, b in zip(row, pivot)]
    return rows


class SpeedSampler:
    """Samples probe times while active (a context manager)."""

    def __init__(self):
        self.stamps = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        # A collection of the analyzer's heap must not land in a probe.
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        probe()
        ended = perf_counter()
        if collecting:
            gc.enable()
        self.stamps.append(started)
        self.durations.append(ended - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def normalize(self, started, ended):
        """Seconds the interval ``[started, ended]`` would take at the
        reference speed (raw seconds when no sample is near it)."""
        inside = self.durations[
            bisect_left(self.stamps, started):bisect_right(self.stamps, ended)
        ]
        work = ended - started - sum(inside)
        near = self.durations[
            bisect_left(self.stamps, started - WINDOW_S):
            bisect_right(self.stamps, ended + WINDOW_S)
        ]
        if not near:
            return work
        # Probes are evenly spaced in CPU time, so the mean probe speed
        # is the mean speed over the interval.
        return work * REFERENCE_PROBE_S * statistics.fmean(
            1 / duration for duration in near)
