"""Speed calibration: express measured times at a fixed reference CPU speed.

On a shared host the processor's speed drifts by a factor of two and more
within seconds, and raw times do not repeat run to run.  The benchmark
therefore cuts every timed phase into short *slices* and runs a fixed
reference probe between consecutive slices.  The probe shares no state
and no code with the program under test.  A slice's raw time is scaled by

    REFERENCE_SECONDS / (mean of the two probes bracketing the slice)

so a slice that ran while the processor was twice as slow as the
reference speed counts half its raw time.

One probe is the mean of ``PROBE_REPEATS`` back-to-back runs of three
interpreter-bound loops with different bottlenecks: small-dict updates
with a random generator, random lookups in a dictionary larger than the
core's private caches, and short-lived allocations.  Each run is read on
the thread's CPU clock, which does not advance while the hypervisor runs
another machine on this one's processor (*steal* time): a wall-clock
probe would count stolen time in some runs and not others, while a
program slice of a few hundred milliseconds always holds its share.  A
workload timed on the wall clock (``Calibrator(steal=True)``) has the
share of each slice that the kernel reports as stolen (``/proc/stat``,
all processors) taken off the slice.

``REFERENCE_SECONDS`` is the probe's duration at the reference speed: the
median of 400 probes on a 2-core x86-64 container running CPython 3.11.
Calibrated figures are "seconds at that speed"; raw figures are printed
beside them.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
from typing import List, Tuple

#: nominal duration of one probe at the reference CPU speed, in seconds
REFERENCE_SECONDS = 0.00260
#: runs per probe; the probe reports their mean
PROBE_REPEATS = 3
#: probes on each side of a call timed as a single slice (about 0.15 s each)
SINGLE_PROBES = 15
#: probes on each side of a slice in its smoothed factor
SMOOTH_PROBES = 3

_rng = random.Random(99)
_LOOKUP_TABLE = {i: i for i in range(100_000)}
_LOOKUP_KEYS = [_rng.randrange(100_000) for _ in range(6_000)]


def _dict_updates() -> int:
    rng = random.Random(12_345)
    table = {}
    for i in range(2_600):
        key = rng.randrange(1_024)
        table[key] = table.get(key, 0) + i
    return len(table)


def _large_lookups() -> int:
    table = _LOOKUP_TABLE
    total = 0
    for key in _LOOKUP_KEYS:
        total += table[key]
    return total


def _allocations() -> int:
    kept = []
    for i in range(1_500):
        kept.append((i, [i, i + 1], {"n": i}))
    return len(kept)


def reference_loop() -> None:
    _dict_updates()
    _large_lookups()
    _allocations()


def probe() -> float:
    """CPU seconds one reference run takes right now (mean of a few).

    The garbage collector is paused meanwhile: the allocation loop would
    otherwise trigger collections that the program's objects made due, and
    their pauses would land in the probe instead of the program's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        for _ in range(PROBE_REPEATS):
            reference_loop()
        return (time.thread_time() - started) / PROBE_REPEATS
    finally:
        if enabled:
            gc.enable()


_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def stolen_seconds() -> float:
    """Processor time the hypervisor has taken from this machine so far.

    Summed over its processors, in the kernel's clock ticks; 0.0 where the
    kernel does not report it.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / _TICKS_PER_SECOND
    except (OSError, IndexError, ValueError):
        return 0.0


class _StealMeter:
    """The share of wall-clock time stolen since the last :meth:`mark`."""

    def __init__(self) -> None:
        self.mark()

    def mark(self) -> None:
        self._wall = time.perf_counter()
        self._stolen = stolen_seconds()

    def share(self) -> float:
        wall = time.perf_counter() - self._wall
        stolen = stolen_seconds() - self._stolen
        # the counter moves in whole ticks; a share past 0.9 is tick noise
        return min(0.9, max(0.0, stolen / wall)) if wall > 0.0 else 0.0


class Calibrator:
    """Turns raw slice times into reference-speed times.

    Call :meth:`factor` right after each timed slice; it probes the current
    speed and returns the scale for the slice that just ended (the leading
    probe is taken at construction, by :meth:`restart`, or by the previous
    call).  With ``steal`` the slices are wall-clock times, and the factor
    also takes off the share of the slice stolen by the hypervisor.
    """

    def __init__(self, steal: bool = False) -> None:
        self._last = probe()
        #: every probe taken, in seconds (for reporting the speed drift)
        self.probes: List[float] = [self._last]
        #: per slice timed by :meth:`factor`: (index of the probe after
        #: it, share of it not stolen)
        self.slices: List[Tuple[int, float]] = []
        self._steal = _StealMeter() if steal else None

    def _kept(self) -> float:
        """The share of the time since the last mark that was not stolen."""
        return 1.0 - self._steal.share() if self._steal is not None else 1.0

    def _mark(self) -> None:
        if self._steal is not None:
            self._steal.mark()

    def factor(self) -> float:
        kept = self._kept()
        current = probe()
        self.probes.append(current)
        self.slices.append((len(self.probes) - 1, kept))
        bracket = 0.5 * (self._last + current)
        self._last = current
        self._mark()
        return kept * REFERENCE_SECONDS / bracket

    def smoothed(self, slice_number: int) -> float:
        """A past slice's factor from the median of the probes around it.

        ``SMOOTH_PROBES`` probes on each side, fewer at the ends.  One
        probe reads some 5-10% off the speed of the seconds around it; the
        median of six does not, while it still follows a drift of a few
        seconds.  It needs the probes taken after the slice, so it is asked
        for once a phase is over.
        """
        index, kept = self.slices[slice_number]
        around = self.probes[max(0, index - SMOOTH_PROBES):index + SMOOTH_PROBES]
        return kept * REFERENCE_SECONDS / statistics.median(around)

    def begin_single(self) -> None:
        """Bracket a call that cannot be cut into slices (a recovery).

        Such a call gets only one pair of bracketing probes, so each side
        is the median of ``SINGLE_PROBES`` probes; :meth:`end_single`
        returns the call's factor.
        """
        self._single = statistics.median(probe() for _ in range(SINGLE_PROBES))
        self._mark()

    def end_single(self) -> float:
        kept = self._kept()
        after = statistics.median(probe() for _ in range(SINGLE_PROBES))
        return kept * REFERENCE_SECONDS / (0.5 * (self._single + after))

    def restart(self) -> None:
        """Re-take the leading probe after untimed work between slices."""
        self._last = probe()
        self.probes.append(self._last)
        self._mark()
