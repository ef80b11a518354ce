"""The pace of the machine, measured by a fixed piece of Python work.

On a shared host the core itself runs slower in busy spells, in CPU time
as much as in wall time: on a 2-vCPU x86-64 VM the probe below takes
about 2.6 ms in quiet spells and 4.5 ms in busy ones, and the spells
switch every few seconds.  A median over a run then lands in whichever
spell happened to fill more than half of it.  So an untraced run times
the probe between its timed operations and scales each operation by the
pace just before, during and just after it:

    reported = measured * NOMINAL_S / mean(probe seconds around it)

A slow spell lengthens the operation and the probes around it alike and
cancels out; a change to the program moves only the program's side.  The
probe uses only the standard library (regex tokenizing, dicts, sets,
sorting, JSON, the operations the pipeline is made of), never the program
under test, and runs with the garbage collector paused, so that the
program's heap does not change its cost.
"""

from __future__ import annotations

import bisect
import gc
import json
import re
import statistics
import time

# About the probe's median on a 2-vCPU x86-64 VM with Python 3.11, so that
# scaled timings read close to that machine's wall seconds.
NOMINAL_S = 0.004
# probes taken at each boundary, and used on each side of an operation
PROBES = 3

_WORD = re.compile(r"[a-z]+\d*|\d+")
_TEXT = " ".join(f"w{i * 7919 % 613} {i % 97} ab{i % 13}" for i in range(1500))


def _work() -> int:
    tokens = _WORD.findall(_TEXT)
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    decoded = json.loads(json.dumps(ranked))
    prefixes = {token[:2] for token in tokens}
    return len(tokens) + len(decoded) + len(prefixes) + decoded[0][1]


_EXPECTED = _work()


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = _work()
        seconds = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise AssertionError(f"pace probe computed {result}, expected {_EXPECTED}")
    return seconds


class Pacer:
    """Probes taken during a run, in time order."""

    def __init__(self):
        self.ends: list[float] = []  # perf_counter when each probe finished
        self.seconds: list[float] = []

    def probe(self) -> None:
        for _ in range(PROBES):
            seconds = probe()
            self.ends.append(time.perf_counter())
            self.seconds.append(seconds)

    def factor(self, start: float, end: float) -> float:
        """The factor that turns seconds measured from ``start`` to ``end``
        into seconds at the nominal pace.  It uses the probes taken during
        the interval, the ``PROBES`` on either side of it and any within
        half its length of it: a long operation spans several spells, so
        its pace is their mean, with the highest and lowest fifth of the
        probes left out."""
        reach = (end - start) / 2
        first = min(bisect.bisect_left(self.ends, start - reach),
                    max(bisect.bisect_left(self.ends, start) - PROBES, 0))
        last = max(bisect.bisect_right(self.ends, end + reach),
                   bisect.bisect_right(self.ends, end) + PROBES)
        around = sorted(self.seconds[first:last])
        trim = len(around) // 5
        return NOMINAL_S / statistics.fmean(around[trim:len(around) - trim])
