"""Reference-speed normaliser.

The machine this benchmark runs on changes speed from minute to minute
(shared cores, frequency scaling). A fixed pure-Python loop, timed in the
quiet gaps between units of work, measures that speed; every timing is then
reported as ``raw * NOMINAL_S / reference``, i.e. "at reference speed".

The loop imports nothing from the program under test, so no optimisation
of the program can move it, and it runs with the cyclic garbage collector
paused so the program's heap cannot slow it either. It tokenises a fixed
corpus with a regular expression and counts tokens in a dict: string,
regex and dict work, the same mix the program spends its time on.

The cores of a shared machine change speed independently (a busy sibling
hyperthread slows one of them), and the program's threads run on all of
them, so the loop is timed pinned to each core in turn and the cores'
times are averaged.
"""

from __future__ import annotations

import gc
import os
import re
import statistics
import time

#: Median loop time on the reference machine (2-core x86-64 container,
#: CPython 3.11). Frozen: changing it rescales every normalised timing.
NOMINAL_S = 0.0120

_TOKEN = re.compile(r"[A-Za-z]+|\d+")
_CORPUS = tuple(
    f"Shelter {i} at {100 + 7 * i} Oak Creek Rd, City{i % 13:02d} FL 33{i % 97:03d} "
    f"phone 555-{1000 + 37 * i % 9000} beds {i % 80}"
    for i in range(120)
)
_PASSES = 16


def reference_work() -> int:
    """The fixed loop: tokenise the corpus several times, count tokens."""
    counts: dict[str, int] = {}
    for _ in range(_PASSES):
        for line in _CORPUS:
            for token in _TOKEN.findall(line):
                counts[token] = counts.get(token, 0) + 1
    return len(counts)


def _allowed_cores() -> set[int]:
    try:
        return os.sched_getaffinity(0)
    except AttributeError:  # no affinity control on this platform
        return set()


def time_reference(repeats: int = 3) -> list[float]:
    """Time the loop *repeats* times on every core, with the collector
    paused; sample *i* is the mean over the cores of their *i*-th time
    (seconds)."""
    allowed = _allowed_cores()
    per_core = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for core in sorted(allowed) or [None]:
            if core is not None:
                os.sched_setaffinity(0, {core})
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                reference_work()
                times.append(time.perf_counter() - start)
            per_core.append(times)
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
        if was_enabled:
            gc.enable()
    return [statistics.fmean(times) for times in zip(*per_core)]


class Normaliser:
    """Collects reference timings from quiet gaps and scales raw timings.

    Call :meth:`gap` whenever nothing of the program is running (between
    journeys, or between request rounds once nothing is in flight). A
    unit of work timed between gap *i* and gap *i + 1* is scaled by the
    median reference time of those two gaps.
    """

    def __init__(self, repeats: int = 3):
        self.repeats = repeats
        self.gaps: list[float] = []
        self.samples: list[float] = []
        reference_work()  # warm the regex cache and the code objects

    def gap(self) -> None:
        """Time the loop now (gap *i* comes right before unit *i*)."""
        samples = time_reference(self.repeats)
        self.samples.extend(samples)
        self.gaps.append(statistics.median(samples))

    def factor(self, unit: int) -> float:
        """Scale for work timed in *unit*, between gaps *unit* and *unit + 1*."""
        return NOMINAL_S / statistics.median(self.gaps[unit : unit + 2])
