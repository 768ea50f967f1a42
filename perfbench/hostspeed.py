"""Host speed: a fixed piece of pure-Python work timed between jobs.

The shared hosts this benchmark runs on change speed by up to 2x over
tens of seconds, for every process alike. Timing a fixed reference
workload in between the program's jobs measures that speed; the time
metrics divide by it, so they read as seconds on a host running at
:data:`NOMINAL_S` per reference, and a run in a slow stretch of the host
reads like one in a fast stretch. The reference is the benchmark's own
code, so a change to the program does not move it.
"""

from __future__ import annotations

import random
import statistics
import time

clock = time.perf_counter

#: Seconds one reference takes on the 2-vCPU host the benchmark was
#: built on, in its fast stretches.
NOMINAL_S = 0.033
#: References timed for one set-up measurement.
SETUP_SAMPLES = 5
#: In a timed loop, one reference per this many seconds of the loop.
SAMPLE_EVERY_S = 0.5


class HostSpeed:
    """Times the reference and keeps every sample."""

    def __init__(self) -> None:
        rng = random.Random(7)
        self._words = [str(rng.randrange(5000)) for _ in range(60000)]
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one reference: dict counting, a sort and float arithmetic,
        the mix of interpreter work the program's jobs do."""
        start = clock()
        for _ in range(2):
            counts: dict[str, int] = {}
            for word in self._words:
                counts[word] = counts.get(word, 0) + 1
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            total = 0.0
            for i in range(40000):
                total += (i * 1.5) ** 0.5
        elapsed = clock() - start
        self.samples.append(elapsed)
        return elapsed

    def keep_up(self, elapsed: float) -> None:
        """Time references until there is one per :data:`SAMPLE_EVERY_S`
        of the ``elapsed`` loop time, the first one included."""
        while len(self.samples) < 1 + elapsed / SAMPLE_EVERY_S:
            self.sample()

    def slowness(self) -> float:
        """Mean reference time over the nominal one (>1: slow host).

        A mean, not a median: the host switches between a few speeds,
        and the mean job time over the mean reference time cancels the
        share of time spent at each, which a ratio of medians does not.
        """
        return statistics.mean(self.samples) / NOMINAL_S


def setup_slowness() -> float:
    """Host slowness right after a set-up, from a few references."""
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    return speed.slowness()
