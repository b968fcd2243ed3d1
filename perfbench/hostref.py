"""Host-speed reference: rescale measured times to a fixed host speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x in
phases of seconds to minutes (other tenants on the same cores; the
process's CPU time grows with its wall time, so it is not waiting, it
runs slower). A run's wall times then say more about the phase it
landed in than about the program. To take the phase out, a fixed
reference job (:func:`reference`: array work plus a little pure
Python) runs between measured ticks and around each set-up, outside
every timed region. The job is weighted toward array work because the
workloads' ticks slow like it: against the host's drift, ticks moved
about one for one with the array part and half as much as a
pure-Python loop, which slows the most (2.2x where a numpy sort took
1.6x in one slow phase). Every timed
end-to-end metric is reported as ``wall time * REF_MS / reference
time nearby``: the time the step would have taken with the host
running the reference job in ``REF_MS``. The reference job is part of
the benchmark and never changes with the program, so a slower program
still reads slower; the raw wall times stay in the run's full record.
"""

from __future__ import annotations

import bisect
import heapq
import math
import statistics
import time
from typing import List, Sequence

import numpy as np

clock = time.perf_counter

#: ms of one :func:`reference` call on the host the nominal tick costs
#: in ``workloads.py`` were measured on (a shared 2-vCPU Xeon VM,
#: Python 3.11, numpy 2.4) in one of its fast phases
REF_MS = 2.0
#: reference samples on each side of a tick that set its host speed
HALF_WINDOW = 5
#: measured tick time between two reference samples
REF_EVERY_MS = 50.0

_rng = np.random.default_rng(12345)
_xs = _rng.random(1_000)
_ys = _rng.random(1_000)
_big = _rng.random(100_000)
_idx = _rng.integers(0, _big.size, 50_000)


def _scan() -> int:
    """k-best scan over points in pure Python (heap, tuples, sqrt)."""
    best: List = []
    for oid in range(_xs.size):
        dx = float(_xs[oid]) - 0.5
        dy = float(_ys[oid]) - 0.5
        d = math.sqrt(dx * dx + dy * dy)
        if len(best) < 8:
            heapq.heappush(best, (-d, -oid))
        elif (d, oid) < (-best[0][0], -best[0][1]):
            heapq.heapreplace(best, (-d, -oid))
    return len(best)


def _arrays() -> float:
    """Gathers, a partition and a sort over arrays larger than L2."""
    g = _big[_idx]
    part = np.argpartition(g, 64)[:64]
    s = np.sort(_big * 1.0001)
    return float(g[part].sum() + s[-1])


def _job() -> float:
    t0 = clock()
    _scan()
    _arrays()
    return 1000.0 * (clock() - t0)


def reference() -> float:
    """Wall ms of the fixed reference job: the faster of two back-to-back
    runs, so a sample measures the host and not the cold caches the
    preceding tick left behind."""
    return min(_job(), _job())


def warm() -> None:
    for _ in range(3):
        reference()


def sample(n: int) -> List[float]:
    return [reference() for _ in range(n)]


def scale(ref_ms: Sequence[float]) -> float:
    """Factor that turns wall time into reference-speed time."""
    return REF_MS / statistics.median(ref_ms)


class TickScaler:
    """Reference samples between measured ticks, and the rescaling.

    A sample is taken before the first tick, then after a tick once at
    least ``REF_EVERY_MS`` of tick time has passed since the last one,
    and after the last tick. Ticks cheaper than a sample (an event
    engine's skipped ticks) thus mostly run without a sample, and the
    cache state the sample leaves behind, just before them.
    """

    def __init__(self) -> None:
        self.ref_ms: List[float] = [reference()]
        #: ticks done when each sample was taken
        self.ref_at: List[int] = [0]
        self._since_ms = 0.0

    def after_tick(self, done: int, tick_ms: float) -> None:
        self._since_ms += tick_ms
        if self._since_ms >= REF_EVERY_MS:
            self.sample(done)

    def sample(self, done: int) -> None:
        if self.ref_at[-1] != done:
            self.ref_ms.append(reference())
            self.ref_at.append(done)
            self._since_ms = 0.0

    def rescale(self, times_ms: Sequence[float]) -> List[float]:
        """Per-tick times at reference speed.

        Each tick is scaled by the median of the ``HALF_WINDOW``
        samples taken before it and the ``HALF_WINDOW`` taken after it.
        Ticks shorter than ``REF_MS`` are kept as measured: such short
        work does not slow with the host the way the reference job
        does (the event engine's ~0.4 ms skipped ticks kept their
        median within 21% across runs whose reference time differed
        by 68%, and rescaling them made that median spread wider).
        """
        self.sample(len(times_ms))
        out = []
        for i, t in enumerate(times_ms):
            if t < REF_MS:
                out.append(t)
                continue
            j = bisect.bisect_right(self.ref_at, i)
            window = self.ref_ms[max(0, j - HALF_WINDOW):j + HALF_WINDOW]
            out.append(t * scale(window))
        return out
