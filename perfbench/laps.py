"""Lap clock: wall time of a unit of work, divided by the host's speed.

On a shared host the speed of this code moves by up to 1.7x from one
twenty-second stretch to the next, and CPU time follows wall time
exactly (no time is stolen; the same instructions just run slower).
So the clock also times a fixed reference kernel, :func:`reference`,
every :data:`REF_EVERY` seconds while the work runs, and reports the
work's time in units of the reference's nominal time: a host twice as
slow makes both twice as slow.  The reference runs between laps and its
own time is left out of them.

A :class:`Laps` records a mark at the entry and the exit of each call
listed in :data:`LAP_POINTS` for the length of a ``with`` block, and
wherever the benchmark calls :meth:`Laps.mark` (the simulator workloads
also get a mark every ``lap_every`` simulated seconds, see
``workloads.ClusterProbe``).  A *lap* is the time between two marks,
less any reference run at the first of them.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from bisect import bisect_right
from importlib import import_module
from typing import Callable, List, Tuple

from repro.core import Cosmos
from repro.core.fastcost import CostWorkspace
from repro.pubsub import PubSubNetwork

#: (owner, attribute names) marked at entry and exit.  The ``core``
#: functions are wrapped where the coordinator (and, for the diffusion
#: solver, the rebalancer) looks them up; ``set_position`` runs once per
#: vertex move, so the long move loops of re-balancing and refinement
#: are cut into laps too.
LAP_POINTS = [
    (Cosmos, ("distribute", "insert", "remove", "adapt")),
    (CostWorkspace, ("set_position",)),
    (import_module("repro.core.coordinator"),
     ("coarsen_cached", "map_graph", "refine_mapping", "rebalance",
      "refine_distribution")),
    (import_module("repro.core.rebalance"), ("diffusion_solution",)),
    (PubSubNetwork, ("subscribe", "unsubscribe")),
]

#: seconds of work between two runs of the reference kernel
REF_EVERY = 0.2
#: the scale of normalised times: about what the reference kernel takes
#: on a 2.0 GHz Xeon (2-vCPU virtual machine, Python 3.11) in its
#: fastest stretches, so normalised seconds are seconds of that host
REF_NOMINAL_S = 0.0075


def reference() -> float:
    """Seconds one run of the fixed reference kernel takes.

    Heap pushes and pops of tuples drawn from a seeded generator: the
    interpreter, allocator and cache traffic the simulator and the
    optimizer spend their time in.  The collector stays off, so a
    collection the program owes cannot land in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        rng = random.Random(1)
        heap: List[Tuple[float, int]] = []
        for i in range(9000):
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 2000:
                heapq.heappop(heap)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Laps:
    """Marks on a monotonic clock; wraps :data:`LAP_POINTS` while active."""

    def __init__(self, refs: bool = True) -> None:
        #: (time the mark was made, time the lap after it starts)
        self.marks: List[Tuple[float, float]] = []
        #: (mark index, reference seconds) of each reference run
        self.refs: List[Tuple[int, float]] = []
        self._with_refs = refs
        self._next_ref = 0.0 if refs else float("inf")
        self._saved: List[Tuple[object, str, Callable]] = []

    def mark(self, ref: bool = False) -> None:
        """Mark the clock; run the reference first if it is due or ``ref``."""
        now = time.perf_counter()
        if now >= self._next_ref or (ref and self._with_refs):
            self.refs.append((len(self.marks), reference()))
            self._next_ref = now + REF_EVERY
            self.marks.append((now, time.perf_counter()))
        else:
            self.marks.append((now, now))

    def __enter__(self) -> "Laps":
        for owner, names in LAP_POINTS:
            for attr in names:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn: Callable) -> Callable:
        mark = self.mark

        def lapped(*args, **kwargs):
            mark()
            try:
                return fn(*args, **kwargs)
            finally:
                mark()

        return lapped

    def wall_s(self, start: int = 0, stop: int = -1) -> float:
        """Seconds of work from mark ``start`` to mark ``stop``."""
        stop %= len(self.marks)
        return sum(self.marks[i + 1][0] - self.marks[i][1]
                   for i in range(start, stop))

    def norm_s(self, start: int = 0, stop: int = -1) -> float:
        """:meth:`wall_s` in seconds of the nominal host.

        Each lap is divided by the mean of the reference runs just
        before and just after it (the nearest one at either end).  NaN
        without reference runs.
        """
        if not self.refs:
            return float("nan")
        stop %= len(self.marks)
        at = [i for i, _ in self.refs]
        secs = [r for _, r in self.refs]
        total = 0.0
        for i in range(start, stop):
            j = bisect_right(at, i)  # refs[j - 1] at or before lap i
            before = secs[max(j - 1, 0)]
            after = secs[min(j, len(secs) - 1)]
            lap = self.marks[i + 1][0] - self.marks[i][1]
            total += lap * 2.0 / (before + after)
        return total * REF_NOMINAL_S
