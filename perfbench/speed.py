"""Machine-speed reference for the benchmark's time metrics.

A shared 2-vCPU VM runs the same work up to a third slower or faster
from one few-second phase to the next, and CPU time moves with the wall
(the slowdowns are not waits for a core), so two sets of runs of the
same program disagree by more than any useful bound.  The benchmark
therefore times a fixed reference kernel right before and right after
each timed op, and reports the op's time at reference speed: its wall
times ``NOMINAL_S`` over the kernel's wall around it (``Watch``).  A
change in the program moves the reported time as it moves the wall; a
change in the machine's speed moves the op and the kernel alike and
cancels out.  Measured on such a VM, the kernel slows by 1.7x between
its fast and slow phases, profiling plus report encode by 1.6-1.7x,
and ``import repro`` by less, so set-up time is reported unscaled.

The kernel mixes what the program's ops spend their time on:
interpreted Python, a numpy sort and a JSON encode.  It uses no part
of the program, so no change to the program can move it.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from typing import List, Optional

import numpy as np

#: The kernel's wall on the reference machine: a reported time is the
#: op's wall on a machine where one kernel pass takes this long (about
#: its median on a 2-vCPU VM, Python 3.11, numpy 2.4).
NOMINAL_S = 0.002
#: Kernel passes per reference reading; the reading is their median, so
#: that one interrupt does not move it.
PASSES = 3
#: Seconds between kernel passes taken while an op runs (``Watch``).
INTERVAL_S = 0.05

_ARRAY = np.random.default_rng(0).normal(size=20_000)
_RECORDS = [{"index": i, "value": i * 0.5, "name": f"s{i}"} for i in range(300)]


def _kernel() -> float:
    begin = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    np.sort(_ARRAY)
    json.dumps(_RECORDS, indent=2)
    return time.perf_counter() - begin


def reading() -> float:
    """One reference reading: the median wall of ``PASSES`` kernel passes."""
    return statistics.median(_kernel() for _ in range(PASSES))


class Watch:
    """Reference readings around one timed op; ``scale`` takes its wall to reference speed.

    With ``during`` set, a thread also takes a kernel pass every
    ``INTERVAL_S`` while the op runs.  That suits an op that runs
    another program and waits for it, where a few seconds can pass
    between the readings before and after; in an op that runs in this
    process the thread would compete with it for the interpreter.
    """

    def __init__(self, during: bool = False):
        self.during = during
        self.readings: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.readings.append(_kernel())

    def __enter__(self) -> "Watch":
        self.readings.append(reading())
        if self.during:
            self._thread = threading.Thread(target=self._sample, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self.readings.append(reading())

    @property
    def scale(self) -> float:
        return NOMINAL_S / statistics.median(self.readings)


_kernel()  # first pass pays for lazy numpy/json set-up
