"""Timings rescaled to a reference machine speed.

The small shared VMs this benchmark runs on change speed by up to 2x,
in phases that last from a fraction of a second to many minutes: on a
2-vCPU VM the same warm stream explain read 5.2 s for 45 s on end,
then 2.7 s. Fastest samples, medians and longer windows cannot remove
a drift that spans a whole set of runs.

So while a timed operation runs, an interval timer interrupts it every
``PERIOD_S`` seconds and runs a fixed calibration kernel
(:func:`kernel`) in the same thread. The kernel also runs once right
before and right after the operation. The kernel's speed, averaged over
samples taken evenly in wall time, is the machine's mean speed over the
operation. The operation's wall time, less the time spent in the
kernel, is then rescaled by that speed: the result is its time in
seconds on a machine where the kernel takes ``REFERENCE_S``.

The kernel has two parts, because the slow phases do not slow all work
alike: a small pure-Python loop that stays in the caches, and a
pointer chase through a heap of 60 000 small Python lists (about 7 MB,
built once per process). On the 2-vCPU VM, the loop alone tracked warm
malnet explains (mostly small dense products and interpreted code)
within 3%, but stream explains (interpreted code over a larger heap)
only within 17% across a 2x change of speed; the chase alone did the
reverse, 11% and 1%. The kernel's time is the geometric mean of the two
parts' times. With it, rescaled warm explains of one process spread
3-4% (IQR over median) where wall times spread 20-30%.

The kernel is the benchmark's own code and calls nothing in the
program, so a faster program still reads faster. It costs about 5% of
the operation's wall time, which is subtracted; its heap is subtracted
from the peak memory figure (:func:`footprint_mb`). Every run also
prints the raw wall times beside the rescaled ones.
"""

from __future__ import annotations

import math
import os
import random
import signal
import threading
import time
from typing import Any, Callable, List, Tuple

clock = time.perf_counter

#: the kernel's time at reference speed. On a 2-vCPU VM it read
#: 0.3-0.6 ms, so rescaled times are close to that VM's fast phases.
REFERENCE_S = 0.0003
#: the sampling period while an operation runs
PERIOD_S = 0.025

#: lists in the chase's heap, and lists one kernel visits. Each kernel
#: visits the next slice of one random order, so a list comes back only
#: after the whole heap (larger than a core's L2 cache) has been walked:
#: every visit then misses the private caches, however little the
#: program itself touches between samples.
HEAP = 60_000
CHASE = 1000

_heap: List[List[int]] = []
_order: List[int] = []
_cursor = [0]
#: resident memory the heap added
_footprint_mb: List[float] = []


def _resident_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _build_heap() -> None:
    before = _resident_mb()
    _heap.extend([i] for i in range(HEAP))
    _order.extend(range(HEAP))
    random.Random(0).shuffle(_order)
    _footprint_mb.append(max(0.0, _resident_mb() - before))
    for _ in range(20):  # the first calls pay allocation costs
        kernel()


def footprint_mb() -> float:
    """Resident memory the kernel's heap added to this process."""
    return _footprint_mb[0] if _footprint_mb else 0.0


def kernel() -> float:
    """Run the calibration kernel once; return its time in seconds."""
    start = clock()
    total, table = 0, {}
    for i in range(2000):
        total += i * i
        table[i & 1023] = total
    middle = clock()
    heap, total = _heap, 0
    for i in _order[_cursor[0]:_cursor[0] + CHASE]:
        total += heap[i][0]
    end = clock()
    _cursor[0] = (_cursor[0] + CHASE) % HEAP
    return math.sqrt((middle - start) * (end - middle))


def timed(fn: Callable[[], Any], sample: bool = True) -> Tuple[Any, float, float]:
    """``fn()``, its wall time and its rescaled time, in seconds.

    With ``sample`` false, or outside the main thread (where the
    timer's signal lands), only the kernels before and after the
    operation count. Traced runs time that way, so the kernel's time
    never lands in a layer's span.
    """
    if not _heap:
        _build_heap()
    samples = [kernel()]
    spent = [0.0]

    def tick(signum, frame) -> None:
        start = clock()
        samples.append(kernel())
        spent[0] += clock() - start

    sampled = sample and threading.current_thread() is threading.main_thread()
    if sampled:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = clock()
    try:
        result = fn()
    finally:
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
    wall = clock() - start
    samples.append(kernel())
    net = wall - spent[0]
    rate = sum(1.0 / d for d in samples) / len(samples)
    return result, net, net * rate * REFERENCE_S
