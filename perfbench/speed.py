"""The host's current speed, measured by a fixed pure-Python loop.

On a shared host one core's speed flips between states (here about 15 ms
and 30 ms per loop) within seconds and drifts over minutes, more than any
change a benchmark is meant to resolve.  The benchmark times a couple of
loops before each round's set-up, between its settle and verdict phases,
and after its verdict, and scales the run's mean time of each phase by::

    REFERENCE_S / (mean time of the loops on both sides of that phase)

Both means move with the share of the run the host spent in each state,
so their ratio does not.  The loop does what the program does most (see
:func:`_loop`) and does not call the program, so a change to the program
moves the rescaled time and a change in the host's speed does not.  The
garbage collector is off while it runs, so its time does not depend on
how much the round left alive.
"""

from __future__ import annotations

import gc
import time

#: Seconds one loop takes at the reference speed: about the mean on the
#: 2-CPU host where the benchmark was written.  Rescaled times read as that
#: host's seconds.
REFERENCE_S = 0.020


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key = key
        self.label = label


#: Objects for the pairwise scan, built once at import.
_SCANNED = [_Item(i * 7 % 1000, f"s{i % 3}") for i in range(400)]


def _loop() -> int:
    """One unit of work: a build phase and a scan phase.

    The build phase allocates small objects into a tuple-keyed dict, as the
    settle phase records events; the scan phase compares attributes over
    every pair of a few hundred objects, as the verdict's in-order check
    does.  The two phases slow down differently when the core is shared.
    """
    table = {}
    values = []
    for i in range(20000):
        item = _Item(i, str(i & 255))
        table[(item.label, i & 63)] = item
        values.append(item.key + len(item.label))
    total = sum(values)
    scanned = _SCANNED
    for index, first in enumerate(scanned):
        for second in scanned[index + 1 :]:
            if first.label == second.label:
                continue
            if (first.key < second.key) != (index & 1):
                total += 1
    return total


def loop_times(repeats: int = 2) -> list[float]:
    """Wall times of ``repeats`` loops, with the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return times
