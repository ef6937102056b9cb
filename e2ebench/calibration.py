"""Host-drift calibration: how fast this vCPU runs Python right now.

The benchmark runs on shared cloud vCPUs whose speed drifts by more than
the program's own run-to-run variation, in spells that last seconds to
minutes.  The program's slowdowns in those spells come mostly from slower
arithmetic and partly from slower memory, so the calibration times two fixed
pure-Python kernels that share nothing with the program: an arithmetic loop
and a pointer chase through 65,536 objects in random order.  Their sizes
weight them about 3:1 in the sum :func:`calibrate` returns.  Multiplying the
CPU-bound part of a campaign's time by ``REFERENCE_S / calibrate()`` (timed
right before the campaign, on the vCPU it runs on) removes most of the
drift: scaled timings read as seconds on a host where ``calibrate()`` reads
``REFERENCE_S``.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: What :func:`calibrate` reads on the reference host (a shared 2-vCPU cloud
#: VM, Python 3.11, in a quiet spell).
REFERENCE_S = 0.0050
#: Iterations of the arithmetic loop (about 4 ms on the reference host).
ARITHMETIC_ROUNDS = 30_000
#: Hops of the pointer chase (about 1.2 ms on the reference host).
CHASE_HOPS = 11_000
CHASE_CELLS = 65_536


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: Optional["_Cell"] = None


_chain: List[_Cell] = []


def _arithmetic() -> float:
    start = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for index in range(ARITHMETIC_ROUNDS):
        acc = (acc * 31 + index) & 0xFFFFF
        table[acc & 255] = acc
    return time.perf_counter() - start


def _chase() -> float:
    if not _chain:
        # One cycle through every cell, in a fixed shuffled order.
        cells = [_Cell(value) for value in range(CHASE_CELLS)]
        order = list(range(CHASE_CELLS))
        random.Random(CHASE_CELLS).shuffle(order)
        for position, index in enumerate(order):
            cells[index].next = cells[order[(position + 1) % CHASE_CELLS]]
        _chain.extend(cells)
    start = time.perf_counter()
    cell = _chain[0]
    acc = 0
    for _ in range(CHASE_HOPS):
        cell = cell.next
        acc += cell.value
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the two kernels take now (the median of three runs of each,
    about 16 ms in all)."""
    return statistics.median(_arithmetic() for _ in range(3)) + statistics.median(
        _chase() for _ in range(3)
    )


def timed_calibrate() -> Tuple[float, float, float]:
    """:func:`calibrate`, with the wall and CPU seconds the call took (the
    chain's first build included); what a pool worker reports back."""
    wall, cpu = time.perf_counter(), time.process_time()
    value = calibrate()
    return value, time.perf_counter() - wall, time.process_time() - cpu


__all__ = ["REFERENCE_S", "calibrate", "timed_calibrate"]
