"""A fixed reference computation that tracks the machine's current speed.

On a shared virtual machine the same code runs up to a third slower for
seconds to minutes at a time. The benchmark times this computation between
operations and scales each measured time by ``NOMINAL_S / reference``, so
its times read as if taken at one fixed machine speed. The computation
uses only the interpreter (big-int bit operations, list and dict traffic,
as the program's kernels do), never ``qotp_lab``, so a change to the
program cannot change it.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.01   # about its time on a 2-core pure-lane machine
_MASK = (1 << 512) - 1


def reference_s() -> float:
    """Seconds taken by one run of the reference computation."""
    start = time.perf_counter()
    acc, table, rows = 1, {}, []
    for i in range(17_000):
        acc = ((acc << 3) ^ (acc >> 5) ^ i) & _MASK
        table[i & 511] = acc.bit_count()
        rows.append(table.get((i * 7) & 511, 0))
    rows.sort()
    return time.perf_counter() - start


def speed_sample(runs: int = 5) -> float:
    """Median of a few reference runs."""
    return statistics.median(reference_s() for _ in range(runs))

