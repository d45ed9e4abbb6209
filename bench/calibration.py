"""Machine-speed calibration for timing on a host whose speed drifts.

On the machine this benchmark was defined on (a 2-vCPU x86-64 container
shared with other tenants, CPython 3.11, numpy 2.4) the same work took
from 0.75 to 1.4 times its typical time over 10-second windows.  The ratio
of a package call to the loop below, run right next to it, stayed within
about 3% over the same windows.  So every timed interval is scaled by a
calibration measured around it:

    reference time = measured time * REFERENCE_S / calibration time

REFERENCE_S is the loop's typical duration on that machine, which keeps
reference times close to plain seconds there.  The loop mixes the three
kinds of work the package does: Python on tuples of small ints and dicts,
small numpy integer arrays, and big-integer row operations.  It runs with
garbage collection off, so that its cost depends on the machine's speed
and not on how many objects the process holds.  It never touches the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.006

_ARRAY = (np.arange(900, dtype=np.int64).reshape(30, 30) * 7919) % 13


def _python_work() -> int:
    n, l = 12, 5
    e = [[(i * 7 + j * 3) % l for j in range(n)] for i in range(n)]
    acc = 0
    for r in range(60):
        grid = tuple(tuple((e[i][j] - i + j + r) % l for j in range(n)) for i in range(n))
        index = {row: i for i, row in enumerate(grid)}
        acc += sum(len(index) + sum(row) for row in grid)
    return acc


def _numpy_work() -> int:
    acc = 0
    for r in range(100):
        m = (_ARRAY + r) % 13
        hits = np.nonzero(m[:, r % 30])[0]
        m[hits] = (m[hits] - np.outer(m[hits, 0], m[0])) % 13
        acc += int(m[0, 0])
    return acc


def _bigint_work() -> int:
    big = 3**200
    rows = [[(i * 31 + j * 17) % 11 - 5 for j in range(20)] for i in range(20)]
    for _ in range(15):
        for i in range(1, 20):
            q = rows[i][0] // (rows[0][0] or 1)
            rows[i] = [a - q * b + big % (i + 2) for a, b in zip(rows[i], rows[0])]
    return rows[-1][-1]


def calibrate(repeats: int = 1) -> float:
    """Median wall time of the calibration loop over `repeats` runs."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            _python_work()
            _numpy_work()
            _bigint_work()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)
