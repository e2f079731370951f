"""A fixed pure-Python computation that measures the host's current speed.

On a shared virtual machine the CPU time of the same single-threaded job
drifts by a quarter or more within minutes, with the load other guests put
on the host.  ``run.py`` times this computation in its own process before
every job and scales the run's CPU times by ``NOMINAL_S`` over the run's
median reference time: the result reads as CPU seconds on a host where
the reference takes ``NOMINAL_S``.  The computation does what the package's
jobs do most (exact ``Fraction`` elimination, tuple-keyed dictionaries,
small function calls) and imports nothing from the package, so a change to
the package cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

SIZE = 14
REPEATS = 3
# A round figure within the range of ``cpu_s()`` on the machine in README's
# Environment (0.08-0.13 s as the host's speed drifted).
NOMINAL_S = 0.1


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gauss-Jordan elimination over Q; rows are changed in place."""
    pivots = {}
    for c in range(len(rows[0])):
        r = next((r for r in range(len(rows))
                  if r not in pivots.values() and rows[r][c] != 0), None)
        if r is None:
            continue
        pivots[c] = r
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for s in range(len(rows)):
            if s != r and rows[s][c] != 0:
                f = rows[s][c]
                rows[s] = [a - f * b for a, b in zip(rows[s], rows[r])]
    return len(pivots)


def work() -> tuple[int, int]:
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 5 + 1)
             for j in range(SIZE)] for i in range(SIZE)]
    counts: dict[tuple[int, int], int] = {}
    for i in range(60000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return _rank(rows), len(counts)


EXPECTED = (SIZE, 97 * 13)


def cpu_s() -> float:
    """CPU time of ``REPEATS`` calls of ``work``; raises on a wrong result."""
    t0 = time.process_time()
    for _ in range(REPEATS):
        result = work()
    elapsed = time.process_time() - t0
    if result != EXPECTED:
        raise RuntimeError(f"reference computed {result}, not {EXPECTED}")
    return elapsed
