"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is shared.  Other tenants slow every CPU-bound step,
in CPU time as much as wall time, by up to 2x, in stretches of seconds to
minutes; a whole 35 s run can fall inside one.  No statistic over the run's
own timings removes that, so the benchmark cuts its work into pieces of
tens of milliseconds, times this reference between the pieces, and
divides each piece by it.

mmspec's time goes to the Python interpreter: small dicts, tuples, float
arithmetic and calls, with small numpy arrays in between.  A chunk here is
a pure-Python loop of dict updates and float arithmetic.  Measured next to
sweeps on the 2-vCPU host the benchmark was built on, its slowdown tracked
mmspec's closer than numpy small-array work or lookups scattered over a
table larger than the L2 cache did (README.md).  It uses no mmspec code, so
no change to mmspec moves it.
"""

from __future__ import annotations

import time

STEPS = 16000
# Median seconds of one chunk on a quiet host: the 2-vCPU x86-64 virtual
# machine the benchmark was built on, one thread per process.
QUIET_CHUNK_S = 0.0036


def _work() -> float:
    acc: dict[int, float] = {}
    total = 0.0
    for i in range(STEPS):
        acc[i & 1023] = acc.get(i & 1023, 0.0) + i * 0.5
        total += acc[i & 511]
    return total


EXPECTED = _work()


def time_chunk() -> float:
    """Seconds of one chunk."""
    start = time.perf_counter()
    result = _work()
    seconds = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError("the reference computation gave a different result")
    return seconds


class Host:
    """Times a chunk between pieces of measured work.

    A piece's slowdown is the mean time of the chunks right before and
    right after it, over :data:`QUIET_CHUNK_S`; its time divided by its
    slowdown is its time on the quiet host.
    """

    def __init__(self) -> None:
        self.last_chunk_s = time_chunk()

    def slowdown(self) -> float:
        """Time a chunk; return the slowdown of the piece since the last one."""
        before, self.last_chunk_s = self.last_chunk_s, time_chunk()
        return (before + self.last_chunk_s) / (2 * QUIET_CHUNK_S)
