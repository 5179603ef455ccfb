"""Calibration: scale measured times to a reference host speed.

On a shared host each CPU's speed drifts by tens of percent within
seconds.  Over 7 minutes of ``random-equiv`` requests, the 25-second
means of raw request times spread by 18% (IQR over median), but the
ratio of each request to a reference process timed just before it
spread by 2%.  So before every request the benchmark times a fixed
reference process (the same interpreter start, a few stdlib imports and
a fixed pure-Python kernel, nothing from pkat) and scales the request by
``REF_PROCESS_SECONDS / t_ref``.  In-process timings are scaled the same
way by the kernel alone.  A change to pkat cannot move either reference.
The constants only fix the scale: they cancel when two commits are
compared on one host.  Raw times are reported alongside.
"""

from __future__ import annotations

import statistics
import time

# Medians on the host the baseline was recorded on (2-CPU Intel Xeon VM,
# CPython 3.11).
REF_SECONDS = 0.004
REF_PROCESS_SECONDS = 0.11

_KERNEL = '''
class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi


_ITEMS = [(i % 7, i % 11, i % 5) for i in range(400)]


def _work():
    acc = 0
    table = {}
    for _ in range(10):
        for a, b, c in _ITEMS:
            p = _Pair(min(a, b), max(a, c))
            key = (p.lo, p.hi)
            table[key] = table.get(key, 0) + 1
            acc += p.hi - p.lo if p.hi > 3 else p.lo
    return acc
'''

_space: dict = {}
exec(_KERNEL, _space)
_work = _space["_work"]

# The reference process: interpreter start, stdlib modules pkat also
# imports, and eight kernel runs.
REF_SCRIPT = (
    "import argparse, dataclasses, enum, fractions, json, random, re\n"
    + _KERNEL
    + "for _ in range(8):\n    _work()\n"
)


def kernel() -> float:
    """Run the fixed kernel once; return its wall time."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def sample() -> float:
    """The current kernel time: the median of three runs."""
    return statistics.median(kernel() for _ in range(3))
