"""How fast the machine runs right now, from a fixed pure-Python kernel.

On a shared machine the speed of one core drifts by tens of percent over
seconds, in CPU time as much as in wall time.  The benchmark times this
kernel right before and right after every repetition and rescales the
repetition by it: a reported time is the wall time the repetition would
have taken on a machine where the kernel takes ``NOMINAL_S`` seconds.  The
kernel mixes what the program spends its time on (CSV-like text, set
probing, float arithmetic on small objects, list scans) and never calls
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import math
import time

NOMINAL_S = 0.06
_ROWS = 4000


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _text() -> float:
    """Format and parse CSV-like rows; a tuple-keyed table; a sort."""
    rows = [f"cam{i % 5},{i},{i * 50.0!r},{i * 0.37 + 1.25!r},{i * 0.21!r}"
            for i in range(_ROWS)]
    parsed = [tuple(float(x) for x in row.split(",")[2:]) for row in rows]
    table = {(i % 50, p[0]): p for i, p in enumerate(parsed)}
    return len(table) + sorted(parsed, key=lambda p: -p[1])[0][2]


def _probe() -> int:
    """Walk back over claimed slots of a growing set."""
    taken: set[int] = set()
    steps = 0
    for k in range(_ROWS // 6):
        j = k - 1
        while j in taken:
            j -= 1
            steps += 1
        taken.add(k)
    return steps


def _geometry() -> float:
    """Projective arithmetic on small objects, with min and max."""
    acc = 0.0
    for i in range(_ROWS * 4):
        x, y = i * 0.37, i * 0.21
        w = 0.001 * x + 0.002 * y + 1.0
        p = _Point((1.1 * x + 0.2 * y + 3.0) / w, (0.1 * x + 0.9 * y - 2.0) / w)
        acc += min(p.a, p.b) + max(p.a, p.b) + math.sqrt(abs(p.a))
    return acc


def _scan() -> float:
    """Precision-envelope style scans over paired lists."""
    precisions = [((i * 7919) % 1000) / 1000.0 for i in range(_ROWS)]
    recalls = [i / _ROWS for i in range(_ROWS)]
    total = 0.0
    for k in range(64):
        r, best = k / 64, 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best:
                best = p
        total += best
    return total


def _kernel() -> float:
    return _text() + _probe() + _geometry() + _scan()


def kernel_seconds() -> float:
    """Wall time of one run of the kernel.

    The collector is emptied first and kept off while the kernel runs, so
    the objects a repetition leaves behind cannot change the reading.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two kernel timings
    into nominal-speed seconds."""
    return NOMINAL_S / ((before + after) / 2.0)
