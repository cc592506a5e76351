"""A fixed reference task, timed beside the requests, to rescale their times.

On a shared host the CPU this process gets can run at two thirds of its
speed for minutes at a time; the process's own CPU time grows with its wall
time then, so neither tells a slower program from a slower host.  The
benchmark therefore times a yardstick next to the requests: a fixed task
whose inputs never change and which calls nothing in `permderiv`.  A time t
measured while the yardstick takes y is reported as t * NOMINAL / y, which is
what it would take on a host where the yardstick takes NOMINAL seconds.  A
change to the program moves t and not y, so it shows in full.

Two yardsticks, each shaped like the work it stands next to:

- `in_process`: a Python complex Ryser loop, `Fraction` arithmetic and numpy
  determinants and products on a stack of small complex matrices, the three
  kinds of work the library workloads spend their time on;
- `child_process`: a Python child that imports numpy and exits, as most of a
  `permderiv` CLI process is interpreter start and import.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

IN_PROCESS_NOMINAL_S = 0.007  # the in-process yardstick's time on a quiet host
CHILD_NOMINAL_S = 0.125  # the child-process yardstick's time on a quiet host
NEAR = 7  # a request is rescaled by the mean of this many nearest yardstick times

_rng = np.random.default_rng(20100726)  # fixed: the yardstick never depends on --seed
_RYSER = [[complex(*_rng.standard_normal(2)) for _ in range(8)] for _ in range(8)]
_STACK = _rng.standard_normal((200, 6, 6)) + 1j * _rng.standard_normal((200, 6, 6))
_FRACTIONS = [Fraction(int(p), int(q)) for p, q in zip(_rng.integers(-50, 51, 50), _rng.integers(1, 51, 50))]


def _ryser() -> complex:
    n = len(_RYSER)
    total = 0j
    for mask in range(1, 1 << n):
        prod = 1 + 0j
        for row in _RYSER:
            s = 0j
            for j in range(n):
                if mask >> j & 1:
                    s += row[j]
            prod *= s
        total += -prod if bin(mask).count("1") % 2 else prod
    return total


def _fractions() -> Fraction:
    s = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS[:20]:
            s += a * b
    return s


def _numpy() -> complex:
    total = 0j
    for _ in range(2):
        total += np.linalg.det(_STACK).sum() + np.matmul(_STACK, _STACK).prod(axis=-1).sum()
    return complex(total)


def in_process() -> float:
    """Seconds the in-process yardstick takes now."""
    start = time.perf_counter()
    _ryser()
    _fractions()
    _numpy()
    return time.perf_counter() - start


def child_process() -> float:
    """Seconds a child that imports numpy takes now, from spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fractions, json, numpy"], check=True)
    return time.perf_counter() - start


def rescale(seconds: float, yard_s: float, nominal_s: float) -> float:
    return seconds * nominal_s / yard_s


def rescale_all(latencies, marks, yard_s, nominal_s):
    """Rescale each latency by the mean of the NEAR yardstick times nearest it.

    The mean, not the median: brief slowdowns of the host that lengthen some
    yardstick times lengthen some requests too, and the mean counts them.
    `marks[j]` is the index of the request that yardstick time `yard_s[j]`
    followed; marks are increasing.
    """
    near = min(NEAR, len(yard_s))
    out = []
    j = 0
    for i, latency in enumerate(latencies):
        while j < len(marks) and marks[j] < i:
            j += 1
        lo = max(0, min(j - near // 2, len(yard_s) - near))
        out.append(rescale(latency, statistics.fmean(yard_s[lo:lo + near]), nominal_s))
    return out
