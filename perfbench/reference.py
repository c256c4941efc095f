"""A fixed reference computation timed next to every pass.

The CPUs this benchmark runs on can slow Python-bound code by up to 1.8x
in phases that last from seconds to minutes, while reporting no steal
time.  Dividing each pass's wall time by the time of this loop, run just
before and after it, cancels most of that.  The loop uses no plislab code,
so no change to plislab moves it.  It is shaped like plislab's work: a
forward chain of small numpy ops whose nodes keep backward closures, a
reverse sweep through them, and a few matrix products of im2col size.
"""

from __future__ import annotations

import time

import numpy as np

# (array length, chain length): small arrays as in the tabular workloads'
# per-sample graphs, then feature-map sized ones as in the CNN's.
_CHAINS = ((16, 2500), (9216, 300))
_MATMULS = 8

# The loop's typical time on the 2-vCPU x86-64 VM the benchmark's bounds
# were set on (Python 3.11, numpy 2.4, OpenBLAS on one thread).  Set-up
# times are reported as this many seconds times their ratio to the loop.
NOMINAL_SECONDS = 0.05


class _Node:
    __slots__ = ("value", "rule")

    def __init__(self, value, rule):
        self.value = value
        self.rule = rule


def _chain(size: int, length: int) -> float:
    nodes = []
    x = np.full(size, 0.5)
    for _ in range(length):
        y = np.tanh(x * 1.01 + 0.01)
        nodes.append(_Node(y, lambda g, y=y: g * (1.0 - y * y)))
        x = y
    g = np.ones(size)
    total = 0.0
    for node in reversed(nodes):
        g = node.rule(g)
        total += float(g[0])
    return total


def reference_work() -> float:
    """Run the fixed computation; returns a checksum so the work is consumed."""
    total = sum(_chain(size, length) for size, length in _CHAINS)
    a = np.linspace(0.0, 1.0, 576 * 72).reshape(576, 72)
    b = np.linspace(1.0, 0.0, 72 * 64).reshape(72, 64)
    for _ in range(_MATMULS):
        total += float((a @ b).sum())
    return total


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
