"""How fast the host runs right now, from a fixed reference kernel.

The reference host (2 vCPU of a shared machine) does not run at one speed:
for tens of seconds at a time the same Python work takes up to twice as
long, and the process's CPU time stretches with its wall time, so neither
clock hides it.  A run that lands in such a stretch would report the host,
not the program.

So the timed runs sample :func:`kernel_s` next to the work they time.  The
kernel belongs to the benchmark, not the program: it walks a heap of small
Python objects (dicts holding tuples) in a random order, the kind of
pointer-chasing the program's hot paths do.  Sampled around each engine
execution on the reference host, the kernels tried (this walk, a tight
interpreter loop, a numpy sort, a numpy gather) correlated about equally
with its time, and this walk's log-log slope was the nearest to 1.  It is
more sensitive to the host's state than the program is, though: across runs
on the reference host the workloads' raw speed went with the kernel's to
the power 0.43 to 0.73 (log-log slopes; wire-agar's gateway lowest,
engine-agar highest).  :func:`slowdown` is therefore the
kernel's time over :data:`REFERENCE_S` (its time on the reference host
when that host runs fast) to the power :data:`SENSITIVITY`.  A throughput
measured while the host is ``k`` times slower is multiplied by ``k``, and a
duration divided by it.  A change to the program moves the scaled figures
exactly as it moves the raw ones, which every report also prints.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The kernel's time on the reference host (Intel Xeon, 2 vCPU, Python
#: 3.11, see README.md) while it ran at its usual, fast speed.
REFERENCE_S = 0.015
#: How strongly the program's speed follows the kernel's (see above).
SENSITIVITY = 0.6

#: Kernel passes per sample; their median is taken.
SAMPLES = 5
#: Objects in the heap the kernel walks, and how many it visits a pass.
HEAP_OBJECTS = 200_000
VISITS = 30_000

_heap: list[dict] = []
_order: list[int] = []


def _kernel() -> int:
    if not _heap:
        _heap.extend({"a": i, "b": (i, i + 1)} for i in range(HEAP_OBJECTS))
        _order.extend(np.random.default_rng(0).permutation(HEAP_OBJECTS)
                      [:VISITS].tolist())
        # A full collection untracks the heap's dicts and tuples (they hold
        # only ints), so later collections in the measured process do not
        # walk them.
        gc.collect()
    heap = _heap
    total = 0
    for index in _order:
        total += heap[index]["b"][1]
    return total


def kernel_s() -> float:
    """Wall time of one pass of the reference kernel."""
    began = time.perf_counter()
    _kernel()
    return time.perf_counter() - began


def slowdown() -> float:
    """How many times slower than on the fast reference host the program
    runs right now, from the median of ``SAMPLES`` consecutive kernel passes.
    """
    kernel = statistics.median(kernel_s() for _ in range(SAMPLES))
    return (kernel / REFERENCE_S) ** SENSITIVITY
