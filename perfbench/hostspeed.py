"""A fixed reference loop, timed around each command to cancel host drift.

On a shared host each CPU's speed drifts by 20% and more over tens of
seconds, with other tenants' load. A single-threaded fit slows with the
one CPU it runs on, so the spread of its wall time across runs measured
the host, not the program. Dividing each command's wall time by the time
of a fixed loop measured just before and just after it, the same way the
command uses the CPUs, cancels that drift:

- a single-threaded command (fit, queue) is bracketed by the loop on the
  calling thread, which stays on the CPU the command ran on;
- a command that runs on the simulation pool (simulate) uses every CPU,
  so it is bracketed by the loop pinned to each usable CPU in turn,
  averaged.

The loop uses nothing of the package, so a change to the program cannot
change it.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np

# Three parts of similar length (30-60 ms each on a 2.1 GHz Xeon vCPU):
# scalar float calls, numpy arithmetic on 512-point arrays, and dense
# solves of order 104. Fits and simulations mix these kinds of work.
REF_SCALAR_CALLS = 150_000
REF_ARRAY_OPS = 10_000
REF_SOLVES = 200


def reference_seconds() -> float:
    """Wall time of the fixed reference loop on the calling thread."""
    x = np.linspace(0.01, 50.0, 512)
    m = -2.0 * np.eye(104) + np.eye(104, k=1)
    v = np.ones(104)
    t0 = perf_counter()
    acc = 0.0
    for i in range(REF_SCALAR_CALLS):
        y = 1.0 + i * 1e-4
        acc += math.exp(-y) * y ** -3.1 + math.log1p(y)
    for i in range(REF_ARRAY_OPS):
        acc += float(np.dot(np.exp(-x * (1.0 + i * 1e-3)), x))
    for i in range(REF_SOLVES):
        a = m - i * 1e-3 * np.eye(104)
        acc += float(np.linalg.solve(a, v)[0]) + float((a @ a).sum())
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("the reference loop lost its result")
    return elapsed


class HostSpeed:
    """Times commands relative to the reference loop around them.

    `measure` adds each command's wall time over its reference time to
    `op_rel`; `take` returns the sum for one operation and resets it. A
    reference taken after a command serves as the one before the next
    command of the same kind.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = {False: [], True: []}   # pool? -> reference seconds
        self.op_rel = 0.0
        self._last = None                      # (pool, seconds)

    def reference(self, pool: bool) -> float:
        if not pool:
            t = reference_seconds()
        else:
            # sched_setaffinity(0, ...) pins only the calling thread.
            mask = os.sched_getaffinity(0)
            try:
                t = 0.0
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    t += reference_seconds()
            finally:
                os.sched_setaffinity(0, mask)
            t /= len(self.cpus)
        self.samples[pool].append(t)
        return t

    def measure(self, pool: bool, run):
        """Calls run() -> (exit code, wall seconds) between two references."""
        if self._last is not None and self._last[0] == pool:
            before = self._last[1]
        else:
            before = self.reference(pool)
        code, seconds = run()
        after = self.reference(pool)
        self._last = (pool, after)
        self.op_rel += seconds * 2.0 / (before + after)
        return code, seconds

    def take(self) -> float:
        rel, self.op_rel = self.op_rel, 0.0
        return rel
