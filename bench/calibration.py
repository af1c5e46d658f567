"""
Host-speed calibration of the measured times.

The reference machine is a shared 2-vCPU VM whose CPU speed drifts by 20 to
30 percent over tens of seconds to minutes; process CPU time drifts with
wall time, so the cause is the host, not descheduling.  Raw rates of ten
seeded runs then spread by up to 0.29 (interquartile range over median),
whatever the amount of work per run.

A fixed pure-Python kernel, built from the same operations as the engine
(tuple slices, dict probes, small sets), is therefore timed next to every
measured item, and the item's time is rescaled to reference speed:

    reference seconds = seconds * REF_KERNEL_S / kernel seconds

REF_KERNEL_S is the kernel's time in a quiet stretch of the reference
machine.  The kernel is benchmark code, so no change to the package moves
it.  Raw times are reported beside the rescaled ones.
"""

from __future__ import annotations

import gc
import time

REF_KERNEL_S = 0.005
clock = time.perf_counter


def kernel() -> int:
    d: dict[tuple[int, ...], int] = {}
    w = tuple(range(64))
    acc = 0
    for i in range(2500):
        s = i % 40
        t = w[s : s + 16]
        d[t] = d.get(t, 0) + 1
        acc += len({a for a in t if a & 1})
    return acc


def kernel_seconds() -> float:
    """Time of one kernel run.  The collector is paused: the kernel makes no
    cycles, and a collection would scan whatever the workload keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        kernel()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()
