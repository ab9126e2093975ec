"""Host-speed probe: a fixed kernel timed in a process of its own.

On a shared host the speed of a core drifts by tens of percent within
seconds, and by up to 2x between quiet and busy stretches of minutes
(other tenants on the sibling hyperthread, memory traffic).  Repetition
inside a 30-second run cannot average that out, and two sets of runs an
hour apart can disagree by more than any useful bound.

A :class:`SpeedProbe` is a separate process, started by the benchmark
next to the program it measures.  Every ``PERIOD`` seconds it times a
small, fixed pure-Python kernel and appends ``finished_at seconds`` to a
file; ``finished_at`` is ``time.perf_counter()``, the system-wide
monotonic clock on Linux, so the samples line up with the times the
benchmark takes in its own process.  A phase's *speed factor* is
``NOMINAL_KERNEL_S`` over the (trimmed) mean kernel time sampled during
the phase, raised to ``ELASTICITY``, and a measured time multiplied by
it is the time the phase would have taken on the host at the kernel's
nominal speed ("reference seconds").  The probe shares no interpreter, lock or memory with the
program, so program changes move the scaled time as they move the raw
one, while host drift cancels.

No kernel tracks every program exactly: a tight loop over-reacts to a
busy sibling hyperthread, a memory walk under-reacts to it, so the
kernel mixes dict and list work with random reads over 16 MiB.  It
costs about 3% of one core and 16 MiB of memory.

Run as a script (``python speed.py SAMPLES_PATH``) it is the probe
process; it stops on SIGTERM or when its parent exits.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

PERIOD = 0.05
# Kernel time on an uncontended core of the reference host (a 2-vCPU
# Xeon VM, CPython 3.11): the speed every scaled time is expressed at.
NOMINAL_KERNEL_S = 0.0016
# How far the programs' times move, in log terms, per unit the kernel's
# time moves.  Between a busy and a quiet stretch of the reference host
# (kernel 2.0-2.4x faster) the scenario and service run times moved by
# 0.85 (shadowsocks), 0.92 (blocking, service) and 0.96 (sink) of that;
# scaling by the plain ratio over-corrected shadowsocks by 10-16%.
ELASTICITY = 0.9


# The kernel reads 16 MiB at random: the probe must feel cache and
# memory contention from other tenants, not only a slower core.  Of
# 64 KiB, 4, 16 and 64 MiB tables, the larger ones tracked scenario run
# times best on the reference host.
TABLE_BYTES = 1 << 24


def kernel(table: bytearray) -> int:
    """Interpreter-bound work with a cache-missing working set."""
    mask = len(table) - 1
    counts: dict = {}
    queue: list = []
    acc = 0
    index = 12345
    for i in range(2000):
        index = (index * 1103515245 + 12345) & mask
        byte = table[index]
        key = byte & 63
        counts[key] = counts.get(key, 0) + 1
        queue.append(byte)
        if len(queue) > 8:
            acc += queue.pop(0)
        acc = (acc * 31 + (i ^ byte)) & 0xFFFFFFFF
    return acc


def factor_of(durations: Sequence[float]) -> float:
    """Speed factor of a phase from the kernel times sampled during it.

    A phase's length follows the *mean* slowdown over it, so this uses
    the mean, trimmed by a tenth at each end against the odd sample that
    waited on something else.
    """
    ordered = sorted(durations)
    cut = len(ordered) // 10
    mean = statistics.fmean(ordered[cut:len(ordered) - cut])
    return (NOMINAL_KERNEL_S / mean) ** ELASTICITY


def factor_between(samples: Sequence[Tuple[float, float]], begin: float,
                   end: float) -> float:
    """Speed factor from sorted (finished_at, duration) samples in [begin, end].

    Widens the window symmetrically until it holds at least three
    samples, for phases shorter than a few probe periods.
    """
    pad = 0.0
    while True:
        lo = bisect.bisect_left(samples, (begin - pad, 0.0))
        hi = bisect.bisect_right(samples, (end + pad, float("inf")))
        if hi - lo >= 3 or (lo == 0 and hi == len(samples)):
            break
        pad += PERIOD
    return factor_of([d for _, d in samples[lo:hi]])


class SpeedProbe:
    """The probe process and the samples it has written."""

    def __init__(self, path: str, cwd: str) -> None:
        self.path = path
        open(path, "w").close()
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), path],
                                     cwd=cwd, stdin=subprocess.DEVNULL)

    def samples(self) -> List[Tuple[float, float]]:
        """Every complete (finished_at, seconds) sample so far, sorted."""
        with open(self.path) as fh:
            lines = fh.read().split("\n")[:-1]   # drop a line still being written
        return sorted(tuple(map(float, line.split())) for line in lines if line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=10.0)


def _serve(path: str) -> int:
    parent = os.getppid()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    clock = time.perf_counter
    table = bytearray(range(256)) * (TABLE_BYTES // 256)
    with open(path, "a") as fh:
        while os.getppid() == parent:
            began = clock()
            kernel(table)
            ended = clock()
            fh.write(f"{ended!r} {ended - began!r}\n")
            fh.flush()
            time.sleep(PERIOD)
    return 0


if __name__ == "__main__":
    sys.exit(_serve(sys.argv[1]))
