"""One scenario run in a fresh interpreter, reported as one JSON line.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python perfbench/child.py SCENARIO SEED [--setup-only] [--trace SPANS_PATH]

The line printed on stdout carries ``ready`` (``time.perf_counter()``
once imports and scenario lookup are done; CLOCK_MONOTONIC, so the
parent can subtract its own spawn time), when the run began and ended
on the same clock, its wall and CPU seconds, peak RSS, and the sha256
of ``RunResult.canonical_bytes()``.  With ``--trace`` the layer
wrappers are installed before the world is built and the span summary
rides along.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import pins


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    import repro.runtime as runtime

    runtime.get_scenario(name)
    ready = time.perf_counter()
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if "--trace" in argv:
        from spans import Tracer, install_layers

        tracer = install_layers(Tracer(run_id=f"{name}:{seed}:{os.getpid()}"))

    cpu0, wall0 = _cpu(), time.perf_counter()
    result = runtime.run_scenario(name, seed=seed, use_cache=False)
    wall1, cpu1 = time.perf_counter(), _cpu()

    report = {
        "ready": ready,
        "run_begin": wall0,
        "run_end": wall1,
        "run_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": pins.digest(result.canonical_bytes()),
        "counters": result.events.get("counters", {}),
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        tracer.write(argv[argv.index("--trace") + 1])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
