"""``python -m repro serve``, started the way the benchmark needs it.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python perfbench/serve.py OUT_DIR [--trace] serve [serve flags...]

This is ``repro.cli.main`` with two additions:

* temporary files, the record socket among them, go under ``OUT_DIR/tmp``
  by a path *relative* to the working directory, which the pool workers
  share: it stays within the 108-byte AF_UNIX limit however deep the
  checkout lives;
* with ``--trace``, the layer wrappers are installed and the pool entry
  point ``repro.service.jobs._job_worker`` is wrapped before the pool
  exists, so forked workers inherit both.  Each job then starts a fresh
  span set (run id = job id) and, when it ends, writes its spans to
  ``OUT_DIR/<job id>.spans`` and its summary to ``OUT_DIR/<job id>.json``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def install_tracing(out_dir: str) -> None:
    """Trace every pool job into ``out_dir``."""
    from repro.service import jobs
    from spans import Tracer, install_layers

    tracer = install_layers(Tracer())
    original = jobs._job_worker
    run = tracer.wrap(original, "runtime.job")

    @functools.wraps(original)
    def job_worker(payload):
        job_id = payload["job_id"]
        tracer.reset(job_id)
        outcome = run(payload)
        tracer.write(os.path.join(out_dir, f"{job_id}.spans"))
        with open(os.path.join(out_dir, f"{job_id}.json"), "w") as fh:
            json.dump(tracer.summary(), fh)
        return outcome

    # Pickled by reference, so the module attribute must be the wrapper.
    jobs._job_worker = job_worker


def main(argv) -> int:
    out_dir, serve_args = argv[0], argv[1:]
    trace = serve_args[:1] == ["--trace"]
    if trace:
        serve_args = serve_args[1:]
    tmp = os.path.join(os.path.relpath(out_dir), "tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp
    if trace:
        install_tracing(out_dir)

    from repro import cli

    return cli.main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
