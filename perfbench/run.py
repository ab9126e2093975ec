"""The repository benchmark: paper scenarios and the control plane.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shadowsocks --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``shadowsocks``, ``blocking``, ``sink`` — one registered scenario at
  its default params, one uncached ``run_scenario`` per fresh process,
  repeated until ``--seconds`` is spent;
* ``service`` — ``python -m repro serve --no-cache`` under a closed loop
  of two clients submitting small quickstart jobs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  Every result is checked against
``perfbench/pins.json``; a mismatch counts as a failed operation.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Progress goes to stderr.

``--selfcheck N`` instead runs the workload N times in fresh benchmark
processes (seeds 1..N) and prints, per metric, the median, quartiles,
min/max and interquartile share of the median: the figures the bounds in
``BENCHMARK.json`` are set from.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import pins  # noqa: E402
from speed import SpeedProbe, factor_between  # noqa: E402

SCENARIO_WORKLOADS = pins.SCENARIO_WORKLOADS
WORKLOADS = SCENARIO_WORKLOADS + ("service",)

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"), ("jobs_per_s", "1/s"),
)
PER_LAYER = (
    ("crypto.seal_calls", "count"), ("crypto.open_calls", "count"),
    ("crypto.open_failures", "count"), ("crypto.stream_calls", "count"),
    ("crypto.bytes", "bytes"), ("crypto.self_s", "s"),
    ("net.events", "count"), ("net.segments", "count"), ("net.bursts", "count"),
    ("net.segments_per_burst", "ratio"), ("net.self_s", "s"),
    ("gfw.segments_inspected", "count"), ("gfw.flows_flagged", "count"),
    ("gfw.flag_ratio", "ratio"), ("gfw.probes_sent", "count"), ("gfw.self_s", "s"),
    ("proxy.records_encrypted", "count"), ("proxy.records_decrypted", "count"),
    ("proxy.self_s", "s"),
    ("workloads.payload_calls", "count"), ("workloads.payload_bytes", "bytes"),
    ("workloads.self_s", "s"),
    ("analysis.observe_calls", "count"), ("analysis.self_s", "s"),
    ("runtime.summarize_s", "s"), ("runtime.other_s", "s"),
    ("service.queue_wait_s", "s"), ("service.exec_s", "s"),
    ("service.overhead_s", "s"), ("service.first_record_s", "s"),
    ("service.job_p90_s", "s"),
    ("service.records_streamed", "count"), ("service.records_dropped", "count"),
    ("service.records_lost", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.speed_factor", "ratio"), ("host.raw_run_s", "s"),
)
UNITS = dict(END_TO_END + PER_LAYER)

SETUP_SAMPLES = 5          # setup-only interpreters per scenario run
MIN_RUNS = 4               # scenario runs per benchmark run, at least (2 per seed)
SERVICE_CLIENTS = 2        # closed-loop clients (= nproc on the 2-core host)
SERVICE_LAUNCHES = 4       # server launches per run, for setup_s
SERVICE_UNTRACED_JOBS = 120  # fixed job count of the traced run's timing pass
SERVICE_TRACED_JOBS = 16     # fixed job count under the layer wrappers
CHILD_TIMEOUT = 170.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Context:
    """Paths and the environment every spawned process gets."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.out = os.path.join(root, ".perfbench")
        tmp = os.path.join(self.out, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": os.path.join(root, "src"),
            # Same dict/set layouts every run: hash randomization is noise.
            "PYTHONHASHSEED": "0",
            # Temp files of every process stay inside the checkout.
            "TMPDIR": tmp,
        })
        # Kill switches and cache locations set in the caller's shell must
        # not change what is measured.
        for key in ("REPRO_CRYPTO", "REPRO_CRYPTO_CACHE", "REPRO_CRYPTO_NUMPY",
                    "REPRO_NET_BATCH", "REPRO_NET_BATCH_RX", "REPRO_RUNS_DIR"):
            self.env.pop(key, None)


def metric(name: str, value: float) -> Dict[str, object]:
    return {"value": value, "unit": UNITS[name]}


# ------------------------------------------------------- scenario workloads


def spawn_child(ctx: Context, scenario: str, seed: int,
                *extra: str) -> Tuple[float, float, Optional[dict]]:
    """Run perfbench/child.py once; (spawned, exited, report or None)."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), scenario, str(seed), *extra]
    spawned = time.perf_counter()
    proc = subprocess.run(argv, cwd=ctx.root, env=ctx.env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    exited = time.perf_counter()
    if proc.returncode != 0:
        log(f"child {scenario}:{seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return spawned, exited, None
    return spawned, exited, json.loads(proc.stdout.strip().splitlines()[-1])


def scenario_timed(ctx: Context, probe: SpeedProbe, name: str, seed: int,
                   seconds: float) -> dict:
    """Fresh-process runs until ``seconds`` are spent; times in reference seconds.

    Runs alternate between the pinned scenario seeds, starting with
    ``SCENARIO_SEEDS[seed % 2]``, and each timing is the mean of the
    per-seed medians: every run measures the same input mix, so a seed
    that costs more than the other cannot masquerade as noise.  Each
    phase is scaled by the probe samples taken during it (see speed.py):
    the run from its begin to its end, the whole child from spawn to
    exit.  Set-up is scaled by the median run factor instead: a set-up
    is too short for a steady factor of its own, and while an
    interpreter starts, the probe reads slower than the host is.
    """
    deadline = time.perf_counter() + seconds
    table = pins.load()
    order = pins.SCENARIO_SEEDS[seed % 2:] + pins.SCENARIO_SEEDS[:seed % 2]
    spawn_child(ctx, name, order[0], "--setup-only")  # warm bytecode caches
    setups: List[Tuple[float, float]] = []          # (spawned, ready)
    for _ in range(SETUP_SAMPLES):
        spawned, _, report = spawn_child(ctx, name, order[0], "--setup-only")
        if report is None:
            raise RuntimeError("setup-only child failed")
        setups.append((spawned, report["ready"]))

    runs: Dict[int, List[dict]] = {s: [] for s in order}
    walls: List[float] = []
    attempted = failed = 0
    while True:
        estimate = statistics.median(walls) if walls else 0.0
        if attempted >= MIN_RUNS and time.perf_counter() + estimate > deadline:
            break
        scenario_seed = order[attempted % len(order)]
        attempted += 1
        spawned, exited, report = spawn_child(ctx, name, scenario_seed)
        walls.append(exited - spawned)
        if report is None or not pins.verify(name, scenario_seed, report["digest"], table):
            failed += 1
            log(f"run {attempted}: digest mismatch or crash")
            continue
        setups.append((spawned, report["ready"]))
        report.update(spawned=spawned, exited=exited)
        runs[scenario_seed].append(report)
        log(f"run {attempted} (seed {scenario_seed}): run_s={report['run_s']:.3f} raw")

    if not all(runs.values()):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    samples = probe.samples()
    for reports in runs.values():
        for r in reports:
            r["run_factor"] = factor_between(samples, r["run_begin"], r["run_end"])
            r["job_s"] = r["exited"] - r["spawned"]
            r["job_factor"] = factor_between(samples, r["spawned"], r["exited"])

    def mixed(value, factor: Optional[str]) -> float:
        """Mean over seeds of the per-seed median of ``value(report)``, scaled."""
        return statistics.fmean(
            statistics.median(value(r) * (r[factor] if factor else 1.0) for r in reports)
            for reports in runs.values())

    job_s = mixed(lambda r: r["job_s"], "job_factor")
    host = statistics.median(r["run_factor"] for reports in runs.values() for r in reports)
    setup_s = statistics.median(ready - spawned for spawned, ready in setups)
    log(f"raw: setup_s={setup_s:.4f} "
        f"run_s={mixed(lambda r: r['run_s'], None):.4f} "
        f"cpu_s={mixed(lambda r: r['cpu_s'], None):.4f} "
        f"job_p50_s={mixed(lambda r: r['job_s'], None):.4f} "
        f"factor={mixed(lambda r: 1.0, 'run_factor'):.4f}")
    metrics = {
        "setup_s": metric("setup_s", setup_s * host),
        "run_s": metric("run_s", mixed(lambda r: r["run_s"], "run_factor")),
        "cpu_s": metric("cpu_s", mixed(lambda r: r["cpu_s"], "run_factor")),
        "peak_rss_mb": metric("peak_rss_mb", mixed(lambda r: r["peak_rss_mb"], None)),
        "job_p50_s": metric("job_p50_s", job_s),
        "jobs_per_s": metric("jobs_per_s", 1.0 / job_s),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def scenario_traced(ctx: Context, probe: SpeedProbe, name: str, seed: int) -> dict:
    """Two untraced and two traced fresh-process runs of scenario ``seed``.

    The traced runs give the layer counts (which must repeat exactly) and
    self times; the untraced ones the base of ``trace.overhead_ratio``.
    """
    table = pins.load()
    spawn_child(ctx, name, seed, "--setup-only")
    plain: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    for index in range(4):
        extra: Tuple[str, ...] = ()
        if index % 2:
            extra = ("--trace", os.path.join(ctx.out, f"{name}-{index // 2}.spans"))
        attempted += 1
        _, _, report = spawn_child(ctx, name, seed, *extra)
        if report is None or not pins.verify(name, seed, report["digest"], table):
            failed += 1
            continue
        (traced if extra else plain).append(report)
    if not plain or not traced:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    counts = [r["trace"]["counts"] for r in traced]
    repeat = len(counts) == 2 and counts[0] == counts[1]
    if not repeat:
        log("traced counts differ between the two traced runs")
    samples = probe.samples()
    for r in plain + traced:
        r["factor"] = factor_between(samples, r["run_begin"], r["run_end"])

    def scaled(reports: List[dict], value) -> float:
        """Median over ``reports`` of ``value(report)`` in reference seconds."""
        return statistics.median(value(r) * r["factor"] for r in reports)

    values = layer_values(
        counts[0], traced[0]["counters"],
        {layer: scaled(traced, lambda r: r["trace"]["self_s"][layer])
         for layer in traced[0]["trace"]["self_s"]},
        summarize_s=scaled(traced, lambda r: r["trace"]["summarize_s"]),
        other_s=scaled(traced, lambda r: r["trace"]["other_s"]))
    values["trace.overhead_ratio"] = (scaled(traced, lambda r: r["run_s"])
                                      / scaled(plain, lambda r: r["run_s"]))
    values["host.speed_factor"] = statistics.median(r["factor"] for r in plain)
    values["host.raw_run_s"] = statistics.median(r["run_s"] for r in plain)
    return {"correct": failed == 0 and repeat, "attempted": attempted,
            "failed": failed, "metrics": per_layer_metrics(values)}


def layer_values(counts: Dict[str, int], bus: Dict[str, int],
                 self_s: Dict[str, float], summarize_s: float,
                 other_s: float) -> Dict[str, float]:
    """Per-layer metric values from span counts, bus counters and self times."""
    values: Dict[str, float] = {key: counts[key] for key in counts
                                if key != "net.burst_segments"}
    values["net.segments_per_burst"] = (
        counts["net.burst_segments"] / counts["net.bursts"] if counts["net.bursts"] else 0.0)
    flagged = int(bus.get("gfw.conn.flagged", 0))
    opened = int(bus.get("gfw.flow.opened", 0))
    values["gfw.flows_flagged"] = flagged
    values["gfw.flag_ratio"] = flagged / opened if opened else 0.0
    for layer in ("crypto", "net", "gfw", "proxy", "workloads", "analysis"):
        values[f"{layer}.self_s"] = self_s[layer]
    values["runtime.summarize_s"] = summarize_s
    values["runtime.other_s"] = other_s
    return values


def per_layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    return {name: metric(name, values.get(name, 0)) for name, _ in PER_LAYER}


# --------------------------------------------------------- service workload


def job_failed(sample, table: Dict[str, Dict[str, str]]) -> bool:
    return bool(sample.error) or sample.state != "done" \
        or not pins.verify("service", sample.seed, sample.digest, table)


def seed_cycle(seed: int):
    """The quickstart seeds in a fixed order that starts where ``seed`` says."""
    order = list(pins.SERVICE_SEEDS)
    random.Random(seed).shuffle(order)
    return itertools.cycle(order)


def launch(ctx: Context, seeds, out_dir: str, trace: bool = False):
    """Start a server and wait until its first job is done; (server, sample)."""
    import service_load

    server = service_load.Server(service_load.serve_argv(out_dir, trace), ctx.env,
                                 ctx.root)
    try:
        sample = service_load.run_job(server.port, next(seeds))
    except BaseException:
        server.stop()
        raise
    return server, sample


def traced_pass(ctx: Context, seed: int, out_dir: str):
    """A fresh traced server running the fixed job list; (samples, summaries).

    ``summaries`` is None when a traced job left no span summary.
    """
    import service_load

    seeds = seed_cycle(seed)
    server, first = launch(ctx, seeds, out_dir, trace=True)
    try:
        traced = service_load.closed_loop(server.port, seeds, SERVICE_CLIENTS,
                                          count=SERVICE_TRACED_JOBS)
    finally:
        server.stop()
    summaries = []
    for sample in traced:
        path = os.path.join(out_dir, f"{sample.job_id}.json")
        if not os.path.exists(path):
            return [first] + traced, None
        with open(path) as fh:
            summaries.append(json.load(fh))
    return [first] + traced, summaries


def summed(summaries: List[dict], key: str) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for summary in summaries:
        for name, value in summary[key].items():
            total[name] = total.get(name, 0) + value
    return total


def service_timed(ctx: Context, probe: SpeedProbe, seed: int, seconds: float) -> dict:
    """Server launches for set-up, then the closed loop until ``seconds``.

    Each job is scaled by the probe samples taken within half a second
    of it and the loop's length second by second (see speed.py);
    set-up by the loop's mean factor, as on the scenario workloads.
    """
    import service_load

    deadline = time.perf_counter() + seconds - 1.0   # leave time to shut down
    table = pins.load()
    seeds = seed_cycle(seed)
    out_dir = os.path.join(ctx.out, "service")
    shutil.rmtree(out_dir, ignore_errors=True)
    samples = []
    launches = []
    server = None
    try:
        for index in range(SERVICE_LAUNCHES):
            server, first = launch(ctx, seeds, out_dir)
            samples.append(first)
            launches.append((server.spawned, first.ended))
            if index < SERVICE_LAUNCHES - 1:
                server.stop()
                server = None
        samples += service_load.closed_loop(server.port, seeds, SERVICE_CLIENTS,
                                            count=2 * SERVICE_CLIENTS)
        cpu0, start = server.cpu_s(), time.perf_counter()
        measured = service_load.closed_loop(server.port, seeds, SERVICE_CLIENTS,
                                            deadline=deadline)
        end, cpu1 = time.perf_counter(), server.cpu_s()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    samples += measured
    failed = sum(job_failed(s, table) for s in samples)
    good = [s for s in measured if not job_failed(s, table)]
    log(f"service: {len(measured)} measured jobs, {failed} failed, "
        f"{sum(s.lost for s in measured)} of {sum(s.streamed for s in measured)} "
        f"streamed records lost")
    if not good:
        return {"correct": False, "attempted": len(samples), "failed": failed,
                "metrics": {}}
    speed = probe.samples()
    setup_s = statistics.median(ended - spawned for spawned, ended in launches)
    factors = [factor_between(speed, s.ended - s.latency_s - 0.5, s.ended + 0.5)
               for s in good]
    windows = [(t, min(t + 1.0, end))
               for t in (start + i for i in range(math.ceil(end - start)))]
    elapsed = sum((b - a) * factor_between(speed, a, b) for a, b in windows)
    log(f"raw: setup_s={setup_s:.4f} "
        f"run_s={statistics.median(s.doc['wall_time'] for s in good):.4f} "
        f"job_p50_s={statistics.median(s.latency_s for s in good):.4f} "
        f"jobs_per_s={len(good) / (end - start):.3f} "
        f"factor={(elapsed / (end - start)):.4f}")
    metrics = {
        "setup_s": metric("setup_s", setup_s * elapsed / (end - start)),
        "run_s": metric("run_s", statistics.median(
            s.doc["wall_time"] * f for s, f in zip(good, factors))),
        "cpu_s": metric("cpu_s", (cpu1 - cpu0) * elapsed / (end - start) / len(measured)),
        "peak_rss_mb": metric("peak_rss_mb", rss),
        "job_p50_s": metric("job_p50_s", statistics.median(
            s.latency_s * f for s, f in zip(good, factors))),
        "jobs_per_s": metric("jobs_per_s", len(good) / elapsed),
    }
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def service_traced(ctx: Context, probe: SpeedProbe, seed: int) -> dict:
    """A fixed job list timed untraced, then twice under the wrappers.

    Service-layer figures come from the untraced pass; layer counts and
    self times (summed over the traced jobs) from the first traced pass.
    Each traced pass runs on a fresh server, and their counts must
    repeat exactly.  Each pass is scaled by the probe samples taken
    during it.
    """
    import service_load

    table = pins.load()
    seeds = seed_cycle(seed)
    samples = []
    out_dir = os.path.join(ctx.out, "service")
    shutil.rmtree(out_dir, ignore_errors=True)
    server, first = launch(ctx, seeds, out_dir)
    try:
        samples.append(first)
        samples += service_load.closed_loop(server.port, seeds, SERVICE_CLIENTS,
                                            count=2 * SERVICE_CLIENTS)
        plain_window = [time.perf_counter()]
        plain = service_load.closed_loop(server.port, seeds, SERVICE_CLIENTS,
                                         count=SERVICE_UNTRACED_JOBS)
        plain_window.append(time.perf_counter())
    finally:
        server.stop()
    samples += plain
    passes = []
    for _ in range(2):
        window = [time.perf_counter()]
        traced, summaries = traced_pass(ctx, seed, out_dir)
        window.append(time.perf_counter())
        passes.append((traced, summaries, window))
        samples += traced
    failed = sum(job_failed(s, table) for s in samples)
    failed += sum(summaries is None for _, summaries, _ in passes)
    good = [s for s in plain if not job_failed(s, table)]
    if not good or failed:
        return {"correct": False, "attempted": len(samples), "failed": failed,
                "metrics": {}}
    pass_counts = [summed(summaries, "counts") for _, summaries, _ in passes]
    repeat = pass_counts[0] == pass_counts[1]
    if not repeat:
        log("traced counts differ between the two traced passes")

    speed = probe.samples()
    plain_speed = factor_between(speed, *plain_window)
    traced, summaries, window = passes[0]
    traced_speed = factor_between(speed, *window)
    bus: Dict[str, int] = {}
    for sample in traced[1:]:
        for key, value in sample.counters.items():
            bus[key] = bus.get(key, 0) + value
    values = layer_values(
        pass_counts[0], bus,
        {layer: value * traced_speed for layer, value in summed(summaries, "self_s").items()},
        summarize_s=traced_speed * sum(s["summarize_s"] for s in summaries),
        other_s=traced_speed * sum(s["other_s"] for s in summaries))

    def plain_median(seconds) -> float:
        return plain_speed * statistics.median(seconds)

    values.update({
        "service.queue_wait_s": plain_median(
            s.doc["started"] - s.doc["submitted"] for s in good),
        "service.exec_s": plain_median(
            s.doc["finished"] - s.doc["started"] for s in good),
        "service.overhead_s": plain_median(
            s.doc["finished"] - s.doc["started"] - s.doc["wall_time"] for s in good),
        "service.first_record_s": plain_median(
            s.first_record_s for s in good if s.first_record_s is not None),
        "service.job_p90_s": plain_speed * benchstats.percentile(
            [s.latency_s for s in good], 90),
        "service.records_streamed": sum(s.streamed for s in plain),
        "service.records_dropped": sum(s.dropped for s in plain),
        "service.records_lost": sum(s.lost for s in plain),
        "trace.overhead_ratio": (
            traced_speed * statistics.median(s.doc["wall_time"] for s in traced[1:])
            / plain_median(s.doc["wall_time"] for s in good)),
        "host.speed_factor": plain_speed,
        "host.raw_run_s": statistics.median(s.doc["wall_time"] for s in good),
    })
    log(f"service: {len(plain)} jobs, {values['service.records_lost']} of "
        f"{values['service.records_streamed']} streamed records lost")
    return {"correct": repeat, "attempted": len(samples), "failed": failed,
            "metrics": per_layer_metrics(values)}


# ------------------------------------------------------------------- main


def run_once(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SystemExit("perfbench: run from a checkout root holding src/repro")
    ctx = Context(root)
    probe = SpeedProbe(os.path.join(ctx.out, "speed.txt"), root)
    try:
        if args.workload == "service":
            if args.trace:
                return service_traced(ctx, probe, args.seed)
            return service_timed(ctx, probe, args.seed, args.seconds)
        scenario_seed = pins.SCENARIO_SEEDS[args.seed % len(pins.SCENARIO_SEEDS)]
        if args.trace:
            return scenario_traced(ctx, probe, args.workload, scenario_seed)
        return scenario_timed(ctx, probe, args.workload, scenario_seed, args.seconds)
    finally:
        probe.stop()


def selfcheck(args) -> int:
    """Run the workload ``--selfcheck`` times, then print each metric's spread."""
    values: Dict[str, List[float]] = {}
    for seed in range(1, args.selfcheck + 1):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result: {result}", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        log(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    print(f"{'metric':28} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'min':>10} {'max':>10} {'iqr/med':>8}")
    for name, series in values.items():
        s = benchstats.spread(series)
        print(f"{name:28} {s['n']:3d} {s['median']:10.4g} {s['q1']:10.4g} "
              f"{s['q3']:10.4g} {s['min']:10.4g} {s['max']:10.4g} {s['iqr_share']:8.2%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", type=int, default=0, metavar="N",
                        help="run N fresh benchmark runs and print each metric's spread")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    result = run_once(args)
    if not result["metrics"]:
        log("no successful operation to measure")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
