"""Job lifecycle: bounded queue, process-pool execution, graceful drain.

A job is one :class:`~repro.runtime.runner.JobSpec` plus its lifecycle
state::

    pending ──> running ──> done
       │           │    └─> failed
       └───────────┴──────> cancelled

``pending`` jobs wait in a bounded asyncio queue (submissions beyond
the bound are rejected with :class:`JobQueueFull` → HTTP 503, the
server's load-shedding contract).  ``running`` jobs execute
:func:`~repro.runtime.runner.execute_job` in a ``ProcessPoolExecutor``
worker — the same code path as the CLI, so results are byte-identical
to the equivalent ``python -m repro run``.  Cancellation is exact for
pending jobs and best-effort for running ones: a simulation in flight
cannot be interrupted mid-event, so the manager marks the job
``cancelled``, lets the worker finish, and discards its result.

Workers report cache and record-forwarding tallies inside their return
payload; the manager folds them into the metrics registry on the event
loop, so the registry itself needs no cross-process machinery.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import secrets
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..runtime.cache import ResultCache
from ..runtime.events import RecordForwarder, install_record_tap, remove_record_tap
from ..runtime.runner import JobResult, JobSpec, execute_job
from .metrics import MetricsRegistry
from .streams import JobStream, RecordBridge, WorkerRecordSink

__all__ = ["Job", "JobManager", "JobQueueFull", "JobState"]


class JobState:
    """The five lifecycle states (strings, not an enum: they go to JSON)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = (DONE, FAILED, CANCELLED)


class JobQueueFull(RuntimeError):
    """The pending queue is at capacity; the submission was shed."""


@dataclass
class Job:
    """One submitted spec and everything the control plane knows about it."""

    id: str
    spec: JobSpec
    state: str = JobState.PENDING
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[JobResult] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    records_forwarded: int = 0
    records_dropped_worker: int = 0
    stream: Optional[JobStream] = None

    def to_dict(self, *, include_result: bool = True) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "records": {
                "forwarded": self.records_forwarded,
                "streamed": self.stream.received if self.stream else 0,
                "dropped_worker": self.records_dropped_worker,
                "dropped_slow_consumers":
                    self.stream.dropped if self.stream else 0,
            },
        }
        if self.result is not None:
            doc["wall_time"] = self.result.wall_time
            doc["cache_hits"] = self.result.cache_hits
            doc["cache_misses"] = self.result.cache_misses
            if include_result:
                doc["result"] = self.result.merged
        return doc


class JobManager:
    """Owns the queue, the pool, every Job, and their metrics."""

    def __init__(self, *, workers: int = 2, queue_size: int = 64,
                 cache_root: Optional[str] = None,
                 bridge: Optional[RecordBridge] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 keep_jobs: int = 256) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache_root = cache_root
        self.bridge = bridge
        self.keep_jobs = keep_jobs
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue(maxsize=queue_size)
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._active: Dict[str, asyncio.Task] = {}
        self._slots = asyncio.Semaphore(workers)
        self._accepting = False
        self._counter = 0

        registry = metrics or MetricsRegistry()
        self.metrics = registry
        self._m_submitted = registry.counter(
            "repro_jobs_submitted_total", "Jobs accepted by POST /jobs")
        self._m_jobs = registry.counter(
            "repro_jobs_total", "Jobs finished, by terminal state",
            ("state",))
        self._m_active = registry.gauge(
            "repro_jobs_active", "Jobs currently pending or running")
        self._m_queue = registry.gauge(
            "repro_jobs_queue_depth", "Jobs waiting in the pending queue")
        self._m_cache_hits = registry.counter(
            "repro_cache_hits_total", "Result-cache hits across all jobs")
        self._m_cache_misses = registry.counter(
            "repro_cache_misses_total",
            "Result-cache misses across all jobs")
        self._m_bus = registry.counter(
            "repro_bus_events_total",
            "Instrumentation-bus counters folded over finished jobs "
            "(flows seen, verdicts by stage, probes sent, ...)",
            ("name",))

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers)
        self._accepting = True
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="job-dispatcher")

    async def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop intake, let running jobs finish.

        Pending jobs are cancelled (they never started; their specs are
        re-submittable), running jobs get ``timeout`` seconds to finish
        before the pool is torn down under them.
        """
        self._accepting = False
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while not self._queue.empty():
            job = self._queue.get_nowait()
            if job.state == JobState.PENDING:
                self._finish(job, JobState.CANCELLED)
        self._m_queue.set(0)
        if self._active:
            _, still_running = await asyncio.wait(
                list(self._active.values()), timeout=timeout)
            for task in still_running:
                task.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------- intake

    def submit(self, spec: JobSpec) -> Job:
        """Accept one spec; raises :class:`JobQueueFull` at capacity."""
        if not self._accepting:
            raise JobQueueFull("the service is shutting down")
        self._counter += 1
        job = Job(id=f"j{self._counter:04d}-{secrets.token_hex(4)}",
                  spec=spec)
        if self.bridge is not None:
            job.stream = self.bridge.stream_for(job.id)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            if self.bridge is not None:
                self.bridge.forget_stream(job.id)
            raise JobQueueFull(
                f"pending queue is full ({self._queue.maxsize} jobs)")
        self._jobs[job.id] = job
        self._order.append(job.id)
        self._m_submitted.inc()
        self._m_active.inc()
        self._m_queue.set(self._queue.qsize())
        self._evict_old()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return [self._jobs[job_id] for job_id in self._order
                if job_id in self._jobs]

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job; None if unknown.

        Pending jobs are cancelled exactly (the dispatcher skips them);
        running jobs are marked — the worker's result is discarded when
        it lands.  Terminal jobs are left untouched.
        """
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.state == JobState.PENDING:
            self._finish(job, JobState.CANCELLED)
        elif job.state == JobState.RUNNING:
            job.cancel_requested = True
            job.state = JobState.CANCELLED
        return job

    # ----------------------------------------------------------- execution

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            self._m_queue.set(self._queue.qsize())
            if job.state != JobState.PENDING:
                continue  # cancelled while queued
            await self._slots.acquire()
            if job.state != JobState.PENDING:  # cancelled while waiting
                self._slots.release()
                continue
            task = asyncio.create_task(self._run_job(job),
                                       name=f"job-{job.id}")
            self._active[job.id] = task

    async def _run_job(self, job: Job) -> None:
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        job.state = JobState.RUNNING
        job.started = time.time()
        payload = {
            "spec": job.spec.to_dict(),
            "job_id": job.id,
            "cache_root": self.cache_root,
            "stream_path": self.bridge.path if self.bridge else None,
        }
        try:
            outcome = await loop.run_in_executor(
                self._pool, _job_worker, payload)
        except (BrokenProcessPool, asyncio.CancelledError) as exc:
            outcome = {"ok": False,
                       "error": f"{type(exc).__name__}: worker pool died"}
        finally:
            self._slots.release()
            self._active.pop(job.id, None)

        records = outcome.get("records") or {}
        job.records_forwarded = int(records.get("forwarded", 0))
        job.records_dropped_worker = int(records.get("dropped", 0))
        cache_stats = outcome.get("cache") or {}
        self._m_cache_hits.inc(int(cache_stats.get("hits", 0)))
        self._m_cache_misses.inc(int(cache_stats.get("misses", 0)))

        if job.cancel_requested:
            self._finish(job, JobState.CANCELLED)
        elif outcome.get("ok"):
            job.result = JobResult.from_json_dict(outcome["result"])
            for name, count in (job.result.merged.get("events") or {}).items():
                self._m_bus.inc(int(count), name=name)
            self._finish(job, JobState.DONE)
        else:
            job.error = str(outcome.get("error") or "unknown worker failure")
            self._finish(job, JobState.FAILED)

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.finished = time.time()
        self._m_jobs.inc(state=state)
        self._m_active.dec()
        if self.bridge is not None:
            self.bridge.finish_stream(job.id, job.records_forwarded)

    def _evict_old(self) -> None:
        """Bound the in-memory job table: drop oldest *terminal* jobs."""
        while len(self._order) > self.keep_jobs:
            for index, job_id in enumerate(self._order):
                job = self._jobs.get(job_id)
                if job is None or job.state in JobState.TERMINAL:
                    del self._order[index]
                    self._jobs.pop(job_id, None)
                    if self.bridge is not None:
                        self.bridge.forget_stream(job_id)
                    break
            else:
                return  # everything live; let the table grow


# ------------------------------------------------------------ worker side


def _job_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (picklable) pool entry point: execute one JobSpec.

    Returns a plain dict (never raises): exceptions become
    ``{"ok": False, "error": ...}`` so scenario bugs mark the job
    ``failed`` instead of poisoning the pool.  When the payload names a
    record-bridge socket, a :class:`RecordForwarder` is installed as a
    global tap for the duration, so every EventBus the job creates
    streams sanitized records back to the server live.
    """
    spec = JobSpec.from_dict(payload["spec"])
    sink: Optional[WorkerRecordSink] = None
    forwarder: Optional[RecordForwarder] = None
    stream_path = payload.get("stream_path")
    if stream_path:
        try:
            sink = WorkerRecordSink(stream_path, payload["job_id"])
            forwarder = RecordForwarder(sink.send)
            install_record_tap(forwarder)
        except OSError:
            sink = None  # no bridge listening; run without streaming
    cache_root = payload.get("cache_root")
    cache = ResultCache(cache_root) if cache_root else None
    try:
        result = execute_job(spec, cache=cache)
        outcome: Dict[str, Any] = {"ok": True,
                                   "result": result.to_json_dict()}
    except Exception as exc:  # noqa: BLE001 - the job, not the pool, fails
        outcome = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if forwarder is not None:
            remove_record_tap(forwarder)
        if sink is not None:
            sink.close()
    if forwarder is not None:
        outcome["records"] = {"forwarded": forwarder.forwarded,
                              "dropped": forwarder.dropped}
    if cache is not None:
        outcome["cache"] = cache.stats()
    return outcome
