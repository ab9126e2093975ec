"""The record bridge: EventBus records out of workers, into SSE fan-out.

Jobs execute in pool worker processes; the analyzer records their
EventBuses emit must reach HTTP clients subscribed to
``GET /jobs/{id}/records`` in the server process, live.  The path:

.. code-block:: text

    worker process                      server process (event loop)
    --------------                      ---------------------------
    EventBus.emit(kind, event)
      -> RecordForwarder (global tap)
        -> sanitize_record(...)
          -> WorkerRecordSink  == unix socket ==>  RecordBridge reader
             (one JSON line                          -> JobStream.publish
              per record)                               -> per-subscriber
                                                           asyncio queues

The worker side is synchronous (it runs inside the simulation's hot
loop); the server side is a per-connection asyncio reader task.  The
first line a worker sends is a handshake naming its job id; every
subsequent line is one sanitized record.

Flow control: the worker socket is *blocking*, so a stalled server
process back-pressures the worker rather than ballooning memory.  On
the server side each subscriber gets a bounded :class:`asyncio.Queue`;
a subscriber that cannot keep up has records *dropped* (counted
per-subscriber and in the ``repro_records_dropped_total`` metric)
rather than stalling the bridge or its peers.  Each job also keeps a
bounded replay buffer of its most recent records so a client that
subscribes moments after the job finished still sees the tail.

Closing: the pool future of a job can complete while the bridge still
holds unread lines from its worker, so a job reaching a terminal state
does not close its stream by itself.  :meth:`JobStream.finish` records
how many records the worker reported forwarding, and the stream closes
once all of them have arrived or the worker connection has reached EOF,
whichever comes first.  Every subscriber therefore accounts for every
record: ``received == delivered + dropped`` per subscriber.
"""

from __future__ import annotations

import asyncio
import collections
import json
import socket
from typing import Any, AsyncIterator, Deque, Dict, Optional, Set

from .metrics import MetricsRegistry

__all__ = ["JobStream", "RecordBridge", "Subscription", "WorkerRecordSink"]

# Per-subscriber queue depth: beyond this, new records are dropped for
# that subscriber only (slow-consumer policy).
SUBSCRIBER_QUEUE_DEPTH = 1024
# Most-recent records replayed to late subscribers.
REPLAY_BUFFER_DEPTH = 512


class Subscription(asyncio.Queue[Optional[Dict[str, Any]]]):
    """One consumer's bounded record queue and its own drop count.

    Yields record dicts, then a ``None`` sentinel once the stream has
    closed.  ``dropped`` counts every record of the stream this consumer
    will never get: overflow of its queue, and records evicted from the
    replay buffer before it subscribed.
    """

    def __init__(self) -> None:
        super().__init__(maxsize=SUBSCRIBER_QUEUE_DEPTH)
        self.dropped = 0

    def offer(self, record: Dict[str, Any]) -> bool:
        """Enqueue without waiting; False (and counted) when full."""
        try:
            self.put_nowait(record)
        except asyncio.QueueFull:
            self.dropped += 1
            return False
        return True

    def end(self) -> int:
        """Enqueue the sentinel, evicting the oldest record if full.

        Returns the number of records evicted (0 or 1).
        """
        evicted = int(self.full())
        if evicted:
            self.get_nowait()
            self.dropped += 1
        self.put_nowait(None)
        return evicted


class JobStream:
    """One job's record channel: replay buffer plus live subscribers."""

    def __init__(self, job_id: str,
                 replay_depth: int = REPLAY_BUFFER_DEPTH) -> None:
        self.job_id = job_id
        self.buffer: Deque[Dict[str, Any]] = collections.deque(
            maxlen=replay_depth)
        self.received = 0          # records the bridge routed to this job
        self.dropped = 0           # records dropped across all subscribers
        self.truncated = 0         # records evicted from the replay buffer
        self.closed = False
        self.expected: Optional[int] = None  # set by finish()
        self.worker_done = False   # the worker connection reached EOF
        self._subscribers: Set[Subscription] = set()

    def publish(self, record: Dict[str, Any]) -> int:
        """Route one record; returns how many subscribers dropped it.

        A closed stream takes no more records: its subscribers already
        have their sentinel and its counts are final.
        """
        if self.closed:
            return 0
        self.received += 1
        if self.buffer.maxlen and len(self.buffer) == self.buffer.maxlen:
            self.truncated += 1
        self.buffer.append(record)
        dropped = 0
        for queue in self._subscribers:
            if not queue.offer(record):
                dropped += 1
        self.dropped += dropped
        self._close_if_drained()
        return dropped

    def finish(self, expected: int) -> None:
        """The job is terminal and its worker forwarded ``expected`` records.

        The stream closes as soon as those records have all arrived or
        the worker connection has ended.
        """
        self.expected = expected
        self._close_if_drained()

    def end_of_worker(self) -> None:
        """The worker's bridge connection reached EOF."""
        self.worker_done = True
        self._close_if_drained()

    def _close_if_drained(self) -> None:
        if self.expected is not None and (
                self.worker_done or self.received >= self.expected):
            self.close()

    def close(self) -> None:
        """No more records will arrive; wake every subscriber with EOF."""
        if self.closed:
            return
        self.closed = True
        for queue in self._subscribers:
            self.dropped += queue.end()

    def subscribe(self) -> Subscription:
        """Attach a consumer: replay the buffer, then live records."""
        queue = Subscription()
        queue.dropped = self.truncated
        for record in self.buffer:
            if not queue.offer(record):
                self.dropped += 1
        if self.closed:
            self.dropped += queue.end()
        else:
            self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: Subscription) -> None:
        self._subscribers.discard(queue)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)


class RecordBridge:
    """The server half: a Unix-socket ingest routing records to streams."""

    def __init__(self, path: str,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.path = path
        self._streams: Dict[str, JobStream] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        registry = metrics or MetricsRegistry()
        self.records_total = registry.counter(
            "repro_records_streamed_total",
            "Structured records received from job workers")
        self.drops_total = registry.counter(
            "repro_records_dropped_total",
            "Records dropped on slow subscriber queues",
            ("reason",))

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(
            self._handle_worker, path=self.path)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for stream in self._streams.values():
            stream.close()

    # ------------------------------------------------------------- streams

    def stream_for(self, job_id: str) -> JobStream:
        """The (created-on-first-use) record stream of one job."""
        stream = self._streams.get(job_id)
        if stream is None:
            stream = self._streams[job_id] = JobStream(job_id)
        return stream

    def finish_stream(self, job_id: str, expected: int) -> None:
        """Close one job's stream once its ``expected`` records are in."""
        stream = self._streams.get(job_id)
        if stream is not None:
            stream.finish(expected)

    def forget_stream(self, job_id: str) -> None:
        stream = self._streams.pop(job_id, None)
        if stream is not None:
            stream.close()

    # -------------------------------------------------------------- ingest

    async def _handle_worker(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One worker connection: handshake line, then record lines."""
        stream: Optional[JobStream] = None
        try:
            handshake = await reader.readline()
            if not handshake:
                return
            try:
                hello = json.loads(handshake)
                job_id = str(hello["job"])
            except (ValueError, KeyError, TypeError):
                return  # not a worker of ours; drop the connection
            stream = self.stream_for(job_id)
            async for line in _lines(reader):
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn line at worker crash; skip
                if not isinstance(record, dict):
                    continue
                self.records_total.inc()
                dropped = stream.publish(record)
                if dropped:
                    self.drops_total.inc(dropped, reason="slow_consumer")
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # worker died mid-line; the job result reports the error
        finally:
            writer.close()
            if stream is not None:
                stream.end_of_worker()


async def _lines(reader: asyncio.StreamReader) -> AsyncIterator[bytes]:
    while True:
        line = await reader.readline()
        if not line:
            return
        yield line


class WorkerRecordSink:
    """The worker half: JSON-lines over the bridge's Unix socket.

    Synchronous and blocking by design (see the module docstring).
    Construction performs the connect + handshake; ``send`` writes one
    record line.  Any socket failure raises ``OSError``, which the
    :class:`~repro.runtime.events.RecordForwarder` treats as "consumer
    went away": it stops forwarding but the job keeps running.
    """

    def __init__(self, path: str, job_id: str) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.connect(path)
            self._sock.sendall(
                json.dumps({"job": job_id}).encode("utf-8") + b"\n")
        except OSError:
            self._sock.close()
            raise

    def send(self, record: Dict[str, Any]) -> None:
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        self._sock.sendall(payload + b"\n")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never fails on Linux
            pass
