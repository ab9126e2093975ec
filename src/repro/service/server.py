"""The asyncio-streams HTTP/1.1 front end of the control plane.

Stdlib only: requests are parsed straight off an ``asyncio`` stream
reader (request line, headers, ``Content-Length`` body), every response
closes its connection, and the record stream uses Server-Sent Events —
delimited by connection close, so no chunked encoding is needed.

Routes:

=============================  ==========================================
``POST   /jobs``               submit a JobSpec JSON body → 202 + job doc
``GET    /jobs``               list known jobs (newest last, no results)
``GET    /jobs/{id}``          one job's status/result document
``DELETE /jobs/{id}``          cancel (exact while pending, best-effort
                               while running)
``GET    /jobs/{id}/records``  live SSE record stream (see below)
``GET    /metrics``            Prometheus text exposition
``GET    /healthz``            liveness probe
``GET    /``                   service/version/scenario discovery doc
=============================  ==========================================

SSE schema: each record arrives as ::

    event: record
    data: {"kind": "...", ...sanitized record fields...}

with ``: keepalive`` comment lines during quiet stretches and a final ::

    event: end
    data: {"job": "<id>", "state": "done", "streamed": N, "dropped": M}

block once the job reaches a terminal state and its stream drains.
``dropped`` is this subscriber's own count, so ``streamed`` equals the
records it received plus ``dropped``.  Subscribers joining late replay
the job's bounded record buffer first, so a fast job's records are
still observable after it finished.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..runtime.runner import JobSpecError, JobSpec
from ..runtime.scenario import canonical_json, scenario_names
from .jobs import JobManager, JobQueueFull
from .metrics import MetricsRegistry
from .streams import RecordBridge

__all__ = ["ControlPlane", "ControlPlaneConfig", "serve_forever"]

MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 8 * 1024 * 1024
SSE_KEEPALIVE_SECONDS = 10.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


@dataclass
class ControlPlaneConfig:
    """Everything ``python -m repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 8388
    workers: int = 2
    queue_size: int = 64
    cache_root: Optional[str] = None   # None = no shared result cache
    stream_socket: Optional[str] = None  # None = auto temp path
    keep_jobs: int = 256
    drain_timeout: float = 30.0


class _BadRequest(Exception):
    """Malformed HTTP from the client; mapped to a 400."""


class ControlPlane:
    """Wires the HTTP server to a JobManager, RecordBridge, and metrics."""

    def __init__(self, config: ControlPlaneConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total", "HTTP requests served, by route",
            ("route", "status"))
        self._m_sse = self.metrics.gauge(
            "repro_sse_clients", "Record-stream subscribers connected now")
        self._stream_dir: Optional[tempfile.TemporaryDirectory] = None
        path = config.stream_socket
        if path is None:
            self._stream_dir = tempfile.TemporaryDirectory(
                prefix="repro-service-")
            path = os.path.join(self._stream_dir.name, "records.sock")
        self.bridge = RecordBridge(path, metrics=self.metrics)
        self.manager = JobManager(
            workers=config.workers, queue_size=config.queue_size,
            cache_root=config.cache_root, bridge=self.bridge,
            metrics=self.metrics, keep_jobs=config.keep_jobs)
        self._server: Optional[asyncio.AbstractServer] = None

    # ----------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The actually-bound TCP port (for ``port=0`` test servers)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        await self.bridge.start()
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.drain(timeout=self.config.drain_timeout)
        await self.bridge.stop()
        if self._stream_dir is not None:
            self._stream_dir.cleanup()
            self._stream_dir = None

    # ------------------------------------------------------------- serving

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        route = "unparsed"
        try:
            try:
                method, path, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
            except _BadRequest as exc:
                await self._respond_json(writer, 400, {"error": str(exc)})
                self._m_requests.inc(route="bad", status="400")
                return
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            route, handler, args = self._route(method, path)
            if handler is None:
                status, doc = 404, {"error": f"no route for {method} {path}"}
                await self._respond_json(writer, status, doc)
            elif asyncio.iscoroutinefunction(handler):
                # SSE: the (async) handler owns the writer until disconnect.
                status = await handler(writer, *args)
            else:
                status, doc = handler(body, *args)
                await self._respond_json(writer, status, doc)
            self._m_requests.inc(route=route, status=str(status))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                writer.close()
                await writer.wait_closed()

    async def _read_head(self, reader: asyncio.StreamReader,
                         ) -> Tuple[str, str, Dict[str, str]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head too large")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise
            raise _BadRequest("truncated request head")
        if len(head) > MAX_HEADER_BYTES:
            raise _BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            if ":" not in line:
                raise _BadRequest(f"malformed header line {line!r}")
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: Mapping[str, str]) -> bytes:
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest(f"bad Content-Length {length_text!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(f"unacceptable Content-Length {length}")
        if length == 0:
            return b""
        return await reader.readexactly(length)

    def _route(self, method: str, path: str):
        """(metric route label, handler, extra args) for one request."""
        path = path.split("?", 1)[0]
        if path == "/jobs":
            if method == "POST":
                return "jobs.submit", self._handle_submit, ()
            if method == "GET":
                return "jobs.list", self._handle_list, ()
            return "jobs", None, ()
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if rest.endswith("/records") and method == "GET":
                return ("jobs.records", self._handle_records,
                        (rest[:-len("/records")],))
            if "/" not in rest:
                if method == "GET":
                    return "jobs.get", self._handle_get, (rest,)
                if method == "DELETE":
                    return "jobs.cancel", self._handle_cancel, (rest,)
            return "jobs", None, ()
        if path == "/metrics" and method == "GET":
            return "metrics", self._handle_metrics, ()
        if path == "/healthz" and method == "GET":
            return "healthz", self._handle_healthz, ()
        if path == "/" and method == "GET":
            return "index", self._handle_index, ()
        return "unknown", None, ()

    # ------------------------------------------------------------ handlers

    def _handle_submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            data = json.loads(body or b"{}")
        except ValueError:
            return 400, {"error": "request body is not valid JSON"}
        try:
            spec = JobSpec.from_dict(data)
        except JobSpecError as exc:
            return 400, {"error": str(exc)}
        try:
            job = self.manager.submit(spec)
        except JobQueueFull as exc:
            return 503, {"error": str(exc)}
        return 202, job.to_dict(include_result=False)

    def _handle_list(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        return 200, {"jobs": [job.to_dict(include_result=False)
                              for job in self.manager.jobs()]}

    def _handle_get(self, body: bytes,
                    job_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self.manager.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.to_dict()

    def _handle_cancel(self, body: bytes,
                       job_id: str) -> Tuple[int, Dict[str, Any]]:
        job = self.manager.cancel(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.to_dict(include_result=False)

    def _handle_metrics(self, body: bytes) -> Tuple[int, str]:
        return 200, self.metrics.render()

    def _handle_healthz(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        return 200, {"status": "ok"}

    def _handle_index(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        import repro

        return 200, {
            "service": "repro-control-plane",
            "version": getattr(repro, "__version__", "unknown"),
            "scenarios": scenario_names(),
            "endpoints": [
                "POST /jobs", "GET /jobs", "GET /jobs/{id}",
                "DELETE /jobs/{id}", "GET /jobs/{id}/records",
                "GET /metrics", "GET /healthz",
            ],
        }

    # ------------------------------------------------------------- the SSE

    async def _handle_records(self, writer: asyncio.StreamWriter,
                              job_id: str) -> int:
        job = self.manager.get(job_id)
        if job is None:
            await self._respond_json(
                writer, 404, {"error": f"unknown job {job_id!r}"})
            return 404
        assert job.stream is not None, "service jobs always carry a stream"
        queue = job.stream.subscribe()
        self._m_sse.inc()
        try:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Cache-Control: no-cache\r\n"
                         b"Connection: close\r\n\r\n")
            writer.write(b"retry: 2000\n\n")
            await writer.drain()
            while True:
                try:
                    record = await asyncio.wait_for(
                        queue.get(), timeout=SSE_KEEPALIVE_SECONDS)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if record is None:
                    break
                payload = canonical_json(record)
                writer.write(b"event: record\ndata: "
                             + payload.encode("utf-8") + b"\n\n")
                await writer.drain()
            end = {"job": job.id, "state": job.state,
                   "streamed": job.stream.received,
                   "dropped": queue.dropped}
            writer.write(b"event: end\ndata: "
                         + canonical_json(end).encode("utf-8") + b"\n\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; unsubscribe below
        finally:
            job.stream.unsubscribe(queue)
            self._m_sse.dec()
        return 200

    # ------------------------------------------------------------ plumbing

    async def _respond_json(self, writer: asyncio.StreamWriter, status: int,
                            doc: Any) -> None:
        if isinstance(doc, str):
            body = doc.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (canonical_json(doc) + "\n").encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


async def serve_forever(config: ControlPlaneConfig, *,
                        ready: Optional[asyncio.Event] = None) -> None:
    """Run a control plane until SIGINT/SIGTERM, then drain gracefully.

    ``ready`` (optional) is set once the server is accepting — test
    harnesses wait on it instead of polling the port.
    """
    plane = ControlPlane(config)
    await plane.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop.set)
    print(f"repro control plane listening on "
          f"http://{config.host}:{plane.port} "
          f"({config.workers} worker(s), queue {config.queue_size}, "
          f"cache {config.cache_root or 'disabled'})",
          flush=True)
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        print("repro control plane draining...", flush=True)
        await plane.stop()
