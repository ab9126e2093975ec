"""Closed-loop load on the HTTP control plane (``python -m repro serve``).

Each client thread holds one connection at a time: it POSTs a small
uncached job, reads the job's SSE record stream until the ``end``
event, fetches the job document to check its result digest, and only
then submits its next job.  Latency is POST to ``end`` as the client
sees it; nothing here polls.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import pins

SCENARIO = "quickstart"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def job_digest(merged: dict) -> str:
    """sha256 of the merged result document as ``JobResult.canonical_bytes``."""
    text = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return pins.digest(text.encode("utf-8"))


@dataclass
class JobSample:
    seed: int
    job_id: str = ""
    latency_s: float = 0.0            # POST sent -> SSE end received
    ended: float = 0.0                # perf_counter() at the SSE end event
    first_record_s: Optional[float] = None
    received: int = 0                 # SSE record events read
    streamed: int = 0                 # end event: records routed to the job
    dropped: int = 0                  # end event: dropped for slow consumers
    state: str = ""
    digest: str = ""
    doc: Dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    error: str = ""

    @property
    def lost(self) -> int:
        return self.streamed - self.received - self.dropped


class Server:
    """One ``serve`` process on an ephemeral port, plus its worker pids."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: str,
                 boot_timeout: float = 60.0) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True)
        self.port = self._read_port(boot_timeout)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        buffer = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffer += chunk
            for line in buffer.decode("utf-8", "replace").splitlines():
                if "listening on http://" in line:
                    address = line.split("listening on http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("control plane did not report a listening port")

    def pids(self) -> List[int]:
        """The server and every live process whose parent it is."""
        found = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                found.append(int(entry))
        return found

    def cpu_s(self) -> float:
        """User+system CPU seconds of the server and its workers so far."""
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of peak resident set sizes of the server and its workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then kill the session if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=timeout)
        # Pool workers share the server's process group and may outlive a
        # drain (the pool shuts down without waiting): kill any straggler
        # and wait until the group is gone.
        deadline = time.monotonic() + timeout
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            while time.monotonic() < deadline:
                os.killpg(self.proc.pid, 0)
                time.sleep(0.02)
        except ProcessLookupError:
            pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _request(port: int, method: str, path: str, body: Optional[bytes] = None,
             timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    return conn, conn.getresponse()


def run_job(port: int, seed: int) -> JobSample:
    """Submit one job, follow its record stream to ``end``, fetch its result."""
    sample = JobSample(seed=seed)
    spec = {"scenario": SCENARIO, "seeds": [seed], "use_cache": False}
    started = time.perf_counter()
    conn, resp = _request(port, "POST", "/jobs", json.dumps(spec).encode())
    body = resp.read()
    conn.close()
    if resp.status != 202:
        sample.error = f"submit returned {resp.status}: {body[:200]!r}"
        return sample
    sample.job_id = json.loads(body)["id"]

    conn, resp = _request(port, "GET", f"/jobs/{sample.job_id}/records")
    event = None
    end = None
    try:
        while True:
            line = resp.readline()
            if not line:
                break
            line = line.rstrip(b"\r\n")
            if line.startswith(b"event: "):
                event = line[7:]
            elif line.startswith(b"data: "):
                if event == b"record":
                    if sample.received == 0:
                        sample.first_record_s = time.perf_counter() - started
                    sample.received += 1
                elif event == b"end":
                    sample.ended = time.perf_counter()
                    sample.latency_s = sample.ended - started
                    end = json.loads(line[6:])
                    break
    finally:
        conn.close()
    if end is None:
        sample.error = "record stream closed without an end event"
        return sample
    sample.streamed = int(end.get("streamed", 0))
    sample.dropped = int(end.get("dropped", 0))

    conn, resp = _request(port, "GET", f"/jobs/{sample.job_id}")
    doc = json.loads(resp.read())
    conn.close()
    sample.state = doc.get("state", "")
    sample.doc = {key: doc.get(key) for key in
                  ("submitted", "started", "finished", "wall_time")}
    if doc.get("result") is not None:
        sample.digest = job_digest(doc["result"])
        sample.counters = dict(doc["result"].get("events") or {})
    return sample


def closed_loop(port: int, seeds: Iterator[int], clients: int,
                deadline: Optional[float] = None,
                count: Optional[int] = None) -> List[JobSample]:
    """Run ``clients`` closed-loop clients until ``deadline`` or ``count`` jobs.

    ``deadline`` is a ``time.perf_counter()`` value after which no client
    submits another job; ``count`` caps the number of jobs submitted.
    Samples come back in submission order.
    """
    lock = threading.Lock()
    samples: List[JobSample] = []
    submitted = [0]

    def next_seed() -> Optional[int]:
        with lock:
            if count is not None and submitted[0] >= count:
                return None
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            submitted[0] += 1
            return next(seeds)

    def client() -> None:
        while True:
            seed = next_seed()
            if seed is None:
                return
            try:
                sample = run_job(port, seed)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                sample = JobSample(seed=seed, error=f"{type(exc).__name__}: {exc}")
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load client did not finish")
    return samples


def serve_argv(out_dir: str, trace: bool = False) -> List[str]:
    """The server command line: ``serve`` under the probing launcher."""
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "serve.py"), out_dir,
            *(["--trace"] if trace else []),
            "serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
            "--no-cache"]
