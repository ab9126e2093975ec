"""JobStream fan-out semantics: replay, slow consumers, EOF."""

import asyncio

from repro.service.streams import JobStream


def _run(coro):
    return asyncio.run(coro)


def test_publish_reaches_every_subscriber():
    async def scenario():
        stream = JobStream("j1")
        a, b = stream.subscribe(), stream.subscribe()
        stream.publish({"kind": "probe"})
        stream.close()
        assert [await a.get(), await a.get()] == [{"kind": "probe"}, None]
        assert [await b.get(), await b.get()] == [{"kind": "probe"}, None]
        assert stream.received == 1 and stream.dropped == 0

    _run(scenario())


def test_late_subscriber_replays_buffer_then_eof():
    async def scenario():
        stream = JobStream("j1")
        for i in range(3):
            stream.publish({"n": i})
        stream.close()
        queue = stream.subscribe()  # after close: replay + sentinel
        got = [await queue.get() for _ in range(4)]
        assert got == [{"n": 0}, {"n": 1}, {"n": 2}, None]
        assert stream.subscriber_count == 0  # never attached live

    _run(scenario())


def test_replay_buffer_is_bounded_and_counts_truncation():
    async def scenario():
        stream = JobStream("j1", replay_depth=2)
        for i in range(5):
            stream.publish({"n": i})
        assert list(stream.buffer) == [{"n": 3}, {"n": 4}]
        assert stream.truncated == 3
        stream.close()
        queue = stream.subscribe()
        assert [await queue.get() for _ in range(3)] \
            == [{"n": 3}, {"n": 4}, None]

    _run(scenario())


def test_slow_consumer_drops_are_counted_not_blocking():
    async def scenario():
        stream = JobStream("j1")
        slow = stream.subscribe()
        depth = slow.maxsize
        for i in range(depth + 5):
            stream.publish({"n": i})
        # The overflow is dropped for the stalled subscriber and
        # counted; the stream itself keeps accepting records.
        assert stream.dropped == 5
        assert slow.qsize() == depth
        assert stream.received == depth + 5
        # A consumer that keeps draining misses nothing.
        fast = stream.subscribe()  # replays the buffered tail
        replayed = fast.qsize()
        stream.publish({"n": "live"})
        assert fast.qsize() == replayed + 1

    _run(scenario())


def test_unsubscribe_detaches_and_close_is_idempotent():
    async def scenario():
        stream = JobStream("j1")
        queue = stream.subscribe()
        stream.unsubscribe(queue)
        stream.publish({"n": 1})
        assert queue.empty()
        stream.close()
        stream.close()  # second close must be a no-op
        assert stream.closed

    _run(scenario())


def _drain(queue):
    """Every record a subscription yields up to (not including) EOF."""
    async def collect():
        got = []
        while True:
            item = await asyncio.wait_for(queue.get(), timeout=5.0)
            if item is None:
                return got
            got.append(item)

    return collect()


def test_finish_waits_for_the_forwarded_records():
    async def scenario():
        stream = JobStream("j1")
        queue = stream.subscribe()
        stream.finish(expected=3)   # the job ended; 3 records in flight
        assert not stream.closed
        for i in range(3):
            stream.publish({"n": i})
        assert stream.closed        # closed by the last expected record
        assert await _drain(queue) == [{"n": 0}, {"n": 1}, {"n": 2}]

    _run(scenario())


def test_worker_eof_closes_a_finished_stream_short_of_expected():
    async def scenario():
        stream = JobStream("j1")
        queue = stream.subscribe()
        stream.publish({"n": 0})
        stream.end_of_worker()      # EOF alone: the job may still run
        assert not stream.closed
        stream.finish(expected=2)   # a torn last line never arrived
        assert stream.closed
        assert await _drain(queue) == [{"n": 0}]
        stream.publish({"n": "late"})
        assert stream.received == 1  # a closed stream's counts are final

    _run(scenario())


def test_every_subscriber_accounts_for_every_record():
    # streamed == delivered + dropped for each subscriber: one that keeps
    # up, one that stalls past its queue depth (and is still full when
    # the stream closes), and one that joins after the replay buffer has
    # already evicted records.
    async def scenario():
        stream = JobStream("j1", replay_depth=4)
        fast, slow = stream.subscribe(), stream.subscribe()
        delivered = {"fast": []}
        for i in range(slow.maxsize + 7):
            stream.publish({"n": i})
            delivered["fast"].append(await fast.get())
        late = stream.subscribe()
        stream.finish(expected=stream.received)
        assert stream.closed
        delivered["fast"] += await _drain(fast)
        delivered["slow"] = await _drain(slow)
        delivered["late"] = await _drain(late)
        for name, queue in (("fast", fast), ("slow", slow), ("late", late)):
            assert len(delivered[name]) + queue.dropped == stream.received, name
        assert fast.dropped == 0
        assert slow.dropped == 8    # 7 overflowed + 1 evicted for EOF
        assert late.dropped == stream.truncated
        assert stream.dropped == slow.dropped

    _run(scenario())


def test_job_done_before_its_records_are_read_loses_none(monkeypatch):
    # Force the ordering behind lost records: the pool future completes
    # while every record line of the job still sits unread on the bridge
    # socket.  The stream must stay open until those lines are read.
    import concurrent.futures
    import os
    import shutil
    import tempfile

    from repro.runtime.runner import JobSpec
    from repro.service import jobs
    from repro.service.jobs import JobManager, JobState
    from repro.service.streams import RecordBridge, WorkerRecordSink

    n_records = 40

    def worker(payload):
        sink = WorkerRecordSink(payload["stream_path"], payload["job_id"])
        for i in range(n_records):
            sink.send({"kind": "probe", "n": i})
        sink.close()
        return {"ok": False, "error": "stub worker",
                "records": {"forwarded": n_records, "dropped": 0}}

    monkeypatch.setattr(jobs, "_job_worker", worker)

    async def scenario(sock_dir):
        bridge = RecordBridge(os.path.join(sock_dir, "records.sock"))
        gate = asyncio.Event()
        handle = bridge._handle_worker

        async def gated(reader, writer):
            await gate.wait()       # hold every worker line unread
            await handle(reader, writer)

        bridge._handle_worker = gated
        await bridge.start()
        manager = JobManager(workers=1, bridge=bridge)
        await manager.start()
        manager._pool.shutdown()
        manager._pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        try:
            job = manager.submit(JobSpec(scenario="quickstart"))
            queue = job.stream.subscribe()
            for _ in range(500):
                if job.state in JobState.TERMINAL:
                    break
                await asyncio.sleep(0.01)
            assert job.state in JobState.TERMINAL
            assert job.records_forwarded == n_records
            assert job.stream.received == 0
            assert not job.stream.closed
            gate.set()
            records = await _drain(queue)
            assert [r["n"] for r in records] == list(range(n_records))
            assert job.stream.received == n_records
            assert queue.dropped == 0
        finally:
            gate.set()
            await manager.drain(timeout=5.0)
            await bridge.stop()

    sock_dir = tempfile.mkdtemp(prefix="rs")   # short: AF_UNIX path limit
    try:
        _run(scenario(sock_dir))
    finally:
        shutil.rmtree(sock_dir, ignore_errors=True)
