"""Sync core, asyncio shell, and HTTP endpoint of the scheduler service."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.clocks import ManualServiceClock
from repro.obs.export import validate_openmetrics
from repro.obs.timeseries import WallSeriesSampler, read_series_jsonl
from repro.service.admission import AdmissionConfig
from repro.service.batching import BatchingConfig
from repro.service.loadgen import _http_json
from repro.service.schemas import JobSpec
from repro.service.server import SchedulerService, ServiceConfig
from repro.workload.entities import make_uniform_cluster


def service(clock=None, sampler=None, **batching) -> SchedulerService:
    base = dict(max_batch_size=4, max_hold_seconds=1.0, max_pending=6,
                overload_queue_depth=5)
    base.update(batching)
    return SchedulerService(
        resources=make_uniform_cluster(1, 1, 1),
        config=ServiceConfig(
            batching=BatchingConfig(**base), admission=AdmissionConfig()
        ),
        clock=clock or ManualServiceClock(),
        sampler=sampler,
    )


def spec(job_id: str, maps=(10,), deadline=100) -> JobSpec:
    return JobSpec(job_id=job_id, map_durations=tuple(maps), deadline=deadline)


class TestSyncCore:
    def test_submit_queues_until_pump(self):
        svc = service()
        assert svc.submit_sync(spec("a")) is None
        assert svc.status_sync("a").state == "pending"
        svc.clock.advance(1.0)
        quotes = svc.pump()
        assert [q.job_id for q in quotes] == ["a"]
        assert quotes[0].admitted

    def test_full_batch_quotes_without_waiting(self):
        svc = service(max_batch_size=2)
        svc.submit_sync(spec("a"))
        svc.submit_sync(spec("b", deadline=200))
        # No clock advance needed: the full batch is due immediately.
        assert [q.job_id for q in svc.pump()] == ["a", "b"]

    def test_invalid_payload_quoted_immediately(self):
        quote = service().submit_sync({"job_id": "bad", "map_durations": []})
        assert quote is not None and quote.reason == "invalid"

    def test_duplicate_of_queued_job_rejected(self):
        svc = service()
        assert svc.submit_sync(spec("a")) is None
        dup = svc.submit_sync(spec("a"))
        assert dup is not None and dup.reason == "invalid"

    def test_overload_sheds_above_max_pending(self):
        svc = service(max_pending=2, max_batch_size=10)
        assert svc.submit_sync(spec("a")) is None
        assert svc.submit_sync(spec("b")) is None
        shed = svc.submit_sync(spec("c"))
        assert shed is not None and shed.reason == "overload_shed"

    def test_drain_quotes_everything_pending(self):
        svc = service(max_batch_size=10)
        for i in range(3):
            svc.submit_sync(spec(f"j{i}", deadline=500))
        assert len(svc.drain()) == 3
        assert len(svc.batcher) == 0

    def test_cancel_before_plan_race(self):
        """A job cancelled while still queued must never reach the solver."""
        svc = service()
        assert svc.submit_sync(spec("a")) is None
        assert svc.cancel_sync("a")
        assert svc.status_sync("a").state == "cancelled"
        svc.clock.advance(10.0)
        assert svc.pump() == []  # nothing left to quote
        # And the slot was never committed: a conflicting job fits.
        assert svc.submit_sync(spec("b", maps=(50,), deadline=60)) is None
        assert svc.drain()[0].admitted

    def test_cancel_after_plan_goes_to_controller(self):
        svc = service(max_batch_size=1)
        svc.submit_sync(spec("a", maps=(50,), deadline=60))
        svc.pump()
        assert svc.status_sync("a").state == "admitted"
        assert svc.cancel_sync("a")
        assert svc.status_sync("a").state == "cancelled"

    def test_unknown_job_status_is_none(self):
        assert service().status_sync("ghost") is None

    def test_health_payload(self):
        svc = service()
        svc.submit_sync(spec("a"))
        health = svc.health()
        assert health["status"] == "ok"
        assert health["pending"] == 1
        assert health["committed"] == 0

    def test_metrics_text_is_valid_openmetrics(self):
        svc = service(max_batch_size=1)
        svc.submit_sync(spec("a"))
        svc.pump()
        errors = validate_openmetrics(svc.metrics_text())
        assert errors == []


class TestOverloadFastPath:
    def test_deep_queue_starts_at_cp_limited(self):
        svc = service(max_batch_size=2, overload_queue_depth=2, max_pending=20)
        for i in range(6):
            svc.submit_sync(spec(f"j{i}", deadline=1000))
        quotes = svc.pump()  # queue stays deep behind each flushed batch
        assert any(q.rung == "cp_limited" for q in quotes if q.admitted)


class TestWallSampler:
    def test_pump_samples_on_cadence(self, tmp_path):
        sampler = WallSeriesSampler(interval=1.0)
        svc = service(sampler=sampler, max_batch_size=1)
        svc.submit_sync(spec("a"))
        svc.pump()
        svc.clock.advance(5.0)
        svc.submit_sync(spec("b", deadline=300))
        svc.pump()
        assert len(sampler.store) == 2
        probes = sampler.store.samples[-1]["probes"]
        assert "service.pending" in probes
        assert "service.committed" in probes
        path = tmp_path / "series.jsonl"
        sampler.write_series(str(path))
        meta, samples = read_series_jsonl(str(path))
        assert meta["axis"] == "wall"
        assert len(samples) == 2

    def test_within_interval_not_resampled(self):
        sampler = WallSeriesSampler(interval=10.0)
        svc = service(sampler=sampler, max_batch_size=1)
        svc.submit_sync(spec("a"))
        svc.pump()
        svc.clock.advance(1.0)
        svc.submit_sync(spec("b", deadline=300))
        svc.pump()
        assert len(sampler.store) == 1


class TestAsyncShell:
    def test_submit_resolves_when_batch_flushes(self):
        async def run():
            svc = SchedulerService(
                resources=make_uniform_cluster(1, 1, 1),
                config=ServiceConfig(
                    batching=BatchingConfig(
                        max_batch_size=8, max_hold_seconds=0.01
                    )
                ),
            )
            await svc.start()
            quote = await asyncio.wait_for(svc.submit(spec("a")), timeout=5.0)
            await svc.close()
            return quote

        quote = asyncio.run(run())
        assert quote.admitted

    def test_close_drains_pending_submissions(self):
        async def run():
            svc = SchedulerService(
                resources=make_uniform_cluster(1, 1, 1),
                config=ServiceConfig(
                    batching=BatchingConfig(
                        max_batch_size=100, max_hold_seconds=60.0
                    )
                ),
            )
            await svc.start()
            task = asyncio.create_task(svc.submit(spec("a")))
            await asyncio.sleep(0.01)  # let the submit park on its future
            await svc.close()
            return await asyncio.wait_for(task, timeout=5.0)

        quote = asyncio.run(run())
        assert quote.job_id == "a"
        assert quote.admitted

    def test_async_cancel_before_plan_resolves_submitter(self):
        async def run():
            svc = SchedulerService(
                resources=make_uniform_cluster(1, 1, 1),
                config=ServiceConfig(
                    batching=BatchingConfig(
                        max_batch_size=100, max_hold_seconds=60.0
                    )
                ),
            )
            await svc.start()
            task = asyncio.create_task(svc.submit(spec("a")))
            await asyncio.sleep(0.01)
            cancelled = await svc.cancel("a")
            quote = await asyncio.wait_for(task, timeout=5.0)
            await svc.close()
            return cancelled, quote

        cancelled, quote = asyncio.run(run())
        assert cancelled
        assert not quote.admitted and quote.reason == "cancelled"


class TestHttpEndpoint:
    def test_full_http_session(self):
        async def run():
            svc = SchedulerService(
                resources=make_uniform_cluster(2, 2, 2),
                config=ServiceConfig(
                    batching=BatchingConfig(
                        max_batch_size=8, max_hold_seconds=0.01
                    ),
                    port=0,
                ),
            )
            serve_task = asyncio.create_task(svc.serve())
            while svc.bound_port is None:
                await asyncio.sleep(0.01)
            port = svc.bound_port
            results = {}
            results["health"] = await _http_json(
                "127.0.0.1", port, "GET", "/health"
            )
            results["submit"] = await _http_json(
                "127.0.0.1", port, "POST", "/submit",
                spec("j1", maps=(5, 5), deadline=60).as_dict(),
            )
            results["status"] = await _http_json(
                "127.0.0.1", port, "GET", "/status/j1"
            )
            results["missing"] = await _http_json(
                "127.0.0.1", port, "GET", "/status/ghost"
            )
            results["bad_json"] = await _http_json(
                "127.0.0.1", port, "POST", "/submit", None
            )
            results["cancel"] = await _http_json(
                "127.0.0.1", port, "POST", "/cancel/j1"
            )
            results["shutdown"] = await _http_json(
                "127.0.0.1", port, "POST", "/shutdown"
            )
            await asyncio.wait_for(serve_task, timeout=5.0)
            await asyncio.sleep(0.05)  # let finished handler tasks settle
            leftovers = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()
            ]
            return results, leftovers

        results, leftovers = asyncio.run(run())
        assert results["health"][0] == 200
        status, quote = results["submit"]
        assert status == 200 and quote["admitted"] is True
        assert results["status"][1]["state"] == "admitted"
        assert results["missing"][0] == 404
        assert results["bad_json"][1]["reason"] == "invalid"
        assert results["cancel"] == (200, {"cancelled": True})
        assert results["shutdown"][1] == {"status": "shutting down"}
        # Clean shutdown: no orphan tasks survive the serve() return.
        assert leftovers == []


async def _post_raw(port: int, body: bytes):
    """POST raw bytes to /submit; (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        "POST /submit HTTP/1.1\r\n"
        f"Host: 127.0.0.1:{port}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    return int(head_part.split()[1]), json.loads(body_part)


@pytest.mark.parametrize(
    "body,status",
    [
        (b"[]", 200),
        (b"1", 200),
        (b'"x"', 200),
        (b"\xff", 400),
        (b'{"job_id":"z","map_durations":[1e400],"deadline":9}', 200),
    ],
    ids=["list", "number", "string", "non_utf8", "infinite_duration"],
)
def test_malformed_submit_body_is_a_client_error(body, status):
    """Malformed bodies get the bad-JSON 400 or the ``invalid`` quote,
    never a 500, from the live server."""

    async def run():
        svc = SchedulerService(
            resources=make_uniform_cluster(1, 1, 1),
            config=ServiceConfig(
                batching=BatchingConfig(max_batch_size=1, max_hold_seconds=0.01),
                port=0,
            ),
        )
        serve_task = asyncio.create_task(svc.serve())
        while svc.bound_port is None:
            await asyncio.sleep(0.01)
        try:
            return await _post_raw(svc.bound_port, body)
        finally:
            await _http_json("127.0.0.1", svc.bound_port, "POST", "/shutdown")
            await asyncio.wait_for(serve_task, timeout=5.0)

    got_status, payload = asyncio.run(run())
    assert got_status == status
    if status == 200:
        assert payload["admitted"] is False and payload["reason"] == "invalid"
    else:
        assert payload["error"].startswith("bad JSON")


async def _send_raw(port: int, request: bytes):
    """Send raw request bytes; (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    return int(head_part.split()[1]), json.loads(body_part)


_LONG = b"a" * 70_000  # over the StreamReader's 64 KiB line limit


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"GET /" + _LONG + b" HTTP/1.1\r\n\r\n",
        b"POST /submit HTTP/1.1\r\nX-Pad: " + _LONG + b"\r\n\r\n",
        b"POST /submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
        b"POST /submit HTTP/1.1\r\nContent-Length: two\r\n\r\n{}",
    ],
    ids=["long_request_line", "long_header_line", "negative_length", "bad_length"],
)
def test_malformed_request_head_is_a_client_error(request_bytes):
    """An over-long line or a bad Content-Length gets a 400, never a 500."""

    async def run():
        svc = SchedulerService(
            resources=make_uniform_cluster(1, 1, 1),
            config=ServiceConfig(
                batching=BatchingConfig(max_batch_size=1, max_hold_seconds=0.01),
                port=0,
            ),
        )
        serve_task = asyncio.create_task(svc.serve())
        while svc.bound_port is None:
            await asyncio.sleep(0.01)
        try:
            return await _send_raw(svc.bound_port, request_bytes)
        finally:
            await _http_json("127.0.0.1", svc.bound_port, "POST", "/shutdown")
            await asyncio.wait_for(serve_task, timeout=5.0)

    status, payload = asyncio.run(run())
    assert status == 400
    assert "error" in payload


class TestJsonOverHttpParity:
    def test_quote_round_trips_through_json(self):
        svc = service(max_batch_size=1)
        svc.submit_sync(spec("a"))
        (quote,) = svc.pump()
        from repro.service.schemas import SlaQuote

        assert SlaQuote.from_dict(
            json.loads(json.dumps(quote.as_dict()))
        ).verdict_key() == quote.verdict_key()
