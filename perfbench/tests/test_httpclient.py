"""The open-loop client against stub servers: lateness and failure counting."""

import asyncio

import pytest

from perfbench.httpclient import Planned, open_loop


async def _serve(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _read_request(reader):
    while (await reader.readline()) not in (b"\r\n", b"\n", b""):
        pass


def _respond(status, delay=0.0):
    async def handler(reader, writer):
        await _read_request(reader)
        await asyncio.sleep(delay)
        body = b"{}"
        writer.write(
            f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await writer.drain()
        writer.close()

    return handler


async def _close_without_reply(reader, writer):
    await _read_request(reader)
    writer.close()


def _run(handler, plan, max_in_flight=1, **kwargs):
    async def main():
        server, port = await _serve(handler)
        try:
            return await open_loop("127.0.0.1", port, plan, max_in_flight, **kwargs)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def _plan(n, period):
    return [Planned(i * period, "submit", "GET", "/x") for i in range(n)]


def test_lateness_accumulates_behind_a_slow_server():
    # 10 requests due every 10 ms, one slot, 50 ms per request: request i
    # cannot be sent before i earlier ones finished, so it runs ~40*i ms late.
    result = _run(_respond(200, delay=0.05), _plan(10, 0.01))
    assert not result.failures
    assert result.max_in_flight == 1
    by_due = sorted(result.outcomes, key=lambda o: o.due)
    lates = [o.late for o in by_due]
    assert lates[0] < 0.03
    assert all(b >= a - 0.005 for a, b in zip(lates, lates[1:]))
    assert lates[-1] == pytest.approx(9 * 0.04, abs=0.06)
    assert result.max_late == max(lates)
    for o in by_due:  # latency counts from the due time, so includes the wait
        assert o.latency >= o.late + 0.045


def test_requests_keep_their_schedule_when_the_server_keeps_up():
    result = _run(_respond(200), _plan(10, 0.02), max_in_flight=2)
    assert not result.failures
    assert result.max_late < 0.015


def test_non_200_responses_count_as_failures():
    result = _run(_respond(500), _plan(5, 0.005), max_in_flight=2)
    assert len(result.outcomes) == 5
    assert len(result.failures) == 5
    assert {o.status for o in result.failures} == {500}


def test_closed_connections_count_as_failures():
    result = _run(_close_without_reply, _plan(4, 0.005), max_in_flight=2)
    assert len(result.failures) == 4
    assert all(o.status is None and o.error for o in result.failures)


def test_a_failed_body_check_counts_as_failure():
    result = _run(_respond(200), _plan(3, 0.005), check=lambda o: "bad quote")
    assert [o.error for o in result.failures] == ["bad quote"] * 3


def test_resolve_can_skip_requests():
    plan = _plan(4, 0.005)
    result = _run(_respond(200), plan, resolve=lambda p: p if p.due > 0.006 else None)
    assert result.skipped == 2
    assert len(result.outcomes) == 2
