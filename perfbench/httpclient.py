"""A single-process open-loop HTTP/1.1 client.

Requests are due on a fixed schedule whatever the server does.  At most
``max_in_flight`` are outstanding; a request whose slot is still busy
when it falls due is sent late, and the wait counts against it:

* ``late``    = sent - due   (how far behind schedule the generator ran),
* ``latency`` = done - due   (what a user arriving on schedule would see).

Any response other than 200, a timeout, a connection error, and a 200
whose body fails the caller's check each count as a failure.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Planned:
    """One scheduled request (``due`` in seconds from the start)."""

    due: float
    kind: str
    method: str
    path: str
    body: Optional[bytes] = None


@dataclass
class Outcome:
    """What happened to one sent request (times in seconds from the start)."""

    kind: str
    path: str
    due: float
    sent: float
    done: float
    status: Optional[int] = None
    body: bytes = b""
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def late(self) -> float:
        return self.sent - self.due

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class LoadResult:
    outcomes: List[Outcome] = field(default_factory=list)
    max_in_flight: int = 0
    #: planned requests the generator skipped (``resolve`` returned None)
    skipped: int = 0

    @property
    def failures(self) -> List[Outcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def max_late(self) -> float:
        return max((o.late for o in self.outcomes), default=0.0)


async def request(
    host: str, port: int, method: str, path: str, body: Optional[bytes], timeout: float
) -> Tuple[int, bytes]:
    """One HTTP/1.1 request on a fresh connection: (status, body)."""

    async def exchange() -> Tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            payload = body or b""
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode() + payload)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.split()
            if len(parts) < 2:
                raise ConnectionError(f"malformed status line {status_line!r}")
            status = int(parts[1])
            length = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            data = await (reader.readexactly(length) if length is not None else reader.read())
            return status, data
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(exchange(), timeout)


async def open_loop(
    host: str,
    port: int,
    plan: Sequence[Planned],
    max_in_flight: int,
    timeout: float = 30.0,
    resolve: Optional[Callable[[Planned], Optional[Planned]]] = None,
    check: Optional[Callable[[Outcome], Optional[str]]] = None,
) -> LoadResult:
    """Send ``plan`` (sorted by ``due``) open-loop; returns every outcome.

    ``resolve`` may rewrite a request when it is sent (for example to
    read the status of a job whose quote has already arrived) or return
    None to skip it.  ``check`` inspects a 200 response and returns a
    problem description to count it as failed.
    """
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(max_in_flight)
    result = LoadResult()
    in_flight = 0
    start = loop.time() + 0.05
    tasks: List["asyncio.Task[None]"] = []

    async def send(item: Planned, sent: float) -> None:
        nonlocal in_flight
        outcome = Outcome(item.kind, item.path, item.due, sent, sent)
        try:
            outcome.status, outcome.body = await request(
                host, port, item.method, item.path, item.body, timeout
            )
        except (OSError, EOFError, ValueError, asyncio.TimeoutError) as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
        finally:
            outcome.done = loop.time() - start
            in_flight -= 1
            slots.release()
        if outcome.ok and check is not None:
            outcome.error = check(outcome)
        result.outcomes.append(outcome)

    for planned in plan:
        delay = start + planned.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        item = resolve(planned) if resolve is not None else planned
        if item is None:
            slots.release()
            result.skipped += 1
            continue
        in_flight += 1
        result.max_in_flight = max(result.max_in_flight, in_flight)
        tasks.append(asyncio.create_task(send(item, loop.time() - start)))
    for task in tasks:
        await task
    return result


def json_body(outcome: Outcome) -> dict:
    return json.loads(outcome.body.decode())
