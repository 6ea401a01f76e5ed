"""The admission-service workloads: ``service_replay`` and ``service_http``.

``service_replay`` drives the service's synchronous core under a manual
clock, so its verdicts are deterministic and checkable; ``service_http``
drives a real server process over HTTP with an open-loop client.
"""

from __future__ import annotations

import asyncio
import json
import random
import selectors
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench import stats
from perfbench.httpclient import LoadResult, Outcome, Planned, json_body, open_loop, request
from perfbench.report import Result, growth
from perfbench.serve import ROOT, SUMMARY_TAG

# --------------------------------------------------------------- replay

#: Submissions per pass and their mean arrival rate (1/s of service time).
REPLAY_REQUESTS = 3000
REPLAY_RATE = 0.1
#: Wall seconds of one pass on a 2-vCPU box (sizes a run).
REPLAY_PASS_SECONDS = 6.5
#: A 40 s run's six passes (18,000 quotes) support p99.9 (18 beyond).
REPLAY_TAIL_PM = 999
#: Service verdicts that refuse rather than answer a submission.
REFUSALS = ("overload_shed", "invalid", "duplicate")


def replay_stream(seed: int):
    from repro.service.loadgen import LoadProfile, generate_request_stream

    profile = LoadProfile(requests=REPLAY_REQUESTS, seed=seed, arrival_rate=REPLAY_RATE)
    return generate_request_stream(profile, (8, 8))


def _replay_service(clock):
    from repro.service.server import SchedulerService, ServiceConfig
    from repro.workload import make_uniform_cluster

    return SchedulerService(resources=make_uniform_cluster(4), config=ServiceConfig(), clock=clock)


def setup_replay(seed: int) -> None:
    from repro.obs.clocks import ManualServiceClock

    replay_stream(seed)
    _replay_service(ManualServiceClock())


def replay_pass(stream) -> Tuple[list, List[float], float]:
    """One pass over ``stream``: (quotes, per-quote wall ms, pass seconds).

    The loop is the one the in-process load harness runs: due batches are
    pumped at their due time before each offer, and the queue is drained
    at the end.  Each quote is charged the wall time of the sync-core call
    that produced it, split evenly across a batch.
    """
    from repro.obs.clocks import ManualServiceClock

    clock = ManualServiceClock()
    service = _replay_service(clock)
    quotes: list = []
    quote_ms: List[float] = []

    def timed(call) -> None:
        t0 = time.perf_counter()
        batch = call()
        dt = (time.perf_counter() - t0) * 1000.0
        if batch:
            quotes.extend(batch)
            quote_ms.extend([dt / len(batch)] * len(batch))

    t_start = time.perf_counter()
    for arrival, spec in stream:
        while True:
            due = service.batcher.due_at()
            if due is None or due > arrival:
                break
            clock.advance_to(max(clock.now(), due))
            timed(service.pump)
        clock.advance_to(max(clock.now(), arrival))
        timed(lambda: [q] if (q := service.submit_sync(spec)) is not None else [])
        timed(service.pump)
    due = service.batcher.due_at()
    if due is not None:
        clock.advance_to(max(clock.now(), due))
        timed(service.pump)
    timed(service.drain)
    return quotes, quote_ms, time.perf_counter() - t_start


def _quote_problems(quotes, expected_ids) -> List[str]:
    problems = []
    seen = [q.job_id for q in quotes]
    if sorted(seen) != sorted(expected_ids):
        problems.append(f"{len(seen)} quotes for {len(expected_ids)} submissions")
    for q in quotes:
        if q.reason in REFUSALS:
            problems.append(f"{q.job_id}: refused ({q.reason})")
        elif q.admitted and (q.predicted_completion is None or q.predicted_completion > q.deadline):
            problems.append(
                f"{q.job_id}: admitted with completion {q.predicted_completion} "
                f"after deadline {q.deadline}"
            )
    return problems


def quoted_turnaround(quotes) -> float:
    """Median predicted completion minus arrival over every quote with a plan.

    Rejected quotes that missed their deadline still carry the completion
    the plan offered, so this reads the plan's quality on all answers; the
    median, because a few long advance reservations dominate the mean.
    """
    return statistics.median(
        [q.predicted_completion - q.arrival for q in quotes if q.predicted_completion is not None]
    )


def run_replay(seed: int, result: Result, passes: int) -> List[float]:
    """Replay the stream ``passes`` times; returns each good pass's seconds."""
    from repro.service.schemas import verdict_digest

    stream = replay_stream(seed)
    expected = [spec.job_id for _, spec in stream]
    walls: List[float] = []
    all_ms: List[float] = []
    first = None
    for i in range(passes):
        result.attempted += len(stream)
        quotes, quote_ms, wall = replay_pass(stream)
        problems = _quote_problems(quotes, expected)
        digest = verdict_digest(quotes)
        if first is None:
            first = (digest, quotes, quote_ms)
        elif digest != first[0]:
            problems.append(f"pass {i} verdict digest {digest} != pass 0 {first[0]}")
        if problems:
            result.fail(f"pass {i}: {problems[0]} ({len(problems)} problems)", len(stream))
            continue
        walls.append(wall)
        all_ms.extend(quote_ms)
    if not walls:
        return walls
    digest, quotes, first_ms = first
    admitted = [q for q in quotes if q.admitted]
    s = stats.summarize(all_ms, REPLAY_TAIL_PM)
    result.metrics["throughput_per_s"] = statistics.median([len(stream) / w for w in walls])
    result.metrics["latency_ms.p50"] = s["p50"]
    result.metrics["latency_ms.tail"] = s["tail"]
    result.note("passes", len(walls), "", f"{len(stream)} submissions each, lambda {REPLAY_RATE}/s")
    result.note("quotes_per_s", result.metrics["throughput_per_s"], "1/s", "= throughput_per_s")
    result.note(
        "quote_solve_ms",
        f"p50 {s['p50']:.4g} / {s['tail_label']} {s['tail']:.4g}",
        "ms",
        f"n={s['n']}, {s['tail_beyond']} beyond the tail",
    )
    result.note("admitted_pct", 100.0 * len(admitted) / len(quotes), "%")
    result.note("turnaround_s", quoted_turnaround(quotes), "s", "median quoted, every quote with a plan")
    result.note("quote_growth", growth(first_ms), "ratio", "last fifth / first fifth, pass 0")
    result.note("verdict_digest", digest)
    return walls


# ----------------------------------------------------------------- http

#: The client's in-flight limit: one per CPU of the reference box.
MAX_IN_FLIGHT = 2
#: Submits per second of the base step and of the ladder steps, and the
#: share of the run each step lasts.
BASE_RATE = 10.0
BASE_SHARE = 0.5
LADDER = (20.0, 30.0, 40.0)
LADDER_SHARE = 0.15
#: A ladder step is OK when its submit p90 stays within this limit and
#: its generator lateness does not grow.
LATENCY_LIMIT_MS = 150.0
#: Lateness growth (last quarter minus first quarter, mean) that counts
#: as a growing backlog.
BACKLOG_GROWTH_MS = 50.0
HTTP_TAIL_PM = 900
HTTP_TIMEOUT_S = 30.0
#: Server spawns per run; the last one serves the load.
SPAWNS = 3


class Server:
    """One ``perfbench/serve.py`` process; ``setup_s`` is spawn to first 200 /health."""

    def __init__(self, traced: bool) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve.py"), "--trace", "1" if traced else "0"],
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._stderr: List[str] = []
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        try:
            self.port = self._read_port(timeout=120.0)
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def _read_port(self, timeout: float) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("server exited before listening: " + "".join(self._stderr[-5:]))
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
        finally:
            sel.close()
        raise RuntimeError("server did not report its port in time")

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = asyncio.run(request("127.0.0.1", self.port, "GET", "/health", None, 5.0))
                if status == 200:
                    return
            except (OSError, EOFError, ValueError, asyncio.TimeoutError):
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /health")

    def shutdown(self) -> dict:
        """POST /shutdown, wait for exit, return the summary the server printed."""
        try:
            asyncio.run(request("127.0.0.1", self.port, "POST", "/shutdown", None, 10.0))
            out, _ = self.proc.communicate(timeout=60.0)
        finally:
            self.kill()
        for line in out.splitlines():
            if line.startswith(SUMMARY_TAG):
                return json.loads(line[len(SUMMARY_TAG):])
        raise RuntimeError("server printed no summary: " + "".join(self._stderr[-5:]))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._drain.join(timeout=5.0)


def http_specs(seed: int, count: int):
    """``count`` job specs from the service's seeded load generator."""
    from repro.service.loadgen import LoadProfile, generate_request_stream

    return [spec for _, spec in generate_request_stream(LoadProfile(requests=count, seed=seed))]


def plan_step(specs, rate: float) -> List[Planned]:
    """Submits every 1/rate seconds, each followed half a period later by a status read."""
    plan: List[Planned] = []
    period = 1.0 / rate
    for i, spec in enumerate(specs):
        body = json.dumps(spec.as_dict()).encode()
        plan.append(Planned(i * period, "submit", "POST", "/submit", body))
        plan.append(Planned((i + 0.5) * period, "status", "GET", "/status/"))
    return plan


class Checker:
    """Validates responses and remembers which jobs have been quoted."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        #: job id -> quote, in the order the quotes arrived
        self.quotes: Dict[str, object] = {}

    def resolve(self, planned: Planned) -> Optional[Planned]:
        if planned.kind != "status":
            return planned
        if not self.quotes:
            return None
        job = list(self.quotes)[self.rng.randrange(len(self.quotes))]
        return Planned(planned.due, "status", "GET", f"/status/{job}")

    def check(self, outcome: Outcome) -> Optional[str]:
        from repro.service.schemas import JobStatus, SlaQuote

        try:
            data = json_body(outcome)
            if outcome.kind == "status":
                JobStatus.from_dict(data)
                return None
            quote = SlaQuote.from_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparseable {outcome.kind} response: {exc}"
        if quote.reason in REFUSALS:
            return f"{quote.job_id}: refused ({quote.reason})"
        if quote.admitted and (
            quote.predicted_completion is None or quote.predicted_completion > quote.deadline
        ):
            return f"{quote.job_id}: admitted after its deadline"
        self.quotes[quote.job_id] = quote
        return None


@dataclass
class Step:
    rate: float
    load: LoadResult

    def latencies_ms(self, kind: str) -> List[float]:
        return [o.latency * 1000.0 for o in self.load.outcomes if o.kind == kind and o.ok]

    @property
    def backlog_growth_ms(self) -> float:
        late = [o.late * 1000.0 for o in sorted(self.load.outcomes, key=lambda o: o.due)]
        q = len(late) // 4
        return stats.mean(late[-q:]) - stats.mean(late[:q]) if q else 0.0

    @property
    def achieved_rate(self) -> float:
        """Submits answered OK per second, from the first due time to the last answer."""
        subs = [o for o in self.load.outcomes if o.kind == "submit" and o.ok]
        if len(subs) < 2:
            return 0.0
        return len(subs) / (max(o.done for o in subs) - min(o.due for o in subs))

    def ok(self) -> bool:
        lat = self.latencies_ms("submit")
        return (
            not self.load.failures
            and bool(lat)
            and stats.percentile(lat, HTTP_TAIL_PM) <= LATENCY_LIMIT_MS
            and self.backlog_growth_ms <= BACKLOG_GROWTH_MS
        )


def run_steps(port: int, seed: int, steps) -> Tuple[List[Step], Checker]:
    total = sum(int(rate * seconds) for rate, seconds in steps)
    specs = http_specs(seed, total)
    checker = Checker(seed)
    done: List[Step] = []
    offset = 0
    for rate, seconds in steps:
        n = int(rate * seconds)
        plan = plan_step(specs[offset : offset + n], rate)
        offset += n
        load = asyncio.run(
            open_loop(
                "127.0.0.1", port, plan, MAX_IN_FLIGHT, HTTP_TIMEOUT_S,
                resolve=checker.resolve, check=checker.check,
            )
        )
        done.append(Step(rate, load))
    return done, checker


def http_steps(seconds: float) -> Tuple[Tuple[float, float], ...]:
    """(rate, seconds) of the base step and the ladder for a run of ``seconds``."""
    base = (BASE_RATE, max(2.0, seconds * BASE_SHARE))
    return (base,) + tuple((rate, max(1.0, seconds * LADDER_SHARE)) for rate in LADDER)


def run_http(seed: int, result: Result, steps, traced: bool) -> Tuple[dict, List[Step], Optional[Step]]:
    """Drive a server up the ladder; returns (server summary, steps, reference).

    Untraced, the server is spawned SPAWNS times for set-up samples and the
    last spawn takes the load.  Traced, an untraced server first runs the
    base step alone (the tracing-overhead reference).
    """
    setups: List[float] = []
    reference = None
    if traced:
        ref_server = Server(traced=False)
        try:
            reference = run_steps(ref_server.port, seed, steps[:1])[0][0]
        finally:
            ref_server.shutdown()
    else:
        for _ in range(SPAWNS - 1):
            probe = Server(traced=False)
            setups.append(probe.setup_s)
            probe.shutdown()
    server = Server(traced)
    setups.append(server.setup_s)
    t0 = time.perf_counter()
    try:
        done, checker = run_steps(server.port, seed, steps)
    finally:
        load_wall = time.perf_counter() - t0
        summary = server.shutdown()
    summary["load_wall_s"] = load_wall
    result.metrics["setup_s"] = statistics.median(setups)
    result.metrics["peak_rss_mb"] = summary["peak_rss_mb"]
    for step in done:
        result.attempted += len(step.load.outcomes)
        for o in step.load.failures:
            result.fail(f"{step.rate:g}/s {o.kind} {o.path}: status {o.status} {o.error or ''}".strip())
    base = done[0]
    sub = stats.summarize(base.latencies_ms("submit"), HTTP_TAIL_PM)
    status = stats.summarize(base.latencies_ms("status"), HTTP_TAIL_PM)
    passing = [s for s in done if s.ok()]
    result.metrics["throughput_per_s"] = passing[-1].achieved_rate if passing else 0.0
    result.metrics["latency_ms.p50"] = sub["p50"]
    result.metrics["latency_ms.tail"] = sub["tail"]
    quotes = list(checker.quotes.values())
    admitted = [q for q in quotes if q.admitted]
    result.note("setup_samples_s", ", ".join(f"{s:.3f}" for s in setups))
    result.note(
        "quote_ms",
        f"p50 {sub['p50']:.4g} / {sub['tail_label']} {sub['tail']:.4g}",
        "ms",
        f"at {base.rate:g}/s, n={sub['n']}, {sub['tail_beyond']} beyond the tail",
    )
    result.note(
        "status_ms",
        f"p50 {status['p50']:.4g} / {status['tail_label']} {status['tail']:.4g}",
        "ms",
        f"at {base.rate:g}/s, n={status['n']}",
    )
    for step in done:
        lat = step.latencies_ms("submit")
        result.note(
            f"step {step.rate:g}/s",
            f"p90 {stats.percentile(lat, 900):.4g}" if lat else "-",
            "ms",
            f"achieved {step.achieved_rate:.4g}/s, lateness growth "
            f"{step.backlog_growth_ms:.3g} ms, max late {step.load.max_late * 1000:.4g} ms, "
            f"{'OK' if step.ok() else 'over the limit'}",
        )
    result.note("max_ok_rate", result.metrics["throughput_per_s"], "1/s", "= throughput_per_s")
    result.note("admitted_pct", 100.0 * len(admitted) / max(1, len(quotes)), "%")
    result.note("turnaround_s", quoted_turnaround(quotes), "s", "median quoted, every quote with a plan")
    return summary, done, reference


def http_layers(summary: dict, steps: List[Step], reference: Step) -> Dict[str, float]:
    """The server's per-layer figures plus the client-side ones."""
    m = dict(summary["layers"])
    base = steps[0]
    hold, quote = summary["hold_ms"], summary["quote_ms"]
    overhead = []
    for o in base.load.outcomes:
        if o.kind == "submit" and o.ok:
            job = json_body(o)["job_id"]
            if job in hold and job in quote:
                overhead.append(o.latency * 1000.0 - hold[job] - quote[job])
    m["service.http.overhead_ms.p50"] = stats.percentile(overhead, 500) if overhead else 0.0
    m["service.shed.count"] = summary["shed"]
    m["loadgen.sent"] = sum(len(s.load.outcomes) for s in steps)
    m["loadgen.late_ms.max"] = base.load.max_late * 1000.0
    m["loadgen.in_flight.max"] = max(s.load.max_in_flight for s in steps)
    traced_p50 = stats.percentile(base.latencies_ms("submit"), 500)
    ref_p50 = stats.percentile(reference.latencies_ms("submit"), 500)
    m["trace.wall_s"] = summary["load_wall_s"]
    m["trace.overhead_pct"] = 100.0 * (traced_p50 / ref_p50 - 1.0)
    return m
