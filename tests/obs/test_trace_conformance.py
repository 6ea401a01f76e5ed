"""Strict Chrome trace-event conformance: validator unit tests + real runs."""

import json
from dataclasses import replace

from repro.experiments.configs import demo_config
from repro.experiments.runner import build_live_run
from repro.obs import ObsConfig
from repro.obs.conformance import (
    INSTANT_SCOPES,
    VALID_PHASES,
    validate_trace_document,
    validate_trace_events,
)


def _span(name="work", ts=0, dur=10, pid=1, tid=1, **extra):
    ev = {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}
    ev.update(extra)
    return ev


# ---------------------------------------------------------------------------
# Validator unit tests
# ---------------------------------------------------------------------------


def test_valid_events_pass():
    events = [
        {"name": "meta", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "wall"}},
        _span(),
        {"name": "mark", "ph": "i", "ts": 5, "s": "g", "pid": 1, "tid": 1},
        {"name": "ctr", "ph": "C", "ts": 5, "pid": 1, "tid": 1,
         "args": {"v": 1}},
    ]
    assert validate_trace_events(events) == []


def test_float_ts_rejected():
    problems = validate_trace_events([_span(ts=1.5)])
    assert any("ts" in p and "not an int" in p for p in problems)


def test_float_dur_rejected():
    problems = validate_trace_events([_span(dur=2.25)])
    assert any("dur" in p and "not an int" in p for p in problems)


def test_negative_dur_rejected():
    problems = validate_trace_events([_span(dur=-1)])
    assert any("negative dur" in p for p in problems)


def test_bool_pid_rejected():
    """bool is an int subclass in Python; the spec wants genuine integers."""
    problems = validate_trace_events([_span(pid=True)])
    assert any("pid" in p for p in problems)


def test_invalid_phase_rejected():
    problems = validate_trace_events(
        [{"name": "x", "ph": "Z", "ts": 0, "pid": 1, "tid": 1}]
    )
    assert any("invalid ph" in p for p in problems)
    assert "Z" not in VALID_PHASES


def test_instant_scope_checked():
    bad = {"name": "x", "ph": "i", "ts": 0, "s": "q", "pid": 1, "tid": 1}
    assert any("scope" in p for p in validate_trace_events([bad]))
    assert "q" not in INSTANT_SCOPES


def test_missing_name_rejected():
    problems = validate_trace_events([{"ph": "X", "ts": 0, "dur": 1}])
    assert any("name" in p for p in problems)


def test_begin_end_nesting_enforced():
    b = {"name": "outer", "ph": "B", "ts": 0, "pid": 1, "tid": 1}
    e = {"name": "outer", "ph": "E", "ts": 5, "pid": 1, "tid": 1}
    assert validate_trace_events([b, e]) == []
    # E without B
    problems = validate_trace_events([e])
    assert any("E without matching B" in p for p in problems)
    # unclosed B
    problems = validate_trace_events([b])
    assert any("unclosed B" in p for p in problems)
    # nesting is tracked per (pid, tid): an E on another tid doesn't close it
    other = {"name": "outer", "ph": "E", "ts": 5, "pid": 1, "tid": 2}
    problems = validate_trace_events([b, other])
    assert len(problems) == 2


def test_unserialisable_args_rejected():
    bad = _span(args={"obj": object()})
    assert any(
        "not serialisable" in p for p in validate_trace_events([bad])
    )


def test_document_validation(tmp_path):
    assert validate_trace_document({}) == ["document has no traceEvents array"]
    assert validate_trace_document({"traceEvents": [_span()]}) == []


# ---------------------------------------------------------------------------
# Real runs must conform
# ---------------------------------------------------------------------------


def _traced_demo(seed):
    """Run the demo scenario at ``seed`` with tracing on; returns its tracer."""
    config = replace(demo_config(), obs=ObsConfig(trace=True))
    run = build_live_run(config, replication=seed)
    run.finish()
    return run.tracer


def test_real_run_trace_is_conformant():
    events = _traced_demo(3).recorder.events
    assert events
    assert validate_trace_events(events) == []
    # the headline int64 requirements, asserted directly as well
    for ev in events:
        if "ts" in ev:
            assert isinstance(ev["ts"], int) and not isinstance(ev["ts"], bool)
        if ev.get("ph") == "X":
            assert isinstance(ev["dur"], int)
        for key in ("pid", "tid"):
            if key in ev:
                assert isinstance(ev[key], int)


def test_written_trace_file_is_conformant(tmp_path):
    out = tmp_path / "trace.json"
    _traced_demo(5).write(str(out))
    doc = json.loads(out.read_text())
    assert validate_trace_document(doc) == []
