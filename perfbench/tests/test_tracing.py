"""Self-time arithmetic and the wrappers' install/uninstall."""

import pytest

from perfbench.tracing import Span, SpanRecorder, Trace, install, self_times

# A hand-built tree (times in seconds):
#   A [0, 10]
#     B [1, 4]
#     C [5, 9]
#       D [6, 7]
#   E [10, 15]          (recursive: E inside E)
#     E [11, 13]
TREE = [
    Span("A", 0.0, 10.0),
    Span("B", 1.0, 4.0, parent=0),
    Span("C", 5.0, 9.0, parent=0),
    Span("D", 6.0, 7.0, parent=2),
    Span("E", 10.0, 15.0),
    Span("E", 11.0, 13.0, parent=4),
]
EXPECTED = {
    # name: (calls, busy, self)
    "A": (1, 10.0, 3.0),
    "B": (1, 3.0, 3.0),
    "C": (1, 4.0, 3.0),
    "D": (1, 1.0, 1.0),
    "E": (2, 5.0, 5.0),  # outer 5 - 2 covered by the inner + inner 2
}


def test_self_times_of_hand_built_tree():
    got = self_times(TREE)
    for name, (calls, busy, own) in EXPECTED.items():
        assert got[name].calls == calls
        assert got[name].busy == pytest.approx(busy)
        assert got[name].self_time == pytest.approx(own)
    # self times partition the wall covered by root spans
    assert sum(s.self_time for s in got.values()) == pytest.approx(15.0)


def test_online_recorder_matches_the_tree():
    # Replay TREE's enter/exit events in time order through a scripted clock.
    events = []
    for i, s in enumerate(TREE):
        events.append((s.start, 1, i))
        events.append((s.end, 0, i))
    events.sort(key=lambda e: (e[0], e[1], -e[2] if e[1] == 0 else e[2]))
    times = iter(t for t, _, _ in events)
    rec = SpanRecorder(clock=lambda: next(times))
    frames = {}
    for _, opening, i in events:
        if opening:
            frames[i] = rec.enter(TREE[i].name)
        else:
            rec.exit(frames[i])
    for name, (calls, busy, own) in EXPECTED.items():
        st = rec.stat(name)
        assert (st.calls, st.busy, st.self_time) == (calls, pytest.approx(busy), pytest.approx(own))


def test_closing_out_of_order_is_an_error():
    rec = SpanRecorder()
    outer = rec.enter("outer")
    rec.enter("inner")
    with pytest.raises(RuntimeError):
        rec.exit(outer)


def test_install_records_layers_and_uninstall_restores():
    from repro.core import invocation, mrcp_rm
    from repro.cp.solver import CpSolver
    from repro.experiments.runner import run_once
    from repro.sim.kernel import Simulator

    from perfbench.simload import facebook_config

    originals = (mrcp_rm.solve_invocation, invocation.build_model, CpSolver.solve, Simulator.run)
    config = facebook_config(3)
    config.facebook.num_jobs = 20
    trace = Trace()
    uninstall = install(trace)
    try:
        metrics = run_once(config)
    finally:
        uninstall()
    assert (mrcp_rm.solve_invocation, invocation.build_model, CpSolver.solve, Simulator.run) == originals
    assert trace.spans.stat("core.invocation").calls == metrics.scheduler_invocations
    assert trace.solver.solves == trace.spans.stat("cp.solver").calls > 0
    assert trace.events_dispatched > 0 and trace.events_scheduled >= trace.events_dispatched
    run = trace.spans.stat("sim.run")
    assert 0.0 < run.self_time < run.busy
