"""Pin the exact trace events of single solves under a pinned wall clock.

The scheduling overhead O is measured through the tracer's wall clock, so
a solve that read that clock one time more or less would move O.  These
tests pin every event of a traced solve -- name, category, phase, the
pinned timestamps and durations, and the args -- plus the number of clock
reads, for three paths through the solver: a fail-limited solve that
enters the tree phase, the warm-start fast path, and a zero budget.
"""

from repro.cp import CpModel, CpSolver
from repro.cp.solver import SolverParams
from repro.obs.clocks import PinnedClock
from repro.obs.trace import TraceRecorder, Tracer

SIM0 = {"sim_time": 0.0}
SKIPPED = {"skipped": True, "sim_time": 0.0}


def _contended_model(n=5, length=10, deadline=20):
    """``n`` equal jobs on one slot: two fit by the deadline, the rest are late."""
    m = CpModel(horizon=200)
    bools = []
    for j in range(n):
        iv = m.interval_var(length=length, name=f"t{j}")
        bools.append(m.add_deadline_indicator([iv], deadline=deadline))
        m.add_group(f"j{j}", [iv], deadline=deadline)
    m.add_cumulative(m.intervals, capacity=1)
    m.minimize_sum(bools)
    return m


def _single_job_model():
    """One job that trivially meets its deadline: the warm start is optimal."""
    m = CpModel(horizon=100)
    a = m.interval_var(length=5, name="a")
    late = m.add_deadline_indicator([a], deadline=50)
    m.add_group("j", [a], deadline=50)
    m.add_cumulative([a], capacity=1)
    m.minimize_sum([late])
    return m


def _traced_solve(model, **params):
    clock = PinnedClock()
    tracer = Tracer(TraceRecorder(), wall_clock=clock)
    result = CpSolver(SolverParams(**params), tracer=tracer).solve(model)
    events = [
        (e["name"], e["cat"], e["ph"], e["ts"], e.get("dur"), e.get("args"))
        for e in tracer.recorder.events
    ]
    return result, events, clock.count


def test_fail_limited_tree_solve_events_pinned():
    result, events, reads = _traced_solve(
        _contended_model(), time_limit=5.0, tree_fail_limit=30, use_lns=False
    )
    assert events == [
        ("cp.propagate", "cp.phase", "X", 1000, 1000, SIM0),
        ("cp.warm_start", "cp.phase", "X", 3000, 1000, SIM0),
        ("cp.search", "cp.phase", "X", 5000, 1000, SIM0),
        ("cp.lns", "cp.phase", "X", 7000, 0, SKIPPED),
    ]
    assert reads == 8
    assert (result.objective, result.stats.branches, result.stats.fails) == (3, 16, 17)
    assert result.stats.propagations == 143
    assert result.stats.tree_time > 0.0
    assert result.stats.lns_time == 0.0


def test_warm_start_fast_path_events_pinned():
    result, events, reads = _traced_solve(_single_job_model(), time_limit=5.0)
    assert events == [
        ("cp.propagate", "cp.phase", "X", 1000, 1000, SIM0),
        ("cp.warm_start", "cp.phase", "X", 3000, 1000, SIM0),
        ("cp.search", "cp.phase", "X", 5000, 0, SKIPPED),
        ("cp.lns", "cp.phase", "X", 6000, 0, SKIPPED),
    ]
    assert reads == 7
    assert result.objective == 0
    assert result.profile.solved_by == "warm_start"
    assert result.stats.tree_time == 0.0
    assert result.stats.lns_time == 0.0


def test_zero_budget_events_pinned():
    result, events, reads = _traced_solve(_contended_model(), time_limit=0.0)
    assert events == [
        ("cp.propagate", "cp.phase", "X", 1000, 1000, SIM0),
        ("cp.budget_exhausted", "cp.phase", "i", 3000, None,
         {"time_limit": 0.0, "sim_time": 0.0}),
        ("cp.warm_start", "cp.phase", "X", 4000, 0, SKIPPED),
        ("cp.search", "cp.phase", "X", 5000, 0, SKIPPED),
        ("cp.lns", "cp.phase", "X", 6000, 0, SKIPPED),
    ]
    assert reads == 7
    assert result.solution is None
    assert result.stats.warm_start_time == 0.0
    assert result.stats.tree_time == 0.0
    assert result.stats.lns_time == 0.0
