"""Solver-phase profiling: SolveProfile contents and phase span emission."""

from repro.cp import CpModel, CpSolver
from repro.cp.solver import PHASES, SolverParams
from repro.obs.trace import TraceRecorder, Tracer

from tests.conftest import two_job_single_machine_model


def test_profile_off_by_default():
    m = two_job_single_machine_model()
    result = CpSolver().solve(m, time_limit=1.0)
    assert result.profile is None


def test_profile_populated_when_requested():
    m = two_job_single_machine_model()
    solver = CpSolver(SolverParams(profile=True))
    result = solver.solve(m, time_limit=1.0)
    p = result.profile
    assert p is not None
    assert p.solved_by in ("hint", "warm_start", "tree", "lns")
    assert p.final_objective == result.objective
    assert p.propagators, "per-propagator counters should not be empty"
    for counts in p.propagators.values():
        assert set(counts) == {"runs", "prunes", "fails"}
        assert counts["runs"] >= 0


def test_profile_attributes_tree_improvement():
    # two jobs on one machine, only one can meet its deadline: the warm
    # start is suboptimal or the tree proves it -- either way the profile
    # must name the phase that produced the final incumbent
    m = two_job_single_machine_model()
    result = CpSolver(SolverParams(profile=True)).solve(m, time_limit=1.0)
    p = result.profile
    if p.improved_by_tree:
        assert p.solved_by == "tree"
    if p.warm_start_objective is not None and not (
        p.improved_by_tree or p.improved_by_lns
    ):
        assert p.warm_start_objective == p.final_objective


def test_phase_times_populated_in_stats():
    m = two_job_single_machine_model()
    result = CpSolver(SolverParams(profile=True)).solve(m, time_limit=1.0)
    stats = result.stats
    assert stats.propagate_time >= 0.0
    assert stats.warm_start_time >= 0.0
    assert stats.tree_time >= 0.0
    assert stats.lns_time >= 0.0


def test_tracer_enables_profiling_and_emits_every_phase_span():
    tracer = Tracer(TraceRecorder())
    m = two_job_single_machine_model()
    result = CpSolver(tracer=tracer).solve(m, time_limit=1.0)
    assert result.profile is not None  # tracing implies profiling
    names = {e["name"] for e in tracer.recorder.events}
    for phase in PHASES:
        assert phase in names, f"missing phase span {phase}"


def test_skipped_phases_marked_not_omitted():
    # warm-start-optimal fast path: search and LNS never run, but the
    # trace still carries zero-duration markers flagged skipped=True
    tracer = Tracer(TraceRecorder())
    m = CpModel(horizon=100)
    a = m.interval_var(length=5, name="a")
    late = m.add_deadline_indicator([a], deadline=50)
    m.add_group("j", [a], deadline=50)
    m.add_cumulative([a], capacity=1)
    m.minimize_sum([late])
    result = CpSolver(tracer=tracer).solve(m, time_limit=2.0)
    assert result.stats.branches == 0
    by_name = {e["name"]: e for e in tracer.recorder.events}
    for phase in PHASES:
        assert phase in by_name
    assert by_name["cp.search"]["args"].get("skipped") is True
    assert by_name["cp.search"]["dur"] == 0.0


def test_engine_profile_detached_when_not_profiling():
    # phase wall times are always cheap to record, but the per-propagator
    # engine instrumentation must stay off unless explicitly requested
    m = two_job_single_machine_model()
    result = CpSolver().solve(m, time_limit=1.0)
    assert result.profile is None
    assert result.stats.propagate_time >= 0.0
