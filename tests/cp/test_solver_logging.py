"""What a solve leaves behind: nothing on stdout, one record per phase.

The solver prints nothing.  Each phase it runs is recorded once: a tracer
span and a wall time in :class:`~repro.cp.solution.SearchStats`.  A phase
it skips keeps ``0.0`` and is traced as a zero-duration ``skipped`` span.
"""

from repro.cp import CpSolver
from repro.cp.solver import PHASES
from repro.obs.trace import TraceRecorder, Tracer

from tests.conftest import two_job_single_machine_model


def test_log_disabled_by_default(capsys):
    m = two_job_single_machine_model()
    CpSolver().solve(m, time_limit=1.0)
    assert capsys.readouterr().out == ""


def test_log_traces_phases(capsys):
    tracer = Tracer(TraceRecorder())
    m = two_job_single_machine_model()
    result = CpSolver(tracer=tracer).solve(m, time_limit=1.0, use_lns=False)
    assert capsys.readouterr().out == ""
    assert result.objective == 1
    by_name = {e["name"]: e for e in tracer.recorder.events}
    for name, time_field in PHASES.items():
        skipped = by_name[name]["args"].get("skipped", False)
        assert skipped == (getattr(result.stats, time_field) == 0.0), name
    assert result.stats.tree_time > 0.0  # the warm start is not provably optimal
    assert by_name["cp.lns"]["args"]["skipped"] is True


def test_log_fast_path_stops_at_warm_start(capsys):
    import repro.cp as cp

    m = cp.CpModel(horizon=100)
    a = m.interval_var(length=5, name="a")
    late = m.add_deadline_indicator([a], deadline=50)
    m.add_group("j", [a], deadline=50)
    m.add_cumulative([a], capacity=1)
    m.minimize_sum([late])
    result = CpSolver().solve(m, time_limit=1.0)
    assert capsys.readouterr().out == ""
    assert result.objective == 0
    assert result.stats.warm_start_time > 0.0
    # proven optimal before any search: neither later phase ran
    assert result.stats.tree_time == 0.0
    assert result.stats.lns_time == 0.0
