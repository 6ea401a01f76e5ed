"""Chaos scenarios as tests (CI ``chaos-smoke``; excluded from tier-1).

Each scenario is self-verifying -- it returns a :class:`ChaosReport`
whose ``violations`` list every broken contract -- so the tests assert
on the report rather than re-deriving the checks.
"""

import pytest

from repro.experiments.configs import default_chaos_config, escalation_ladder
from repro.resilience.chaos import (
    kill_restore_cycle,
    overload_burst,
    pool_worker_death,
)

pytestmark = pytest.mark.chaos


def test_kill_restore_cycle_is_byte_identical(tmp_path):
    report = kill_restore_cycle(out_dir=str(tmp_path / "ckpts"))
    assert report.passed, report.summary()
    assert report.details["checkpoints"] >= 2
    assert report.details["restored_ontp"] == report.details["reference_ontp"]


def test_kill_restore_cycle_in_memory():
    """Same contract without persistence (snapshot dict instead of file)."""
    report = kill_restore_cycle(kill_after_checkpoints=1)
    assert report.passed, report.summary()


def test_overload_burst_walks_the_ladder_and_stays_deterministic():
    report = overload_burst()
    assert report.passed, report.summary()
    rungs = report.details["solves_by_rung"]
    assert set(rungs) == {"cp_full", "cp_limited", "edf", "greedy"}
    assert report.details["breaker_opens"] >= 1


def test_overload_burst_with_faults_and_ladder():
    """Faults + overload + a failing solver at once: the harshest mix."""
    config = default_chaos_config(
        seed=7, faults=True, ladder=escalation_ladder()
    )
    report = overload_burst(config=config)
    # The explicit config keeps the default contract except the all-rungs
    # requirement (fault timing may change the invocation count), so only
    # assert the invariants and determinism held.
    hard_violations = [
        v for v in report.violations if "never used rungs" not in v
    ]
    assert not hard_violations, report.summary()


def test_pool_worker_death_recovers_byte_identically(tmp_path):
    report = pool_worker_death(str(tmp_path / "sweeps"))
    assert report.passed, report.summary()
    assert report.details["retried_cells"] >= 1
