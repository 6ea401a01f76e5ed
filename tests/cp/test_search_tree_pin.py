"""Pins the fail-limited search tree of a small ``sim_search``-shaped burst.

Propagator speed-ups must leave every solve's tree untouched: same status,
objective, fails, branches, solutions and propagation count.  A change that
prunes more (or less) shows up here as a digest mismatch, so a pure
performance change can be told apart from one that alters the search.
"""

import hashlib
import json

from repro.core import MrcpRmConfig
from repro.cp.solver import CpSolver, SolverParams
from repro.experiments.runner import RunConfig, SystemConfig, run_once
from repro.workload import SyntheticWorkloadParams

#: sha256 of the per-solve tuples below, captured before the blocked-run
#: time-table index and the guarded propagator setters went in.
PINNED_DIGEST = "47b33ec29d62ae8587425ee44607f075281ae78c358a19532329a6df4552c709"
PINNED_SOLVES = 6


def _burst_config() -> RunConfig:
    """6 Table 3 jobs arriving at 10/s on m = 10 x (2, 2), d_UL = 2."""
    return RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=6,
            map_tasks_range=(8, 12),
            reduce_tasks_range=(8, 12),
            e_max=50,
            ar_probability=0.0,
            deadline_multiplier_max=2.0,
            arrival_rate=10.0,
        ),
        system=SystemConfig(num_resources=10, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(
            solver=SolverParams(time_limit=60.0, tree_fail_limit=300, use_lns=False)
        ),
        seed=1,
    )


def test_search_tree_is_pinned(monkeypatch):
    solves = []
    original = CpSolver.solve

    def recording_solve(self, model, hint=None, **overrides):
        result = original(self, model, hint, **overrides)
        st = result.stats
        solves.append(
            (
                result.status.value,
                result.objective,
                st.fails,
                st.branches,
                st.solutions,
                st.propagations,
            )
        )
        return result

    monkeypatch.setattr(CpSolver, "solve", recording_solve)
    metrics = run_once(_burst_config())
    assert metrics.jobs_completed == 6
    digest = hashlib.sha256(json.dumps(solves).encode()).hexdigest()
    assert (len(solves), digest) == (PINNED_SOLVES, PINNED_DIGEST), solves
