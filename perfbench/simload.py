"""The simulated-system workloads: ``sim_search`` and ``sim_facebook``.

One run simulates a fixed set of job streams through the public
``build_live_run`` / ``LiveRun.finish`` pair (the body of ``run_once``).
Stream ``i`` is replication ``i`` of the benchmark seed, so the seed alone
fixes every input.  The solver is fail-limited (LNS off, a time limit far
above what a fail-limited solve needs), which pins the search tree: N, T
and P of a stream are deterministic, and the run re-simulates one stream
to check that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from perfbench import stats
from perfbench.report import Result

#: Fail-limited solver settings shared by both workloads.
TREE_FAIL_LIMIT = 300
TIME_LIMIT_S = 60.0


@dataclass(frozen=True)
class SimWorkload:
    name: str
    #: wall seconds one stream takes on the reference box (sizes a run)
    stream_seconds: float
    jobs: int
    #: pinned tail percentile of the invocation overhead O (per mille)
    tail_pm: int
    make_config: Callable[[int], object]


def _solver():
    from repro.cp.solver import SolverParams

    return SolverParams(
        time_limit=TIME_LIMIT_S, tree_fail_limit=TREE_FAIL_LIMIT, use_lns=False
    )


def search_config(seed: int):
    """Bursts of Table 3 jobs with tight deadlines: every stream searches.

    All 16 jobs of a stream arrive within about two seconds (lambda = 10/s,
    no advance reservations) on the Table 3 cluster m = 10 x (2, 2), with
    d_UL = 2.  Task counts are DU[8, 12] rather than DU[1, 20] and map
    task times DU[1, 50] as in Table 3: the narrower count range keeps the
    backlog, and so the search effort, similar from stream to stream.
    """
    from repro.core import MrcpRmConfig
    from repro.experiments.runner import RunConfig, SystemConfig
    from repro.workload import SyntheticWorkloadParams

    return RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=16,
            map_tasks_range=(8, 12),
            reduce_tasks_range=(8, 12),
            e_max=50,
            ar_probability=0.0,
            deadline_multiplier_max=2.0,
            arrival_rate=10.0,
        ),
        system=SystemConfig(num_resources=10, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(solver=_solver()),
        seed=seed,
    )


def facebook_config(seed: int):
    """The Table 4 Facebook model at scale 0.1 on m = 8 x (1, 1)."""
    from repro.core import MrcpRmConfig
    from repro.experiments.runner import RunConfig, SystemConfig
    from repro.workload import FacebookWorkloadParams

    return RunConfig(
        scheduler="mrcp-rm",
        workload="facebook",
        facebook=FacebookWorkloadParams(
            num_jobs=500,
            arrival_rate=0.0001,
            deadline_multiplier_max=2.0,
            scale=0.1,
        ),
        system=SystemConfig(num_resources=8, map_slots=1, reduce_slots=1),
        mrcp=MrcpRmConfig(solver=_solver()),
        seed=seed,
    )


#: ~16 invocations per stream: a 40 s run's ~190 samples support p90.
SIM_SEARCH = SimWorkload(
    "sim_search", stream_seconds=3.2, jobs=16, tail_pm=900, make_config=search_config
)
#: ~500 invocations per stream: a 40 s run's ~8,000 samples support p99.
SIM_FACEBOOK = SimWorkload(
    "sim_facebook", stream_seconds=2.5, jobs=500, tail_pm=990, make_config=facebook_config
)


def setup(workload: SimWorkload, seed: int) -> None:
    """Generate and wire the first stream (the set-up a user pays per run)."""
    from repro.experiments.runner import build_live_run

    build_live_run(workload.make_config(seed), 0)


def _simulate(config, replication: int) -> Tuple[object, float]:
    """Build and drain one stream; returns (RunMetrics, drain seconds)."""
    from repro.experiments.runner import build_live_run

    live = build_live_run(config, replication)
    t0 = time.perf_counter()
    metrics = live.finish()
    return metrics, time.perf_counter() - t0


def _outcome(m) -> Tuple[int, float, float, Tuple[int, ...]]:
    """The deterministic N/T/P fingerprint of one stream."""
    return (m.late_jobs, m.avg_turnaround, m.proportion_late, tuple(sorted(m.late_job_ids)))


def run(workload: SimWorkload, seed: int, result: Result, streams: int) -> Dict[int, float]:
    """Simulate every stream once plus one repeat; fills ``result``.

    Returns the drain seconds of each stream that passed its checks.
    """
    config = workload.make_config(seed)
    overheads: List[float] = []
    walls: Dict[int, float] = {}
    outcomes: Dict[int, tuple] = {}
    jobs_done = 0
    late = 0
    turnaround_sum = 0.0
    for rep in range(streams):
        result.attempted += workload.jobs
        try:
            m, wall = _simulate(config, rep)
        except Exception as exc:  # a crashed stream is a failed stream
            result.fail(f"stream {rep}: {type(exc).__name__}: {exc}", workload.jobs)
            continue
        if m.jobs_completed != workload.jobs or m.jobs_arrived != workload.jobs:
            result.fail(
                f"stream {rep}: {m.jobs_completed}/{m.jobs_arrived} jobs ended, "
                f"expected {workload.jobs}",
                workload.jobs,
            )
            continue
        outcomes[rep] = _outcome(m)
        walls[rep] = wall
        overheads.extend(o * 1000.0 for o in m.overhead_series)
        jobs_done += m.jobs_completed
        late += m.late_jobs
        turnaround_sum += m.avg_turnaround * m.jobs_completed
    if walls:
        # Determinism: the cheapest stream again must give identical N/T/P.
        rep = min(walls, key=walls.__getitem__)
        result.attempted += workload.jobs
        try:
            again, _ = _simulate(config, rep)
        except Exception as exc:
            result.fail(f"repeat of stream {rep}: {type(exc).__name__}: {exc}", workload.jobs)
        else:
            if _outcome(again) != outcomes[rep]:
                result.fail(
                    f"stream {rep} is not deterministic: N/T/P {outcomes[rep][:3]} "
                    f"then {_outcome(again)[:3]}",
                    workload.jobs,
                )
    if not walls:
        return walls
    o = stats.summarize(overheads, workload.tail_pm)
    total = sum(walls.values())
    result.metrics["throughput_per_s"] = jobs_done / total
    result.metrics["latency_ms.p50"] = o["p50"]
    result.metrics["latency_ms.tail"] = o["tail"]
    result.note("streams", len(walls), "", f"{workload.jobs} jobs each, + 1 repeat")
    result.note("jobs_per_s", jobs_done / total, "1/s", "= throughput_per_s")
    result.note(
        "invocation_ms",
        f"p50 {o['p50']:.4g} / {o['tail_label']} {o['tail']:.4g}",
        "ms",
        f"n={o['n']}, {o['tail_beyond']} beyond the tail",
    )
    result.note("late_pct", 100.0 * late / jobs_done, "%", "the paper's P")
    result.note("late_jobs", late, "count", "the paper's N")
    result.note("turnaround_s", turnaround_sum / jobs_done, "s", "the paper's T")
    return walls


def reference_wall(workload: SimWorkload, seed: int) -> float:
    """Untraced drain seconds of stream 0 (the tracing-overhead baseline)."""
    _, wall = _simulate(workload.make_config(seed), 0)
    return wall
