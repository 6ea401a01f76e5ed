"""MRCP-RM reproduction: CP-based resource management for MapReduce with SLAs.

A from-scratch Python implementation of

    N. Lim, S. Majumdar, P. Ashwood-Smith,
    "A Constraint Programming-Based Resource Management Technique for
    Processing MapReduce Jobs with SLAs on Clouds", ICPP 2014.

Package map
-----------
* :mod:`repro.cp` -- constraint-programming scheduling solver (the CP
  Optimizer substitute): interval variables, cumulative / alternative /
  barrier constraints, branch-and-bound + LNS search.
* :mod:`repro.sim` -- discrete event simulation kernel, seeded random
  streams, replication statistics.
* :mod:`repro.workload` -- MapReduce job/SLA entities; Table 3 synthetic and
  Table 4 Facebook workload generators.
* :mod:`repro.core` -- MRCP-RM itself: the Table 1 formulation, the Table 2
  incremental algorithm, the V.D matchmaking decomposition, the V.E
  deferral optimisation, and the plan-driven executor.
* :mod:`repro.baselines` -- MinEDF-WC (Verma et al.), EDF, FCFS on a
  slot-based cluster.
* :mod:`repro.metrics` -- the O / N / T / P metrics of Section VI.
* :mod:`repro.experiments` -- per-figure experiment configurations and the
  replication runner.

Quickstart
----------
>>> from repro import quick_demo
>>> metrics = quick_demo(seed=1)          # a small open-system run
>>> metrics.jobs_completed == metrics.jobs_arrived
True
"""

from typing import Optional

from repro.core import MrcpRm, MrcpRmConfig
from repro.faults import FaultModel, OutageWindow
from repro.metrics import MetricsCollector, RunMetrics
from repro.sim import Simulator
from repro.workload import (
    FacebookWorkloadParams,
    SyntheticWorkloadParams,
    generate_facebook_workload,
    generate_synthetic_workload,
    make_uniform_cluster,
)

try:  # installed: single source of truth is the package metadata
    from importlib.metadata import version as _pkg_version

    __version__ = _pkg_version("repro")
except Exception:  # pragma: no cover - running from a source tree
    __version__ = "1.0.0"

__all__ = [
    "MrcpRm",
    "MrcpRmConfig",
    "FaultModel",
    "OutageWindow",
    "MetricsCollector",
    "RunMetrics",
    "Simulator",
    "SyntheticWorkloadParams",
    "FacebookWorkloadParams",
    "generate_synthetic_workload",
    "generate_facebook_workload",
    "make_uniform_cluster",
    "quick_demo",
]


def quick_demo(
    seed: int = 0,
    num_jobs: int = 10,
    faults: Optional[FaultModel] = None,
) -> RunMetrics:
    """Run a small MRCP-RM open system end to end; returns its metrics.

    Pass a :class:`FaultModel` to subject the run to task failures,
    stragglers, and resource outages (re-seeded with ``seed``); the
    default (``None``) is the fault-free happy path.  The scenario is
    :func:`repro.experiments.configs.demo_config`: build it with
    :func:`repro.experiments.runner.build_live_run` to trace or inspect
    the run.
    """
    from repro.experiments.configs import demo_config
    from repro.experiments.runner import build_live_run

    run = build_live_run(demo_config(num_jobs, faults), replication=seed)
    return run.finish()
