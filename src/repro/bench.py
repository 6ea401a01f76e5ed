"""Benchmark regression tracking: pinned suite, baseline, comparison.

``repro bench`` (and the thin ``benchmarks/regress.py`` wrapper) runs a
small pinned suite -- solver micro-benchmarks, two figure experiments at
smoke scale, and a parallel-sweep fan-out smoke -- and emits a
schema-versioned JSON result
(``BENCH_<suite>.json``) that is compared against a committed baseline:

* **deterministic metrics** (task counts, objectives, N/T/P) are compared
  *exactly*; any drift is a behaviour regression, not noise.  The suite
  pins seeds and runs the solver fail-limited with LNS off, so results are
  machine-independent.  The overhead metric O is wall-clock and therefore
  excluded.
* **wall times** are compared through a *calibration workload*: each
  case's ``normalized_time`` is its wall time divided by the time of a
  fixed CPU-bound calibration run on the same machine, which cancels
  machine speed.  A case regresses when its normalized time exceeds the
  baseline by more than ``wall_tolerance`` (default 1.6x -- comfortably
  flagging a 2x slowdown while riding out scheduler jitter).

``compare`` returns human-readable failure strings; the CLI exits nonzero
on any.  ``--inflate`` multiplies current normalized times before the
comparison (a synthetic slowdown, used by CI to prove the harness trips),
and ``--replay`` re-compares a previously written result file without
re-running the suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ioutil import atomic_write_json

SCHEMA = "repro-bench/1"
DEFAULT_SUITE = "core"
DEFAULT_BASELINE = "BENCH_core.json"
#: Current-vs-baseline normalized-time ratio above which a case regresses.
WALL_TOLERANCE = 1.6
#: Cases whose wall time is dominated by OS process-spawn cost rather than
#: simulator/solver work; their normalized time is recorded as 0.0 so the
#: wall gate skips them while their deterministic metrics stay pinned.
WALL_EXEMPT = frozenset({"sweep_pool"})

# --------------------------------------------------------------------------
# Suite definition
# --------------------------------------------------------------------------


#: Iteration count of the calibration spin loop.  Sized so the pre-existing
#: pinned baseline norms stay on their historical scale (the spin wall is
#: close to what the old solver-shaped calibration measured on the baseline
#: machine), but the value itself is arbitrary: only its *fixity* matters.
_CALIBRATION_SPIN = 100_000


def _case_calibration() -> Tuple[float, Dict[str, Any]]:
    """Fixed CPU-bound workload used only to normalise wall times.

    Measured once per suite round, immediately before the cases of that
    round, so that a box-wide slowdown inflates calibration and case
    walls together and cancels out of the normalized ratio.

    The workload is a pure interpreter spin (an LCG loop), deliberately
    *not* built from solver code.  An earlier version ran model build +
    list scheduling here, which had two defects as a measuring stick:

    * it was self-referential -- optimising the solver shrank the yardstick
      together with the cases, understating (or hiding) real speedups; and
    * it did not transfer across machines -- the solver cases and the
      calibration workload stress allocation and compute in different
      proportions, so a box with a different memory/compute balance saw
      normalized times drift by 2x with zero code changes, tripping the
      replay tolerance on untouched code.

    A fixed arithmetic spin has neither problem: it is immutable under
    solver changes, and it scales with interpreter speed the same way the
    (equally interpreter-bound) solver hot loops do.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(_CALIBRATION_SPIN):
        acc = (acc * 1103515245 + 12345 + i) % 2147483647
    wall = time.perf_counter() - t0
    return wall, {"acc": acc % 9973}


def _case_solver_micro_warm() -> Tuple[float, Dict[str, Any]]:
    """Model build + warm-start list scheduling on the 15-job batch."""
    from repro.core.formulation import build_model
    from repro.cp.heuristics import list_schedule
    from repro.experiments.configs import micro_batch

    jobs, resources = micro_batch(30)
    t0 = time.perf_counter()
    for _ in range(20):  # amplify the ~5ms op well above timer noise
        formulation = build_model(jobs, resources, now=0)
        formulation.model.engine().reset()
        solution = list_schedule(formulation.model, "edf")
    wall = time.perf_counter() - t0
    return wall, {
        "tasks": len(formulation.interval_of),
        "warm_late": solution.objective,
    }


def _case_solver_micro_solve() -> Tuple[float, Dict[str, Any]]:
    """Full deterministic (fail-limited, LNS-off) solve of the 15-job batch."""
    from repro.core.formulation import build_model
    from repro.cp.solver import CpSolver
    from repro.experiments.configs import bench_solver_params, micro_batch

    jobs, resources = micro_batch(30, deadline_multiplier_max=1.2)
    solver = CpSolver(bench_solver_params())
    t0 = time.perf_counter()
    formulation = build_model(jobs, resources, now=0)
    result = solver.solve(formulation.model)
    wall = time.perf_counter() - t0
    return wall, {
        "objective": result.objective,
        "has_solution": bool(result.status.has_solution),
        "fails": result.stats.fails,
        "branches": result.stats.branches,
    }


def _run_once_case(config, repeats: int = 3) -> Tuple[float, Dict[str, Any]]:
    """Run one experiment config; report wall + the deterministic metrics.

    Repeated back-to-back to lift the ~20ms smoke runs well above timer
    noise.  O (scheduling overhead) is wall-clock and excluded; N/T/P
    depend only on the seeded workload and the deterministic solver.
    """
    from repro.experiments.runner import run_once

    t0 = time.perf_counter()
    for _ in range(repeats):
        metrics = run_once(config)
    wall = time.perf_counter() - t0
    summary = metrics.as_dict()
    return wall, {
        "N": summary["N"],
        "T": summary["T"],
        "P": summary["P"],
        "jobs": metrics.jobs_arrived,
        "invocations": metrics.scheduler_invocations,
    }


def _case_fig2_small() -> Tuple[float, Dict[str, Any]]:
    """Figure 2 shape at smoke scale: Facebook workload through MRCP-RM."""
    from repro.core import MrcpRmConfig
    from repro.experiments.configs import bench_solver_params
    from repro.experiments.runner import RunConfig, SystemConfig
    from repro.workload import FacebookWorkloadParams

    config = RunConfig(
        scheduler="mrcp-rm",
        workload="facebook",
        facebook=FacebookWorkloadParams(
            num_jobs=10,
            arrival_rate=0.002,
            deadline_multiplier_max=1.3,
            scale=0.05,
        ),
        system=SystemConfig(num_resources=3, map_slots=1, reduce_slots=1),
        mrcp=MrcpRmConfig(solver=bench_solver_params()),
        seed=2,
    )
    return _run_once_case(config)


def _case_fig7_small() -> Tuple[float, Dict[str, Any]]:
    """Figure 7 shape at smoke scale: tight-deadline synthetic workload."""
    from repro.experiments.configs import fig7_smoke_config

    return _run_once_case(fig7_smoke_config())


def _case_sweep_pool() -> Tuple[float, Dict[str, Any]]:
    """Parallel fan-out smoke: 2 workers over a 4-cell deterministic sweep.

    The metric pins a digest of the merged CSV, so any drift in cell
    seeding, order-independent merging, or the pinned-clock determinism
    shows up as an exact mismatch; the wall time tracks fan-out overhead
    (pool startup, pickling, per-cell dispatch) for the regression gate.
    """
    import hashlib
    from dataclasses import replace as _replace

    from repro.experiments.configs import LabeledConfig, fig7_smoke_config
    from repro.experiments.pool import SweepSpec, run_sweep

    base = fig7_smoke_config()  # cells draw their own seeds from root_seed

    def point(arrival_rate: float) -> LabeledConfig:
        synthetic = _replace(
            base.synthetic,
            num_jobs=6,
            map_tasks_range=(1, 6),
            reduce_tasks_range=(1, 3),
            arrival_rate=arrival_rate,
        )
        return LabeledConfig(
            label=f"lambda={arrival_rate:g}",
            factor_value=arrival_rate,
            scheduler="mrcp-rm",
            config=_replace(base, synthetic=synthetic),
        )

    spec = SweepSpec(
        name="bench-sweep",
        configs=[point(0.025), point(0.05)],
        factor="lambda",
        replications=2,
        root_seed=3,
    )
    t0 = time.perf_counter()
    result = run_sweep(spec, workers=2, retries=0)
    wall = time.perf_counter() - t0
    csv_digest = hashlib.sha256(result.to_csv().encode("utf-8")).hexdigest()
    return wall, {
        "cells": len(result.outcomes),
        "ok": len(result.ok_cells),
        "csv_sha256": csv_digest[:16],
    }


def _case_telemetry_overhead() -> Tuple[float, Dict[str, Any]]:
    """Zero-overhead contract: telemetry on vs off, identical O/N/T/P.

    Both runs pin the overhead clock (O counts clock samples, so any
    sampler call leaking into the measured path would shift it); the
    metrics pin the equality flag, the sample count, and the fired-alert
    count.  The wall time is the telemetry-on run only, so the regression
    gate tracks the sampler's real cost.
    """
    from dataclasses import replace as _replace

    from repro.experiments.configs import fig7_smoke_config
    from repro.experiments.runner import RunConfig, build_live_run
    from repro.obs import ObsConfig
    from repro.obs.clocks import PinnedClock
    from repro.obs.timeseries import TelemetryConfig

    base = fig7_smoke_config()

    def with_obs(telemetry) -> RunConfig:
        return _replace(
            base, obs=ObsConfig(wall_clock=PinnedClock(), telemetry=telemetry)
        )

    off = build_live_run(with_obs(None)).finish()
    t0 = time.perf_counter()
    run = build_live_run(
        with_obs(TelemetryConfig(enabled=True, interval=5.0))
    )
    on = run.finish()
    wall = time.perf_counter() - t0
    return wall, {
        "ontp_equal": on.as_dict() == off.as_dict(),
        "samples": len(run.sampler.store),
        "alerts_fired": len(run.slo_monitor.fired),
        "N": on.as_dict()["N"],
        "P": on.as_dict()["P"],
    }


def _case_service_admission_latency() -> Tuple[float, Dict[str, Any]]:
    """Admission-service load run: pinned verdicts, gated quoting wall.

    The in-process harness drives the service's sync core under a manual
    service clock, so everything in ``metrics`` -- counts, the verdict
    digest (canonical verdicts exclude solve wall time), and the
    *service-time* latency percentiles (dominated by the batching hold
    bound) -- is exactly reproducible; ``mrcp-rm bench --replay`` replays
    it byte-for-byte.  The measured wall time is the whole run (all
    quoting solves), which is what the calibration-normalised latency
    budget in CI actually gates.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.service.batching import BatchingConfig
    from repro.service.loadgen import LoadProfile, run_inprocess
    from repro.service.server import ServiceConfig

    profile = LoadProfile(requests=80, seed=11, arrival_rate=0.5)
    config = ServiceConfig(
        batching=BatchingConfig(max_batch_size=8, max_hold_seconds=0.05)
    )
    t0 = time.perf_counter()
    report = run_inprocess(
        profile, config=config, num_resources=4, registry=MetricsRegistry()
    )
    wall = time.perf_counter() - t0
    return wall, {
        "requests": report.requests,
        "admitted": report.admitted,
        "rejected": report.rejected,
        "shed": report.shed,
        "digest": report.digest,
        "held_p50": round(report.latency_p50, 6),
        "held_p99": round(report.latency_p99, 6),
    }


#: The pinned suite: name -> case callable returning (wall, metrics).
CASES: Dict[str, Callable[[], Tuple[float, Dict[str, Any]]]] = {
    "solver_micro_warm": _case_solver_micro_warm,
    "solver_micro_solve": _case_solver_micro_solve,
    "fig2_small": _case_fig2_small,
    "fig7_small": _case_fig7_small,
    "sweep_pool": _case_sweep_pool,
    "telemetry_overhead": _case_telemetry_overhead,
    "service_admission_latency": _case_service_admission_latency,
}


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


def env_fingerprint() -> Dict[str, Any]:
    """Where the result was produced (informational; never compared)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_suite(smoke: bool = False, suite: str = DEFAULT_SUITE) -> Dict[str, Any]:
    """Run every case ``rounds`` times; keep min wall + last metrics.

    ``smoke`` runs three rounds per case (CI-friendly); the full suite
    runs five for a cleaner baseline.  Each round re-measures the calibration workload immediately
    before its cases and normalizes that round's walls against it, so a
    box-wide slowdown cancels out of the ratio; the minimum normalized
    time across rounds is kept (the standard low-noise estimator).
    Metrics must be identical across rounds -- a mismatch means
    nondeterminism crept into a pinned case, and is itself an error.
    """
    rounds = 3 if smoke else 5
    best_cal: Optional[float] = None
    best_wall: Dict[str, float] = {}
    best_norm: Dict[str, float] = {}
    metrics_of: Dict[str, Dict[str, Any]] = {}
    for _ in range(rounds):
        cal_wall, _ = _case_calibration()
        best_cal = cal_wall if best_cal is None else min(best_cal, cal_wall)
        for name, fn in CASES.items():
            wall, m = fn()
            if name in metrics_of and m != metrics_of[name]:
                raise RuntimeError(
                    f"bench case {name!r} is nondeterministic: "
                    f"{metrics_of[name]} != {m}"
                )
            metrics_of[name] = m
            best_wall[name] = min(best_wall.get(name, wall), wall)
            best_norm[name] = min(
                best_norm.get(name, wall / cal_wall), wall / cal_wall
            )
    cases: Dict[str, Any] = {
        name: {
            "wall": round(best_wall[name], 6),
            "normalized_time": (
                0.0 if name in WALL_EXEMPT else round(best_norm[name], 6)
            ),
            "metrics": metrics_of[name],
        }
        for name in CASES
    }
    return {
        "schema": SCHEMA,
        "suite": suite,
        "smoke": smoke,
        "rounds": rounds,
        "calibration_time": round(best_cal, 6),
        "env": env_fingerprint(),
        "cases": cases,
    }


# --------------------------------------------------------------------------
# Comparing
# --------------------------------------------------------------------------


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    wall_tolerance: float = WALL_TOLERANCE,
    inflate: float = 1.0,
) -> List[str]:
    """Compare a result against the baseline; return failure descriptions.

    Deterministic metrics must match exactly; normalized times may grow by
    at most ``wall_tolerance``x.  ``inflate`` synthetically multiplies the
    current normalized times first (harness self-test).  An empty list
    means no regression.
    """
    failures: List[str] = []
    if current.get("schema") != SCHEMA or baseline.get("schema") != SCHEMA:
        return [
            f"schema mismatch: current={current.get('schema')!r} "
            f"baseline={baseline.get('schema')!r} expected={SCHEMA!r}"
        ]
    base_cases = baseline.get("cases", {})
    cur_cases = current.get("cases", {})
    for name, base in base_cases.items():
        cur = cur_cases.get(name)
        if cur is None:
            failures.append(f"{name}: case missing from current result")
            continue
        for key, expected in base["metrics"].items():
            got = cur["metrics"].get(key)
            if got != expected:
                failures.append(
                    f"{name}: metric {key!r} changed: "
                    f"baseline={expected!r} current={got!r}"
                )
        base_norm = base["normalized_time"]
        cur_norm = cur["normalized_time"] * inflate
        if base_norm > 0 and cur_norm > base_norm * wall_tolerance:
            failures.append(
                f"{name}: normalized time {cur_norm:.3f} exceeds baseline "
                f"{base_norm:.3f} x tolerance {wall_tolerance:g} "
                f"(ratio {cur_norm / base_norm:.2f})"
            )
    return failures


def bench_diff_stub(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> Dict[str, Any]:
    """A ``repro-diff/1`` document of per-case pinned-metric deltas.

    The bench gate's failure strings name the offending case; this stub is
    the machine-readable companion (baseline = side "a", current run =
    side "b"), shaped like the run-diff engine's output so one consumer
    reads both.  Cases whose pinned metrics match exactly are listed with
    an empty ``changed`` list; wall times are reported as context, never
    as divergence.
    """
    from repro.obs.structdiff import structural_diff

    base_cases = baseline.get("cases", {})
    cur_cases = current.get("cases", {})
    rows: Dict[str, Any] = {}
    divergent = 0
    for name in sorted(set(base_cases) | set(cur_cases)):
        base = base_cases.get(name, {})
        cur = cur_cases.get(name, {})
        changed = [
            e.as_dict()
            for e in structural_diff(
                base.get("metrics", {}), cur.get("metrics", {})
            )
        ]
        if name not in base_cases:
            changed.insert(
                0, {"path": "", "kind": "extra", "a": None, "b": "case"}
            )
        elif name not in cur_cases:
            changed.insert(
                0, {"path": "", "kind": "missing", "a": "case", "b": None}
            )
        if changed:
            divergent += 1
        rows[name] = {
            "verdict": "divergent" if changed else "identical",
            "changed": changed,
            "normalized_time": {
                "a": base.get("normalized_time"),
                "b": cur.get("normalized_time"),
            },
        }
    return {
        "schema": "repro-diff/1",
        "kind": "bench",
        "verdict": "divergent" if divergent else "identical",
        "a": {"label": "baseline", "suite": baseline.get("suite")},
        "b": {"label": "current", "suite": current.get("suite")},
        "cases_total": len(rows),
        "cases_divergent": divergent,
        "cases": rows,
    }


def load_result(path: str) -> Dict[str, Any]:
    """Read a bench result/baseline JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_result(path: str, result: Dict[str, Any]) -> None:
    """Write a bench result JSON file (stable key order, trailing newline)."""
    atomic_write_json(path, result, sort_keys=False)


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro bench`` options onto ``parser``."""
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline JSON to compare against (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--out", default=None, help="also write the current result here"
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="(re)write the baseline from this run instead of comparing",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one round per case instead of three (CI)",
    )
    parser.add_argument(
        "--inflate",
        type=float,
        default=1.0,
        help="multiply current normalized times before comparing "
        "(harness self-test; 2.0 must fail)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=WALL_TOLERANCE,
        help=f"normalized-time growth tolerance (default {WALL_TOLERANCE})",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="RESULT_JSON",
        help="compare this previously written result instead of re-running",
    )
    parser.add_argument(
        "--diff-out",
        default=None,
        metavar="DIFF_JSON",
        help="on regression, also write a repro-diff/1 stub of the "
        "per-case pinned-metric deltas here",
    )


def run_bench_command(args: argparse.Namespace) -> int:
    """Execute ``repro bench``; returns the process exit code.

    0 = no regression (or baseline updated); 1 = regression detected;
    2 = baseline missing/unreadable.
    """
    if args.replay is not None:
        current = load_result(args.replay)
        print(f"replaying result from {args.replay}")
    else:
        current = run_suite(smoke=args.smoke)
        for name, case in current["cases"].items():
            print(
                f"  {name:24s} wall={case['wall']:.3f}s "
                f"norm={case['normalized_time']:.3f} "
                f"metrics={case['metrics']}"
            )
    if args.out is not None and args.replay is None:
        write_result(args.out, current)
        print(f"wrote result to {args.out}")
    if args.update:
        write_result(args.baseline, current)
        print(f"baseline updated: {args.baseline}")
        return 0
    if not os.path.exists(args.baseline):
        print(
            f"error: baseline {args.baseline} not found "
            "(run with --update to create it)",
            file=sys.stderr,
        )
        return 2
    baseline = load_result(args.baseline)
    failures = compare(
        current, baseline, wall_tolerance=args.tolerance, inflate=args.inflate
    )
    if failures:
        print(f"REGRESSION: {len(failures)} failure(s)", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        offending = sorted({f.split(":", 1)[0] for f in failures})
        print(f"offending case(s): {', '.join(offending)}", file=sys.stderr)
        if args.diff_out is not None:
            atomic_write_json(args.diff_out, bench_diff_stub(current, baseline))
            print(f"diff stub written: {args.diff_out}", file=sys.stderr)
        return 1
    print(f"ok: {len(baseline.get('cases', {}))} cases within tolerance")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__.splitlines()[0]
    )
    add_bench_arguments(parser)
    return run_bench_command(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
