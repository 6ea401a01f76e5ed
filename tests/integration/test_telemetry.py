"""Live telemetry end to end: zero overhead, exact finals, determinism.

The zero-overhead contract needs a pinned wall clock in *both* arms:
measured overhead O counts clock draws, and a real ``perf_counter`` makes
O different run to run regardless of telemetry.
"""

import json
from dataclasses import replace

from repro.experiments.runner import (
    RunConfig,
    SystemConfig,
    build_live_run,
    run_once,
)
from repro.obs import ObsConfig
from repro.obs.clocks import PinnedClock
from repro.obs.export import (
    render_openmetrics,
    render_series_openmetrics,
    validate_openmetrics,
)
from repro.obs.timeseries import TelemetryConfig, read_series_jsonl
from repro.workload import SyntheticWorkloadParams

SEED = 7


def _config(telemetry=None):
    return RunConfig(
        workload="synthetic",
        synthetic=SyntheticWorkloadParams(
            num_jobs=6,
            map_tasks_range=(1, 4),
            reduce_tasks_range=(1, 2),
            e_max=8,
            ar_probability=0.3,
            s_max=150,
            deadline_multiplier_max=3.0,
            arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=3),
        obs=ObsConfig(wall_clock=PinnedClock(), telemetry=telemetry),
        seed=SEED,
    )


def _telemetry(**kw):
    kw.setdefault("enabled", True)
    kw.setdefault("interval", 5.0)
    return TelemetryConfig(**kw)


def _overload_config(seed=0, telemetry=None):
    """The CLI's overload-burst scenario: 10x arrivals, degrading ladder."""
    from repro.experiments.configs import overload_config

    config = overload_config(seed=seed)
    if telemetry is not None:
        config = replace(config, obs=replace(config.obs, telemetry=telemetry))
    return config


# ------------------------------------------------------------ zero overhead


def test_telemetry_on_equals_off_ontp():
    """Sampling must never change the paper metrics, O included."""
    off = run_once(_config(telemetry=None))
    on = run_once(_config(telemetry=_telemetry()))
    assert off.as_dict() == on.as_dict()
    assert off.turnarounds == on.turnarounds
    assert off.late_job_ids == on.late_job_ids


# ------------------------------------------------------------- final sample


def test_final_sample_matches_finalized_metrics():
    run = build_live_run(_config(telemetry=_telemetry()))
    metrics = run.finish()
    last = run.sampler.store.last
    assert last["final"] is True
    assert {k: last[k] for k in ("O", "N", "T", "P")} == metrics.as_dict()
    assert last["jobs_completed"] == metrics.jobs_completed
    assert last["invocations"] == metrics.scheduler_invocations


def test_series_file_written_and_conformant(tmp_path):
    series = str(tmp_path / "series.jsonl")
    telemetry = _telemetry(series_out=series)
    run = build_live_run(_config(telemetry=telemetry))
    run.finish()
    meta, samples = read_series_jsonl(series)
    assert meta["samples"] == len(samples) > 1
    assert samples[-1]["final"] is True
    # the sampled series also renders to valid OpenMetrics
    assert validate_openmetrics(render_series_openmetrics(samples)) == []
    assert validate_openmetrics(render_openmetrics(run.tracer.registry)) == []


# -------------------------------------------------------------- determinism


def test_series_byte_identical_across_same_seed_runs(tmp_path):
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        series = str(tmp_path / name)
        run = build_live_run(_config(telemetry=_telemetry(series_out=series)))
        run.finish()
        paths.append(series)
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b


def test_overload_burst_fires_deterministic_slo_alert(tmp_path):
    fired_sets = []
    for rep in range(2):
        alerts = str(tmp_path / f"alerts-{rep}.jsonl")
        run = build_live_run(
            _overload_config(telemetry=_telemetry(alerts_out=alerts))
        )
        run.finish()
        assert run.slo_monitor is not None
        fired = run.slo_monitor.fired
        assert fired, "overload burst must trip at least one SLO"
        assert "degraded-solves" in {a.name for a in fired}
        rows = [
            json.loads(line)
            for line in open(alerts, encoding="utf-8").read().splitlines()
        ]
        assert any(r["state"] == "fired" for r in rows)
        fired_sets.append([(a.name, a.sim_time, a.burn_long) for a in fired])
    assert fired_sets[0] == fired_sets[1]


# -------------------------------------------------------------- sweep rollup


def test_sweep_writes_fleet_series_rollup(tmp_path):
    import pytest

    from repro.experiments.configs import LabeledConfig
    from repro.experiments.pool import (
        SWEEP_SERIES_SCHEMA,
        SweepSpec,
        run_sweep,
    )

    configs = [
        LabeledConfig(
            label=label,
            factor_value=float(i),
            scheduler="mrcp-rm",
            config=_config(),
        )
        for i, label in enumerate(("a", "b"))
    ]
    spec = SweepSpec(
        name="tele",
        configs=configs,
        factor="arrival_rate",
        replications=1,
        root_seed=0,
        telemetry=True,
    )
    with pytest.raises(ValueError, match="out_dir"):
        run_sweep(spec)  # telemetry needs somewhere to put the series
    out_dir = str(tmp_path / "sweep")
    result = run_sweep(spec, out_dir=out_dir)
    assert all(o.status == "ok" for o in result.outcomes)
    lines = [
        json.loads(line)
        for line in open(
            f"{out_dir}/sweep.series.jsonl", encoding="utf-8"
        ).read().splitlines()
    ]
    assert lines[0] == {"schema": SWEEP_SERIES_SCHEMA, "cells": 2}
    for row in lines[1:]:
        assert row["series"] is not None
        final = row["series"]["final"]
        assert set(final) >= {"O", "N", "T", "P", "sim_time"}
        assert row["series"]["samples"] == row["series"]["total_samples"]
