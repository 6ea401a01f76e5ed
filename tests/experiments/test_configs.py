"""Figure/ablation configuration definitions and the pinned scenarios."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core.formulation import FormulationMode
from repro.experiments.configs import (
    PAPER,
    SCALED,
    default_chaos_config,
    default_diff_config,
    default_facebook_params,
    default_synthetic_params,
    demo_config,
    escalation_ladder,
    figure_series,
    forensics_config,
    fresh_run_config,
    list_figures,
    overload_config,
)
from repro.experiments.runner import build_live_run
from repro.faults import FaultModel
from repro.resilience.checkpoint import config_fingerprint
from repro.workload import make_uniform_cluster


def test_all_figures_listed():
    figures = list_figures()
    for fig in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
        assert fig in figures
    assert any(f.startswith("ablation-") for f in figures)


@pytest.mark.parametrize("figure", list_figures())
@pytest.mark.parametrize("profile", [SCALED, PAPER])
def test_every_series_builds_valid_configs(figure, profile):
    series = figure_series(figure, profile)
    assert series.configs
    for labeled in series.configs:
        labeled.config.validate()


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        figure_series("fig99")
    with pytest.raises(ValueError):
        figure_series("fig2", profile="huge")


def test_fig2_pairs_both_schedulers_per_lambda():
    series = figure_series("fig2", SCALED)
    lambdas = {c.factor_value for c in series.configs}
    assert len(lambdas) == 5
    for lam in lambdas:
        scheds = {
            c.scheduler for c in series.configs if c.factor_value == lam
        }
        assert scheds == {"mrcp-rm", "minedf-wc"}


def test_fig4_varies_only_emax():
    series = figure_series("fig4", SCALED)
    e_values = [c.config.synthetic.e_max for c in series.configs]
    assert e_values == [10, 50, 100]
    rates = {c.config.synthetic.arrival_rate for c in series.configs}
    assert len(rates) == 1  # factor-at-a-time: everything else fixed


def test_fig9_scales_resource_counts_per_profile():
    scaled = figure_series("fig9", SCALED)
    paper = figure_series("fig9", PAPER)
    assert [c.config.system.num_resources for c in scaled.configs] == [5, 10, 20]
    assert [c.config.system.num_resources for c in paper.configs] == [25, 50, 100]


def test_paper_profile_uses_table3_ranges():
    params = default_synthetic_params(PAPER)
    assert params.map_tasks_range == (1, 100)
    assert params.reduce_tasks_range == (1, 100)
    scaled = default_synthetic_params(SCALED)
    assert scaled.map_tasks_range[1] < 100


def test_facebook_paper_profile_full_scale():
    params = default_facebook_params(PAPER)
    assert params.num_jobs == 1000
    assert params.scale == 1.0
    assert params.deadline_multiplier_max == 2.0


def test_ablation_separation_modes():
    series = figure_series("ablation-separation", SCALED)
    modes = [c.config.mrcp.mode for c in series.configs]
    assert FormulationMode.COMBINED in modes
    assert FormulationMode.JOINT in modes


def test_ablation_lns_toggles_solver_flag():
    series = figure_series("ablation-lns", SCALED)
    flags = {c.config.mrcp.solver.use_lns for c in series.configs}
    assert flags == {True, False}


def test_ablation_replanning_toggles():
    series = figure_series("ablation-replanning", SCALED)
    flags = {c.config.mrcp.replan for c in series.configs}
    assert flags == {True, False}


def test_ablation_hints_toggles():
    series = figure_series("ablation-hints", SCALED)
    flags = {c.config.mrcp.use_hints for c in series.configs}
    assert flags == {True, False}


def test_workflow_extension_series():
    depth = figure_series("ext-workflow-depth", SCALED)
    assert all(c.config.workload == "workflow" for c in depth.configs)
    assert [c.factor_value for c in depth.configs] == [2.0, 4.0, 6.0]
    density = figure_series("ext-workflow-density", SCALED)
    probs = [c.config.workflow.extra_edge_probability for c in density.configs]
    assert probs == [0.0, 0.4, 0.8]


def test_series_have_fresh_param_objects():
    """Mutating one point's params must not leak into another point."""
    series = figure_series("fig4", SCALED)
    a, b = series.configs[0].config, series.configs[1].config
    assert a.synthetic is not b.synthetic
    assert a.system is not b.system or a.system == b.system


# ------------------------------------------------------------ pinned scenarios
# Values captured from the hand-wired builders these scenarios replaced:
# the fingerprints from the chaos/diff modules' configs, the job digests
# from the demo's and the report's own workload generation.


@pytest.mark.parametrize(
    "build,fingerprint",
    [
        (lambda: default_chaos_config(), "4851aac5410be983"),
        (
            lambda: default_chaos_config(faults=False, ladder=escalation_ladder()),
            "b5fcae8ba1c2888f",
        ),
        (lambda: overload_config(), "8b583b83e344f8be"),
        (lambda: default_diff_config(), "a3385170c427b7ff"),
        (lambda: default_diff_config(fail_limit=1), "7f9bd5a65a46a57c"),
    ],
    ids=["chaos", "chaos_ladder", "overload", "diff", "diff_fail_limit_1"],
)
def test_scenario_fingerprints_are_pinned(build, fingerprint):
    """Checkpoints taken before the scenarios moved still restore."""
    assert config_fingerprint(build(), 0) == fingerprint


def _job_digest(jobs):
    rows = [
        [
            j.id,
            j.arrival_time,
            j.earliest_start,
            j.deadline,
            [t.duration for t in j.map_tasks],
            [t.duration for t in j.reduce_tasks],
        ]
        for j in jobs
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


_DEMO_FAULTS = FaultModel(
    task_failure_prob=0.15, straggler_prob=0.1, straggler_factor=2.5
)


@pytest.mark.parametrize(
    "seed,digest",
    [
        (0, "a787a58f40d83b03"),
        (1, "517db3a1bc698b2d"),
        (7, "f8b0e387fb889b5b"),
        (42, "53d372b851ec1f63"),
    ],
)
@pytest.mark.parametrize("faults", [False, True])
def test_demo_scenario_draws_the_seeded_stream(seed, digest, faults):
    config = demo_config(faults=_DEMO_FAULTS if faults else None)
    run = build_live_run(config, replication=seed)
    assert _job_digest(run.jobs) == digest
    assert run.resources == make_uniform_cluster(4, 2, 2)
    expected = replace(_DEMO_FAULTS, seed=seed) if faults else None
    assert run.manager.config.faults == expected


@pytest.mark.parametrize(
    "seed,digest",
    [(0, "213ee553b1e8558d"), (3, "9014c5b284e544ef"), (42, "805e0e9550f245f7")],
)
@pytest.mark.parametrize("faults", [False, True])
def test_forensics_scenario_draws_the_seeded_stream(seed, digest, faults):
    run = build_live_run(forensics_config(faults=faults), replication=seed)
    assert _job_digest(run.jobs) == digest
    assert run.resources == make_uniform_cluster(4, 2, 2)
    assert run.tracer.enabled and run.sampler.enabled
    assert run.manager.config.record_plan_history
    expected = None
    if faults:
        expected = FaultModel(
            task_failure_prob=0.15,
            straggler_prob=0.2,
            straggler_factor=2.0,
            outage_rate=0.002,
            outage_duration_range=(30.0, 90.0),
            outage_horizon=2000.0,
            seed=seed,
        )
    assert run.manager.config.faults == expected


def test_fresh_run_config_resets_only_consumed_carriers():
    config = overload_config()
    assert fresh_run_config(config) is config
    build_live_run(config).finish()
    fresh = fresh_run_config(config)
    assert fresh.obs.wall_clock.count == 0
    assert not fresh.mrcp.resilience.chaos.consumed
    assert config_fingerprint(fresh, 0) == config_fingerprint(config, 0)
