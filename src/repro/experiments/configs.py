"""Per-figure experiment definitions (Figures 2-9) plus ablations.

Every figure of the paper's evaluation maps to a :class:`FigureSeries`: the
factor being varied, and one :class:`~repro.experiments.runner.RunConfig`
per (factor value, scheduler) combination.

Two profiles:

* ``SCALED`` (default): the same parameter *geometry* as Table 3/4 with task
  counts and the cluster shrunk 5x (synthetic) / 10x (Facebook) and short
  job streams -- minutes of wall time on a laptop.  Workload intensity
  (work per job relative to cluster capacity per inter-arrival) is
  preserved, so the figures' qualitative shapes are reproduced.
* ``PAPER``: the original Table 3/4 values.  Expect hours of wall time; use
  for spot checks rather than sweeps.

The boldface (default) values of Table 3 are not recoverable from the
paper's text; DESIGN.md Section 4 records the choices used here
(e_max=50, p=0.5, s_max=10000, d_UL=5, lambda=0.01, m=50).

This module is also the one home of every *pinned scenario* -- the small
seeded runs behind ``mrcp-rm demo``/``report``/``telemetry``/``checkpoint``/
``chaos``/``diff``, the examples and the bench suite -- and of the pinning
recipe (:func:`deterministic_run_config`, :func:`fresh_run_config`) that
makes a run byte-reproducible.  Every one of them is a plain
:class:`~repro.experiments.runner.RunConfig` that
:func:`~repro.experiments.runner.build_live_run` wires up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.formulation import FormulationMode
from repro.core.mrcp_rm import MrcpRmConfig
from repro.cp.solver import SolverParams
from repro.experiments.runner import RunConfig, SystemConfig
from repro.faults import FaultModel, OutageWindow
from repro.obs import ObsConfig
from repro.obs.clocks import PinnedClock
from repro.obs.timeseries import TelemetryConfig
from repro.resilience.breaker import InjectedSolverFailures, LadderConfig
from repro.workload import (
    FacebookWorkloadParams,
    SyntheticWorkloadParams,
    WorkflowWorkloadParams,
    generate_synthetic_workload,
    make_uniform_cluster,
)

SCALED = "scaled"
PAPER = "paper"
PROFILES = (SCALED, PAPER)


@dataclass
class LabeledConfig:
    """One point of a figure: a factor value (and scheduler) to run."""

    label: str
    factor_value: float
    scheduler: str
    config: RunConfig


@dataclass
class FigureSeries:
    """All runs needed to regenerate one figure."""

    figure: str
    title: str
    factor: str
    configs: List[LabeledConfig]
    metrics: Sequence[str] = ("O", "T", "P")
    notes: str = ""


def _check_profile(profile: str) -> None:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected {PROFILES}")


# --------------------------------------------------------------------------
# Baseline parameterisations per profile
# --------------------------------------------------------------------------

def default_solver_params(profile: str) -> SolverParams:
    """Per-invocation CP budget for the given profile."""
    if profile == SCALED:
        return SolverParams(time_limit=0.15, tree_fail_limit=300)
    return SolverParams(time_limit=0.5, tree_fail_limit=1000)


def default_mrcp_config(profile: str) -> MrcpRmConfig:
    """MRCP-RM configuration with the profile's solver budget."""
    return MrcpRmConfig(solver=default_solver_params(profile))


def default_synthetic_params(profile: str) -> SyntheticWorkloadParams:
    """Table 3 defaults (DESIGN.md Section 4), scaled 5x when requested."""
    _check_profile(profile)
    if profile == SCALED:
        return SyntheticWorkloadParams(
            num_jobs=40,
            map_tasks_range=(1, 20),
            reduce_tasks_range=(1, 20),
            e_max=50,
            ar_probability=0.5,
            s_max=10_000,
            deadline_multiplier_max=5.0,
            arrival_rate=0.01,
        )
    return SyntheticWorkloadParams(
        num_jobs=400,
        map_tasks_range=(1, 100),
        reduce_tasks_range=(1, 100),
        e_max=50,
        ar_probability=0.5,
        s_max=10_000,
        deadline_multiplier_max=5.0,
        arrival_rate=0.01,
    )


def default_synthetic_system(profile: str) -> SystemConfig:
    """The paper's system defaults (m=50 x (2,2)); m=10 when scaled."""
    return SystemConfig(
        num_resources=10 if profile == SCALED else 50,
        map_slots=2,
        reduce_slots=2,
    )


def default_facebook_params(profile: str) -> FacebookWorkloadParams:
    """Table 4 workload defaults per profile (10x scaled or full)."""
    _check_profile(profile)
    if profile == SCALED:
        return FacebookWorkloadParams(
            num_jobs=60,
            arrival_rate=0.0001,
            deadline_multiplier_max=2.0,
            scale=0.1,
        )
    return FacebookWorkloadParams(
        num_jobs=1000,
        arrival_rate=0.0001,
        deadline_multiplier_max=2.0,
        scale=1.0,
    )


def default_facebook_system(profile: str) -> SystemConfig:
    """Figures 2-3 system: 64 x (1,1) resources (8 when scaled)."""
    return SystemConfig(
        num_resources=8 if profile == SCALED else 64,
        map_slots=1,
        reduce_slots=1,
    )


def _synthetic_config(profile: str, **overrides) -> RunConfig:
    params = default_synthetic_params(profile)
    system = default_synthetic_system(profile)
    mrcp = default_mrcp_config(profile)
    cfg = RunConfig(
        scheduler="mrcp-rm",
        workload="synthetic",
        synthetic=params,
        system=system,
        mrcp=mrcp,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# --------------------------------------------------------------------------
# Figures 2-3: MRCP-RM vs MinEDF-WC on the Facebook workload
# --------------------------------------------------------------------------

def _facebook_lambdas(profile: str) -> List[float]:
    # Paper sweeps 0.0001 .. 0.0005 jobs/s.
    return [0.0001, 0.0002, 0.0003, 0.0004, 0.0005]


def _fig2_fig3(profile: str, figure: str, title: str, metrics) -> FigureSeries:
    configs: List[LabeledConfig] = []
    for lam in _facebook_lambdas(profile):
        for sched in ("mrcp-rm", "minedf-wc"):
            fb = replace(default_facebook_params(profile), arrival_rate=lam)
            cfg = RunConfig(
                scheduler=sched,
                workload="facebook",
                facebook=fb,
                system=default_facebook_system(profile),
                mrcp=default_mrcp_config(profile),
            )
            configs.append(
                LabeledConfig(
                    label=f"lambda={lam:g}/{sched}",
                    factor_value=lam,
                    scheduler=sched,
                    config=cfg,
                )
            )
    return FigureSeries(
        figure=figure,
        title=title,
        factor="lambda (jobs/s)",
        configs=configs,
        metrics=metrics,
        notes=(
            "Facebook Table 4 workload; deadlines U[1,2]*TE; p=0; "
            "1 map + 1 reduce slot per resource."
        ),
    )


# --------------------------------------------------------------------------
# Figures 4-9: factor-at-a-time on the synthetic workload
# --------------------------------------------------------------------------

def _factor_series(
    profile: str,
    figure: str,
    title: str,
    factor: str,
    values: Sequence[float],
    apply: Callable[[RunConfig, float], None],
    notes: str = "",
) -> FigureSeries:
    configs = []
    for v in values:
        cfg = _synthetic_config(profile)
        apply(cfg, v)
        configs.append(
            LabeledConfig(
                label=f"{factor}={v:g}",
                factor_value=v,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure=figure,
        title=title,
        factor=factor,
        configs=configs,
        notes=notes,
    )


def _fig4(profile: str) -> FigureSeries:
    def apply(cfg: RunConfig, v: float) -> None:
        cfg.synthetic = replace(cfg.synthetic, e_max=int(v))

    return _factor_series(
        profile,
        "fig4",
        "Effect of task execution times (e_max)",
        "e_max",
        [10, 50, 100],
        apply,
        notes="O and T should increase with e_max; P ~2% at e_max=100.",
    )


def _fig5(profile: str) -> FigureSeries:
    def apply(cfg: RunConfig, v: float) -> None:
        cfg.synthetic = replace(cfg.synthetic, s_max=int(v))

    return _factor_series(
        profile,
        "fig5",
        "Effect of earliest start times (s_max)",
        "s_max",
        [10_000, 50_000, 250_000],
        apply,
        notes="O, T and P should all decrease as s_max grows.",
    )


def _fig6(profile: str) -> FigureSeries:
    def apply(cfg: RunConfig, v: float) -> None:
        cfg.synthetic = replace(cfg.synthetic, ar_probability=v)

    return _factor_series(
        profile,
        "fig6",
        "Effect of the advance-reservation probability (p)",
        "p",
        [0.1, 0.5, 0.9],
        apply,
        notes="Same trend as fig5 but weaker in O (s_max stays small).",
    )


def _fig7(profile: str) -> FigureSeries:
    def apply(cfg: RunConfig, v: float) -> None:
        cfg.synthetic = replace(cfg.synthetic, deadline_multiplier_max=v)

    return _factor_series(
        profile,
        "fig7",
        "Effect of the deadline multiplier (d_UL)",
        "d_UL",
        [2, 5, 10],
        apply,
        notes="O and P should drop sharply from d_UL=2 to 5 and 10.",
    )


def _fig8(profile: str) -> FigureSeries:
    def apply(cfg: RunConfig, v: float) -> None:
        cfg.synthetic = replace(cfg.synthetic, arrival_rate=v)

    return _factor_series(
        profile,
        "fig8",
        "Effect of the job arrival rate (lambda)",
        "lambda",
        [0.001, 0.01, 0.015, 0.02],
        apply,
        notes="O, T and P should all increase with lambda.",
    )


def _fig9(profile: str) -> FigureSeries:
    values = [5, 10, 20] if profile == SCALED else [25, 50, 100]

    configs = []
    for v in values:
        cfg = _synthetic_config(profile)
        cfg.system = replace(cfg.system, num_resources=int(v))
        configs.append(
            LabeledConfig(
                label=f"m={v:g}",
                factor_value=v,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="fig9",
        title="Effect of the number of resources (m)",
        factor="m",
        configs=configs,
        notes="T, P and O should all increase as m shrinks.",
    )


# --------------------------------------------------------------------------
# Ablations (DESIGN.md Section 5)
# --------------------------------------------------------------------------

def _ablation_separation(profile: str) -> FigureSeries:
    configs = []
    for mode in (FormulationMode.COMBINED, FormulationMode.JOINT):
        cfg = _synthetic_config(profile)
        # Joint mode builds (tasks x resources) optional intervals; keep the
        # instance compact even in the paper profile.
        if profile == PAPER:
            cfg.synthetic = replace(cfg.synthetic, num_jobs=60)
        cfg.mrcp = replace(default_mrcp_config(profile), mode=mode)
        configs.append(
            LabeledConfig(
                label=f"mode={mode.value}",
                factor_value=0.0 if mode is FormulationMode.COMBINED else 1.0,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ablation-separation",
        title="V.D ablation: combined-resource vs joint matchmaking",
        factor="mode",
        configs=configs,
        notes="Combined mode should show substantially lower O at equal P.",
    )


def _ablation_est_deferral(profile: str) -> FigureSeries:
    configs = []
    for deferral in (True, False):
        cfg = _synthetic_config(profile)
        # Deferral matters when many jobs have far-future start times.
        cfg.synthetic = replace(cfg.synthetic, ar_probability=0.9, s_max=50_000)
        cfg.mrcp = replace(default_mrcp_config(profile), est_deferral=deferral)
        configs.append(
            LabeledConfig(
                label=f"deferral={'on' if deferral else 'off'}",
                factor_value=1.0 if deferral else 0.0,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ablation-est-deferral",
        title="V.E ablation: earliest-start-time deferral",
        factor="deferral",
        configs=configs,
        notes="Deferral should reduce O (fewer tasks re-planned per solve).",
    )


def _ablation_ordering(profile: str) -> FigureSeries:
    configs = []
    for order in ("edf", "laxity", "input"):
        cfg = _synthetic_config(profile)
        cfg.mrcp = replace(default_mrcp_config(profile), ordering=order)
        configs.append(
            LabeledConfig(
                label=f"ordering={order}",
                factor_value=float(["edf", "laxity", "input"].index(order)),
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ablation-ordering",
        title="VI.B ablation: job ordering strategies",
        factor="ordering",
        configs=configs,
        notes="The paper reports no significant difference; EDF slightly best.",
    )


def _ablation_lns(profile: str) -> FigureSeries:
    configs = []
    for use_lns in (True, False):
        cfg = _synthetic_config(profile)
        # Make deadlines tight so the improvement phase has work to do.
        cfg.synthetic = replace(cfg.synthetic, deadline_multiplier_max=2.0)
        solver = replace(default_solver_params(profile), use_lns=use_lns)
        cfg.mrcp = replace(default_mrcp_config(profile), solver=solver)
        configs.append(
            LabeledConfig(
                label=f"lns={'on' if use_lns else 'off'}",
                factor_value=1.0 if use_lns else 0.0,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ablation-lns",
        title="Solver ablation: LNS improvement phase",
        factor="lns",
        configs=configs,
        notes="LNS should lower P under tight deadlines at equal budget.",
    )


def _ablation_replanning(profile: str) -> FigureSeries:
    configs = []
    for replan in (True, False):
        cfg = _synthetic_config(profile)
        cfg.synthetic = replace(cfg.synthetic, deadline_multiplier_max=2.0)
        cfg.mrcp = replace(default_mrcp_config(profile), replan=replan)
        configs.append(
            LabeledConfig(
                label=f"replan={'on' if replan else 'off'}",
                factor_value=1.0 if replan else 0.0,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ablation-replanning",
        title="V.B ablation: incremental re-planning vs schedule-once",
        factor="replan",
        configs=configs,
        notes="Re-planning should reduce P (late jobs) at higher O.",
    )


def default_workflow_params(profile: str) -> WorkflowWorkloadParams:
    """Random layered-DAG workload defaults per profile (extension)."""
    _check_profile(profile)
    if profile == SCALED:
        return WorkflowWorkloadParams(
            num_jobs=25,
            stages_range=(2, 4),
            tasks_per_stage_range=(1, 6),
            e_max=20,
            arrival_rate=0.01,
        )
    return WorkflowWorkloadParams(
        num_jobs=200,
        stages_range=(2, 6),
        tasks_per_stage_range=(1, 20),
        e_max=50,
        arrival_rate=0.01,
    )


def _ablation_hints(profile: str) -> FigureSeries:
    """Solution hints (Fig. 1's "incrementally builds on the previous
    solution"): re-using the prior plan as a warm start."""
    configs = []
    for hints in (True, False):
        cfg = _synthetic_config(profile)
        cfg.synthetic = replace(cfg.synthetic, deadline_multiplier_max=2.0)
        cfg.mrcp = replace(default_mrcp_config(profile), use_hints=hints)
        configs.append(
            LabeledConfig(
                label=f"hints={'on' if hints else 'off'}",
                factor_value=1.0 if hints else 0.0,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ablation-hints",
        title="Fig. 1 ablation: previous-solution warm starts",
        factor="hints",
        configs=configs,
        notes="Hints should not raise P; O may drop when arrivals fit "
        "around the existing plan.",
    )


def _ext_workflow_depth(profile: str) -> FigureSeries:
    """Extension experiment (paper Section VII): DAG workflows of growing
    depth through MRCP-RM -- deeper critical paths mean longer turnarounds
    and more constrained solves."""
    configs = []
    for max_stages in (2, 4, 6):
        wf = replace(
            default_workflow_params(profile),
            stages_range=(max(2, max_stages - 1), max_stages),
        )
        cfg = RunConfig(
            scheduler="mrcp-rm",
            workload="workflow",
            workflow=wf,
            system=default_synthetic_system(profile),
            mrcp=default_mrcp_config(profile),
        )
        configs.append(
            LabeledConfig(
                label=f"stages<={max_stages}",
                factor_value=float(max_stages),
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ext-workflow-depth",
        title="Extension: DAG workflow depth (Section VII generalisation)",
        factor="max stages",
        configs=configs,
        notes="Deeper DAGs (longer critical paths) should raise T; all "
        "precedence edges hold by construction (validated per solve).",
    )


def _ext_workflow_density(profile: str) -> FigureSeries:
    """Extension experiment: DAG density via extra skip-level edges."""
    configs = []
    for density in (0.0, 0.4, 0.8):
        wf = replace(
            default_workflow_params(profile), extra_edge_probability=density
        )
        cfg = RunConfig(
            scheduler="mrcp-rm",
            workload="workflow",
            workflow=wf,
            system=default_synthetic_system(profile),
            mrcp=default_mrcp_config(profile),
        )
        configs.append(
            LabeledConfig(
                label=f"density={density:g}",
                factor_value=density,
                scheduler="mrcp-rm",
                config=cfg,
            )
        )
    return FigureSeries(
        figure="ext-workflow-density",
        title="Extension: DAG precedence density",
        factor="extra edge probability",
        configs=configs,
        notes="More precedence edges restrict overlap; T should not drop as "
        "density rises.",
    )


# --------------------------------------------------------------------------
# Pinning recipe: byte-reproducible runs on any machine
# --------------------------------------------------------------------------

#: Time limit large enough that the fail limit always binds first: the
#: explored search tree -- and hence N/T/P -- is identical on every machine.
_DETERMINISTIC_TIME_LIMIT = 1.0e6
#: Fail limit substituted when a config left the tree search unlimited.
_DETERMINISTIC_FAIL_LIMIT = 300


def deterministic_solver_params(params: SolverParams) -> SolverParams:
    """Rewrite a solver budget so search effort is machine-independent.

    Huge time limit (never binds), fail-limited tree search, LNS off (its
    improvement loop is time-budgeted and would reintroduce wall-clock
    dependence).
    """
    return replace(
        params,
        time_limit=_DETERMINISTIC_TIME_LIMIT,
        tree_fail_limit=params.tree_fail_limit or _DETERMINISTIC_FAIL_LIMIT,
        use_lns=False,
    )


def deterministic_run_config(config: RunConfig) -> RunConfig:
    """Pin ``config`` so overhead O replays byte-identically.

    A fresh :class:`~repro.obs.clocks.PinnedClock` as the wall clock (O
    counts clock samples) and a fail-limited, LNS-free solver budget
    (search effort becomes machine-independent).  Sweep cells, checkpoints,
    chaos scenarios and diff captures all run under it.
    """
    return replace(
        config,
        mrcp=replace(
            config.mrcp,
            solver=deterministic_solver_params(config.mrcp.solver),
        ),
        obs=replace(config.obs, wall_clock=PinnedClock()),
    )


def fresh_run_config(config: RunConfig) -> RunConfig:
    """Reset the config's run-mutated carriers to their virgin state.

    Two config-embedded objects mutate as a run consumes them: the
    :class:`~repro.obs.clocks.PinnedClock` (its sample count) and the
    ladder's :class:`~repro.resilience.breaker.InjectedSolverFailures` (its
    consumed-budget bookkeeping).  Reusing one config object for a
    checkpointed run *and* its restore, for two runs that must agree, or
    for a retried sweep cell would otherwise start the second run
    mid-state and fork it from the first.
    """
    clock = config.obs.wall_clock
    if isinstance(clock, PinnedClock) and clock.count:
        config = replace(
            config, obs=replace(config.obs, wall_clock=PinnedClock(clock.tick))
        )
    ladder = config.mrcp.resilience
    if ladder is not None and ladder.chaos is not None and ladder.chaos.consumed:
        config = replace(
            config,
            mrcp=replace(
                config.mrcp,
                resilience=replace(
                    ladder,
                    chaos=InjectedSolverFailures(counts=dict(ladder.chaos.counts)),
                ),
            ),
        )
    return config


# --------------------------------------------------------------------------
# Pinned scenarios
#
# Demo and forensics configs keep ``seed=0``: build them with
# ``build_live_run(config, replication=seed)`` so the run draws
# ``RandomStreams(seed)`` and re-seeds its fault model with ``seed``.
# --------------------------------------------------------------------------


def demo_config(
    num_jobs: int = 10, faults: Optional[FaultModel] = None
) -> RunConfig:
    """The quick demo: a small Table 3 stream on 4 x (2 map, 2 reduce)."""
    return RunConfig(
        synthetic=SyntheticWorkloadParams(
            num_jobs=num_jobs,
            map_tasks_range=(1, 8),
            reduce_tasks_range=(1, 4),
            e_max=10,
            ar_probability=0.3,
            s_max=200,
            deadline_multiplier_max=3.0,
            arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=4, map_slots=2, reduce_slots=2),
        faults=faults,
    )


def forensics_config(num_jobs: int = 14, faults: bool = False) -> RunConfig:
    """A deadline-tight traced run: the input of ``mrcp-rm report``.

    Tracing, plan history and live telemetry are on, so lateness
    attribution and the HTML report have every artifact they read.  With
    ``faults`` the run also suffers task failures, stragglers and random
    resource outages.
    """
    fault_model = None
    if faults:
        fault_model = FaultModel(
            task_failure_prob=0.15,
            straggler_prob=0.2,
            straggler_factor=2.0,
            outage_rate=0.002,
            outage_duration_range=(30.0, 90.0),
            outage_horizon=2000.0,
        )
    return RunConfig(
        synthetic=SyntheticWorkloadParams(
            num_jobs=num_jobs, deadline_multiplier_max=1.4, scale=0.1
        ),
        system=SystemConfig(num_resources=4, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(
            solver=SolverParams(time_limit=0.5, tree_fail_limit=200, use_lns=False)
        ),
        faults=fault_model,
        obs=ObsConfig(
            trace=True,
            plan_history=True,
            telemetry=TelemetryConfig(enabled=True, interval=5.0),
        ),
    )


def default_chaos_config(
    seed: int = 0,
    faults: bool = True,
    ladder: Optional[LadderConfig] = None,
) -> RunConfig:
    """A small, fault-ridden, fully deterministic mrcp-rm run.

    Big enough to exercise retries, an outage window and re-plans; small
    enough that a kill/restore cycle completes in seconds.  Always pinned
    (:func:`deterministic_run_config`) so O replays byte-identically.
    """
    fault_model = None
    if faults:
        fault_model = FaultModel(
            task_failure_prob=0.15,
            outages=(OutageWindow(0, 30.0, 15.0),),
            seed=seed,
        )
    config = RunConfig(
        synthetic=SyntheticWorkloadParams(
            num_jobs=8,
            map_tasks_range=(1, 3),
            reduce_tasks_range=(1, 2),
            e_max=8,
            ar_probability=0.2,
            s_max=50,
            deadline_multiplier_max=3.0,
            arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
        faults=fault_model,
        seed=seed,
    )
    if ladder is not None:
        config = replace(config, mrcp=replace(config.mrcp, resilience=ladder))
    return deterministic_run_config(config)


def escalation_ladder(rounds: int = 1) -> LadderConfig:
    """A ladder configured to demonstrably walk all four rungs.

    Injected failures make the first ``rounds`` attempts of each CP rung
    and of EDF fail, so early invocations escalate to ``greedy``, the
    breakers trip open, and later invocations recover rung by rung as the
    probes succeed -- the full state machine in one short run.
    """
    return LadderConfig(
        failure_threshold=1,
        cooldown=2,
        chaos=InjectedSolverFailures(
            counts={"cp_full": rounds + 2, "cp_limited": rounds + 1, "edf": rounds}
        ),
    )


def overload_config(seed: int = 0) -> RunConfig:
    """The overload burst: the chaos run at 10x its arrival rate, with the
    CP rungs injected to fail.

    Early plans land on the greedy rung, so the degradation ladder walks
    all four rungs and the degraded-solves SLO deterministically fires.
    """
    config = default_chaos_config(
        seed=seed, faults=False, ladder=escalation_ladder()
    )
    return replace(
        config,
        synthetic=replace(
            config.synthetic,
            arrival_rate=config.synthetic.arrival_rate * 10.0,
        ),
    )


def default_diff_config(
    seed: int = 3, fail_limit: Optional[int] = None
) -> RunConfig:
    """A deterministic, contention-heavy scenario for diff drills.

    Tight deadlines on a scarce two-resource cluster guarantee late jobs
    (so delta waterfalls have content) and make the CP search tree deep
    enough that the fail-limited budget actually decides the plan: the
    warm-start incumbent is not optimal, so two captures differing only
    in ``fail_limit`` (e.g. the default 200 vs 1) install different
    plans, giving the engine a genuine divergence to localise.  The
    default seed is one where that perturbation demonstrably forks the
    plan history.
    """
    return RunConfig(
        synthetic=SyntheticWorkloadParams(
            num_jobs=14,
            map_tasks_range=(2, 14),
            reduce_tasks_range=(1, 6),
            e_max=30,
            ar_probability=0.5,
            s_max=500,
            deadline_multiplier_max=1.2,
            arrival_rate=0.1,
        ),
        system=SystemConfig(num_resources=2, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(
            record_plan_history=True,
            solver=SolverParams(
                time_limit=30.0,
                tree_fail_limit=fail_limit if fail_limit is not None else 200,
                use_lns=False,
            ),
        ),
        seed=seed,
    )


def bench_solver_params() -> SolverParams:
    """The bench suite's pinned solver: fail-limited at 200, LNS off."""
    return deterministic_solver_params(SolverParams(tree_fail_limit=200))


def fig7_smoke_config() -> RunConfig:
    """Figure 7's tight-deadline synthetic shape at bench smoke scale."""
    return RunConfig(
        synthetic=SyntheticWorkloadParams(
            num_jobs=12,
            map_tasks_range=(1, 8),
            reduce_tasks_range=(1, 4),
            e_max=20,
            ar_probability=0.5,
            s_max=500,
            deadline_multiplier_max=1.3,
            arrival_rate=0.05,
        ),
        system=SystemConfig(num_resources=3, map_slots=2, reduce_slots=2),
        mrcp=MrcpRmConfig(solver=bench_solver_params()),
        seed=7,
    )


def micro_batch(num_jobs: int, deadline_multiplier_max: float = 3.0):
    """The solver micro-benchmark batch: ``(jobs, resources)`` at time 0.

    A dense batch (all arrivals within seconds) on 10 x (2,2) resources.
    Tight deadline multipliers make the warm start suboptimal so the tree
    phase has genuine work (its fail limit binds).
    """
    params = SyntheticWorkloadParams(
        num_jobs=num_jobs,
        map_tasks_range=(1, 10),
        reduce_tasks_range=(1, 5),
        e_max=20,
        ar_probability=0.0,
        deadline_multiplier_max=deadline_multiplier_max,
        arrival_rate=1.0,
        total_map_slots=20,
        total_reduce_slots=20,
    )
    jobs = generate_synthetic_workload(params, seed=5)
    return jobs, make_uniform_cluster(10, 2, 2)


_FIGURES: Dict[str, Callable[[str], FigureSeries]] = {
    "fig2": lambda p: _fig2_fig3(
        p, "fig2", "MRCP-RM vs MinEDF-WC: proportion of late jobs", ("P",)
    ),
    "fig3": lambda p: _fig2_fig3(
        p, "fig3", "MRCP-RM vs MinEDF-WC: average turnaround time", ("T",)
    ),
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "ablation-separation": _ablation_separation,
    "ablation-est-deferral": _ablation_est_deferral,
    "ablation-ordering": _ablation_ordering,
    "ablation-lns": _ablation_lns,
    "ablation-replanning": _ablation_replanning,
    "ablation-hints": _ablation_hints,
    "ext-workflow-depth": _ext_workflow_depth,
    "ext-workflow-density": _ext_workflow_density,
}


def list_figures() -> List[str]:
    """Names of every reproducible figure and ablation."""
    return list(_FIGURES)


def figure_series(figure: str, profile: str = SCALED) -> FigureSeries:
    """Build the run configurations for one figure/ablation."""
    _check_profile(profile)
    try:
        builder = _FIGURES[figure]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure!r}; available: {', '.join(_FIGURES)}"
        ) from None
    return builder(profile)
