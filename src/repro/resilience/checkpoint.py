"""Crash-safe checkpoint/restore for simulation runs.

The event calendar holds closures, so serialising the heap directly is a
dead end.  Instead a checkpoint is a **position plus a state proof**:

* *position* -- how many events have been dispatched, the simulated time
  and the kernel's scheduling sequence counter;
* *state* -- a canonical JSON rendering of every piece of mutable run
  state that future decisions depend on (manager bookkeeping, executor
  plan/running/completed sets, retry counters, RNG stream states,
  breaker states, metrics accounting).

Restoring rebuilds the run from its config and seed, fast-forwards the
fresh simulation one event at a time to the checkpoint's position, and
then **strictly compares** the reconstructed state against the snapshot.
The kernel dispatches events in a deterministic order for a given seed,
so the replay lands in exactly the captured state -- and the comparison
proves it, rather than assuming it.  A killed run restored this way
continues to byte-identical O/N/T/P versus an uninterrupted same-seed
run.

Determinism contract: byte-identical *O* additionally requires the run to
be pinned -- a :class:`~repro.obs.clocks.PinnedClock` as the wall clock
and a fail-limited deterministic solver budget (LNS off), exactly the
recipe the sweep pool uses;
:func:`~repro.experiments.configs.deterministic_run_config` applies it.
Unpinned runs still replay to identical N/T/P and identical structural
state; real wall-clock readings land in the snapshot's ``volatile``
section, which is recorded for debugging but never compared.

Checkpoint files are written atomically (``tmp + os.replace``) so a kill
mid-write leaves the previous complete checkpoint, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.configs import fresh_run_config
from repro.experiments.runner import LiveRun, RunConfig, build_live_run
from repro.ioutil import atomic_write_json
from repro.metrics.collector import RunMetrics
from repro.obs.clocks import PinnedClock
from repro.obs.logs import get_logger, kv
from repro.obs.structdiff import format_entries, structural_diff

_LOG = get_logger("resilience.checkpoint")

#: Checkpoint schema identifier; bump on incompatible layout changes.
SCHEMA = "repro-ckpt/1"

#: Top-level keys every valid snapshot must carry.
_REQUIRED_KEYS = ("schema", "fingerprint", "replication", "position", "state")


class CheckpointError(RuntimeError):
    """A snapshot is unreadable, incompatible, or from another config."""


class CheckpointMismatch(CheckpointError):
    """Replayed state diverged from the snapshot (determinism violated)."""


@dataclass
class CheckpointConfig:
    """When and where to write checkpoints."""

    #: Write a checkpoint every N dispatched events (None = off).
    every_events: Optional[int] = 100
    #: ... and/or whenever simulated time advanced by this much since the
    #: last checkpoint (None = off).
    every_sim_time: Optional[float] = None
    #: Directory for ``ckpt-<events>.json`` files (None = keep in memory
    #: only; the chaos harness restores from returned dicts directly).
    out_dir: Optional[str] = None
    #: Retain at most this many newest checkpoint files (None = all).
    keep: Optional[int] = None

    def __post_init__(self) -> None:
        if self.every_events is None and self.every_sim_time is None:
            raise ValueError("checkpoint cadence unset: give every_events "
                             "and/or every_sim_time")
        if self.every_events is not None and self.every_events < 1:
            raise ValueError(f"every_events must be >= 1, got {self.every_events}")
        if self.every_sim_time is not None and self.every_sim_time <= 0:
            raise ValueError(
                f"every_sim_time must be > 0, got {self.every_sim_time}"
            )


@dataclass
class CheckpointedRun:
    """Outcome of :func:`run_with_checkpoints`."""

    #: Final metrics; None when the run was killed before draining.
    metrics: Optional[RunMetrics]
    #: Snapshots taken, in order (paths in :attr:`paths` when persisted).
    snapshots: List[dict] = field(default_factory=list)
    #: File per snapshot when ``out_dir`` was set (parallel to snapshots).
    paths: List[str] = field(default_factory=list)

    @property
    def killed(self) -> bool:
        return self.metrics is None


def config_fingerprint(config: RunConfig, replication: int) -> str:
    """Digest identifying (config, replication) for snapshot validation.

    Built on ``repr`` of the (dataclass) config tree: every behavioural
    knob appears, and the injectable clock reprs stably
    (:class:`PinnedClock` takes care to omit its mutable call count).
    """
    text = f"{config!r}|rep={replication}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _is_pinned(run: LiveRun) -> bool:
    """Whether the run's wall clock is deterministic (PinnedClock)."""
    return isinstance(run.config.obs.wall_clock, PinnedClock)


def canonical(payload: object) -> object:
    """Round-trip through JSON so captured and loaded snapshots compare.

    Serialisation stringifies int dict keys and turns tuples into lists;
    comparing a freshly captured snapshot against one loaded from disk
    only works if both sides passed through the same normalisation.
    """
    return json.loads(json.dumps(payload, sort_keys=True))


def capture_snapshot(run: LiveRun) -> dict:
    """Snapshot ``run``'s complete current state as a JSON-safe dict."""
    deterministic = _is_pinned(run)
    state: Dict[str, object] = {
        "sim": run.sim.state_digest(),
        "metrics": run.metrics.state_snapshot(deterministic=deterministic),
    }
    if run.manager is not None:
        state["manager"] = run.manager.resilience_state()
    volatile: Dict[str, object] = {}
    if deterministic:
        clock = run.config.obs.wall_clock
        state["clock_count"] = clock.count
    else:
        # Real wall readings never replay identically; record for
        # debugging, exclude from comparison.
        volatile["overhead_total"] = sum(
            run.metrics._overhead_series  # noqa: SLF001 (same package intent)
        )
    snapshot = {
        "schema": SCHEMA,
        "fingerprint": config_fingerprint(run.config, run.replication),
        "replication": run.replication,
        "seed": run.seed,
        "deterministic": deterministic,
        "position": {
            "events_dispatched": run.sim.dispatched,
            "sim_now": run.sim.now,
            "seq": run.sim.state_digest()["seq"],
        },
        "state": state,
        "volatile": volatile,
    }
    return canonical(snapshot)


def validate_snapshot(snapshot: dict) -> None:
    """Schema-level checks before any replay work is attempted."""
    if not isinstance(snapshot, dict):
        raise CheckpointError(f"snapshot is {type(snapshot).__name__}, not dict")
    missing = [k for k in _REQUIRED_KEYS if k not in snapshot]
    if missing:
        raise CheckpointError(f"snapshot missing keys: {missing}")
    if snapshot["schema"] != SCHEMA:
        raise CheckpointError(
            f"snapshot schema {snapshot['schema']!r} is not {SCHEMA!r}"
        )
    pos = snapshot["position"]
    for key in ("events_dispatched", "sim_now", "seq"):
        if key not in pos:
            raise CheckpointError(f"snapshot position missing {key!r}")


def load_snapshot(path: str) -> dict:
    """Read and schema-validate a checkpoint file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    validate_snapshot(snapshot)
    return snapshot


def write_snapshot(snapshot: dict, out_dir: str) -> str:
    """Persist one snapshot atomically; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    events = snapshot["position"]["events_dispatched"]
    path = os.path.join(out_dir, f"ckpt-{events:08d}.json")
    return atomic_write_json(path, snapshot)


def list_checkpoints(out_dir: str) -> List[str]:
    """Checkpoint files in ``out_dir``, oldest first."""
    try:
        names = os.listdir(out_dir)
    except OSError:
        return []
    return [
        os.path.join(out_dir, n)
        for n in sorted(names)
        if n.startswith("ckpt-") and n.endswith(".json")
    ]


def _prune(out_dir: str, keep: int) -> None:
    paths = list_checkpoints(out_dir)
    for stale in paths[:-keep] if keep else paths:
        try:
            os.remove(stale)
        except OSError:
            pass


def run_with_checkpoints(
    config: RunConfig,
    ckpt: CheckpointConfig,
    replication: int = 0,
    kill_after_checkpoints: Optional[int] = None,
) -> CheckpointedRun:
    """Run one replication, snapshotting at the configured cadence.

    ``kill_after_checkpoints=N`` abandons the run right after the Nth
    checkpoint -- the crash half of the chaos harness's kill/restore
    cycle (the process genuinely stops driving the simulation; nothing
    after the checkpoint boundary executes).
    """
    run = build_live_run(fresh_run_config(config), replication)
    result = CheckpointedRun(metrics=None)
    last_events = 0
    last_time = run.sim.now
    while run.sim.step():
        due = False
        if (
            ckpt.every_events is not None
            and run.sim.dispatched - last_events >= ckpt.every_events
        ):
            due = True
        if (
            ckpt.every_sim_time is not None
            and run.sim.now - last_time >= ckpt.every_sim_time
        ):
            due = True
        if not due:
            continue
        snapshot = capture_snapshot(run)
        result.snapshots.append(snapshot)
        last_events = run.sim.dispatched
        last_time = run.sim.now
        if ckpt.out_dir is not None:
            result.paths.append(write_snapshot(snapshot, ckpt.out_dir))
            if ckpt.keep is not None:
                _prune(ckpt.out_dir, ckpt.keep)
        _LOG.debug(
            "checkpoint %s",
            kv(events=run.sim.dispatched, t=run.sim.now),
        )
        if (
            kill_after_checkpoints is not None
            and len(result.snapshots) >= kill_after_checkpoints
        ):
            _LOG.info(
                "killed after checkpoint %s",
                kv(n=len(result.snapshots), events=run.sim.dispatched),
            )
            return result
    result.metrics = run.finish()
    return result


def restore_run(
    config: RunConfig,
    snapshot: "dict | str",
    replication: int = 0,
) -> RunMetrics:
    """Restore from ``snapshot`` and run to completion.

    The fresh run is fast-forwarded event by event to the snapshot's
    position, its reconstructed state is strictly compared against the
    snapshot (:class:`CheckpointMismatch` on any divergence -- restoring
    silently into a forked timeline would be worse than failing), and the
    remainder of the run then executes normally.
    """
    if isinstance(snapshot, str):
        snapshot = load_snapshot(snapshot)
    else:
        validate_snapshot(snapshot)
    config = fresh_run_config(config)
    expected_fp = config_fingerprint(config, replication)
    if snapshot["fingerprint"] != expected_fp:
        raise CheckpointMismatch(
            f"snapshot fingerprint {snapshot['fingerprint']} does not match "
            f"this config/replication ({expected_fp}); restoring a snapshot "
            f"into a different run would silently corrupt results"
        )
    if snapshot["replication"] != replication:
        raise CheckpointMismatch(
            f"snapshot is replication {snapshot['replication']}, "
            f"asked to restore {replication}"
        )

    run = build_live_run(config, replication)
    target = int(snapshot["position"]["events_dispatched"])
    while run.sim.dispatched < target:
        if not run.sim.step():
            raise CheckpointMismatch(
                f"calendar drained at {run.sim.dispatched} events while "
                f"fast-forwarding to {target}: the snapshot is from a "
                f"different (longer) execution"
            )
    replayed = capture_snapshot(run)
    _compare_states(snapshot, replayed)
    _LOG.info(
        "restored %s",
        kv(events=target, t=run.sim.now, rep=replication),
    )
    return run.finish()


#: Divergent paths rendered (with both values) in a mismatch error.
_MISMATCH_PATHS_SHOWN = 8


def _compare_states(expected: dict, replayed: dict) -> None:
    """Strict structural comparison of two snapshots' compared sections.

    The structural walk lives in :mod:`repro.obs.structdiff` (shared with
    the run-diff engine); the mismatch error renders the first divergent
    paths *with both values*, so a determinism violation is localised from
    the message alone, without re-running under a debugger.
    """
    for section in ("position", "state"):
        if expected[section] != replayed[section]:
            entries = structural_diff(expected[section], replayed[section])
            raise CheckpointMismatch(
                f"replayed {section} diverged from snapshot at "
                f"{len(entries)} path(s): "
                + format_entries(
                    entries,
                    limit=_MISMATCH_PATHS_SHOWN,
                    left_label="snapshot",
                    right_label="replay",
                )
            )
