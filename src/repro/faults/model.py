"""Declarative fault scenario description.

A :class:`FaultModel` says *what can go wrong* during a run; it carries no
randomness of its own.  The :class:`~repro.faults.injector.FaultInjector`
turns it into concrete outcomes using seeded random streams, so two runs
with the same model (and seed) inject byte-identical fault schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class OutageWindow:
    """One resource outage: ``resource_id`` is down during ``[start, start+duration)``.

    Tasks running on the resource when the window opens are killed; the
    resource rejoins the pool at ``start + duration``.  Overlapping windows
    on the same resource compose (the resource is down while any window
    covers the current time).
    """

    resource_id: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        # Negated comparisons so NaN (which compares False) is rejected too.
        if not self.start >= 0:
            raise ValueError(f"outage start {self.start} must be >= 0")
        if not self.duration > 0:
            raise ValueError(f"outage duration {self.duration} must be positive")

    @property
    def end(self) -> float:
        """Recovery time of the window."""
        return self.start + self.duration


@dataclass(frozen=True)
class FaultModel:
    """Everything that can go wrong, with all knobs off by default.

    The default instance is inert (``enabled`` is False): constructing a
    resource manager with it changes nothing on the happy path.
    """

    #: Probability that one task *attempt* fails partway through execution.
    #: The failure point is drawn uniformly over the attempt's (perturbed)
    #: duration, so failures land at fractional simulation times.
    task_failure_prob: float = 0.0
    #: Probability that an attempt runs ``straggler_factor`` times longer
    #: than planned (the classic straggler: same work, slow machine).
    straggler_prob: float = 0.0
    #: Execution-time multiplier applied to straggling attempts.
    straggler_factor: float = 2.0
    #: Sigma of a LogNormal(0, sigma^2) multiplicative jitter applied to
    #: *every* attempt (0 = off).  Models run-to-run execution variance.
    jitter_sigma: float = 0.0
    #: Explicit outage windows (deterministic part of the scenario).
    outages: Tuple[OutageWindow, ...] = field(default_factory=tuple)
    #: Per-resource Poisson rate of random outage starts (0 = off).
    outage_rate: float = 0.0
    #: Duration range U[lo, hi] of randomly drawn outages.
    outage_duration_range: Tuple[float, float] = (0.0, 0.0)
    #: Random outages are drawn over ``[0, outage_horizon)``.
    outage_horizon: float = 0.0
    #: Master seed of the injector's dedicated random streams.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("task_failure_prob", "straggler_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} {p} outside [0, 1]")
        # Negated comparisons so NaN (which compares False) is rejected too.
        if not self.straggler_factor > 0:
            raise ValueError(f"straggler_factor {self.straggler_factor} must be positive")
        if not self.jitter_sigma >= 0:
            raise ValueError(f"jitter_sigma {self.jitter_sigma} must be >= 0")
        if not self.outage_rate >= 0:
            raise ValueError(f"outage_rate {self.outage_rate} must be >= 0")
        if self.outage_rate > 0:
            lo, hi = self.outage_duration_range
            if not 0 < lo <= hi:
                raise ValueError(
                    f"outage_duration_range {self.outage_duration_range} must "
                    f"satisfy 0 < lo <= hi when outage_rate > 0"
                )
            if not self.outage_horizon > 0:
                raise ValueError(
                    "outage_rate > 0 needs a positive outage_horizon"
                )

    @property
    def enabled(self) -> bool:
        """Whether any fault mechanism is active (False for the default)."""
        return bool(
            self.task_failure_prob > 0
            or self.straggler_prob > 0
            or self.jitter_sigma > 0
            or self.outages
            or self.outage_rate > 0
        )

    @property
    def perturbs_durations(self) -> bool:
        """Whether execution times can differ from their planned values."""
        return self.straggler_prob > 0 or self.jitter_sigma > 0
