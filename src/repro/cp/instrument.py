"""Engine-level profiling: per-propagator-class effort counters.

When attached to an :class:`~repro.cp.engine.Engine` (``engine.profile =
EngineProfile()``), the fixpoint loop records, per propagator *class*:

* ``runs``   -- executions,
* ``prunes`` -- trailed domain mutations the execution caused (a cheap,
  exact proxy for bound tightenings), and
* ``fails``  -- executions that ended in a wipe-out (``Infeasible``),

plus per-event wake counters (how many MIN/MAX/FIX wake-ups the engine
dispatched -- the denominator for event-based incrementality).  Wall time
is not measured here: the solver's phase times
(:class:`~repro.cp.solution.SearchStats`) are the one timing record.
Detached (``engine.profile is None``, the default) the engine runs its
original unconditional loop -- profiling costs nothing when off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cp.domain import FIX_EVENT, MAX_EVENT, MIN_EVENT


@dataclass
class PropagatorCounters:
    """Effort counters for one propagator class."""

    runs: int = 0
    prunes: int = 0
    fails: int = 0


class EngineProfile:
    """Mutable profiling sink attached to one engine for one solve."""

    __slots__ = (
        "by_class",
        "wake_min",
        "wake_max",
        "wake_fix",
        "wake_other",
    )

    def __init__(self) -> None:
        #: propagator class name -> counters
        self.by_class: Dict[str, PropagatorCounters] = {}
        #: wake dispatches per event kind (one dispatch may enqueue many
        #: propagators; this counts domain-change events, not enqueues)
        self.wake_min = 0
        self.wake_max = 0
        self.wake_fix = 0
        self.wake_other = 0

    def counters(self, class_name: str) -> PropagatorCounters:
        """The counters for ``class_name``, created on first use."""
        c = self.by_class.get(class_name)
        if c is None:
            c = PropagatorCounters()
            self.by_class[class_name] = c
        return c

    def count_event(self, event: int) -> None:
        """Record one wake dispatch of the given event kind."""
        if event == MIN_EVENT:
            self.wake_min += 1
        elif event == MAX_EVENT:
            self.wake_max += 1
        elif event == FIX_EVENT:
            self.wake_fix += 1
        else:
            self.wake_other += 1

    def events_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot of the per-event wake counters."""
        return {
            "min": self.wake_min,
            "max": self.wake_max,
            "fix": self.wake_fix,
            "other": self.wake_other,
        }

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Plain-dict snapshot: class name -> {runs, prunes, fails}."""
        return {
            name: {"runs": c.runs, "prunes": c.prunes, "fails": c.fails}
            for name, c in sorted(self.by_class.items())
        }

    def merge(self, other: "EngineProfile") -> None:
        """Accumulate another profile's counters into this one."""
        for name, c in other.by_class.items():
            mine = self.counters(name)
            mine.runs += c.runs
            mine.prunes += c.prunes
            mine.fails += c.fails
        self.wake_min += other.wake_min
        self.wake_max += other.wake_max
        self.wake_fix += other.wake_fix
        self.wake_other += other.wake_other
