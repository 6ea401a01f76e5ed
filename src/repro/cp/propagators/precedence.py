"""Precedence propagators.

The MapReduce barrier (Table 1, constraint 3) says every reduce task of a job
starts at or after the completion of the job's latest-finishing map task.
Equivalently, ``map.end <= reduce.start`` for every (map, reduce) pair; the
:class:`BarrierPropagator` enforces bounds consistency on the whole
bipartite structure in O(maps + reduces) per run.

Both propagators subscribe event-typed: the forward pass consumes lower
bounds of the predecessor side (MIN events) and the backward pass upper
bounds of the successor side (MAX events), so e.g. tightening a map task's
*due date* never re-runs the barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.cp.domain import MAX_EVENT, MIN_EVENT
from repro.cp.propagators.base import Propagator
from repro.cp.variables import IntervalVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.domain import IntDomain
    from repro.cp.engine import Engine


class BarrierPropagator(Propagator):
    """All of ``second`` start after all of ``first`` complete (+ ``delay``).

    ``delay`` models a data-transfer/communication gap between the stages
    (zero for the paper's MapReduce barrier, whose shuffle time is folded
    into the task execution times; positive for workflow edges that ship
    intermediate data across the network).

    Intervals on both sides must be mandatory (the paper's master task
    intervals always are; only the per-resource copies are optional).
    """

    __slots__ = ("first", "second", "delay")

    def __init__(
        self,
        first: List[IntervalVar],
        second: List[IntervalVar],
        name: str = "",
        delay: int = 0,
    ) -> None:
        super().__init__(name or "barrier")
        if delay < 0:
            raise ValueError(f"barrier delay must be non-negative, got {delay}")
        self.first = list(first)
        self.second = list(second)
        self.delay = int(delay)

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        for iv in self.first:
            yield iv.start, MIN_EVENT, None
        for iv in self.second:
            yield iv.start, MAX_EVENT, None

    def propagate(self, engine: "Engine") -> None:
        first = self.first
        second = self.second
        if not first or not second:
            return
        # Forward: no second-stage task may start before every first-stage
        # task can have completed (plus the transfer delay).  Setters run
        # only where a bound moves; the same pass over the second stage
        # collects the latest moment any of its tasks could still start
        # (raising a start's min never moves its max).
        completion = first[0].start._min + first[0].length
        for iv in first:
            end = iv.start._min + iv.length
            if end > completion:
                completion = end
        barrier_min = completion + self.delay
        latest_start = second[0].start._max
        for iv in second:
            start = iv.start
            if barrier_min > start._min:
                start.set_min(barrier_min, engine)
            if start._max < latest_start:
                latest_start = start._max
        # Backward: every first-stage task must be able to complete before
        # that moment.
        barrier_max = latest_start - self.delay
        for iv in first:
            start = iv.start
            bound = barrier_max - iv.length
            if bound < start._max:
                start.set_max(bound, engine)


class EndBeforeStartPropagator(Propagator):
    """Generic pairwise precedence ``a.end + delay <= b.start``."""

    __slots__ = ("a", "b", "delay")

    def __init__(self, a: IntervalVar, b: IntervalVar, delay: int = 0, name: str = "") -> None:
        super().__init__(name or f"{a.name}->{b.name}")
        self.a = a
        self.b = b
        self.delay = int(delay)

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        yield self.a.start, MIN_EVENT, None
        yield self.b.start, MAX_EVENT, None

    def propagate(self, engine: "Engine") -> None:
        a, b = self.a, self.b
        b.start.set_min(a.start._min + a.length + self.delay, engine)
        a.start.set_max(b.start._max - self.delay - a.length, engine)
