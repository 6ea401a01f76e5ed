"""Reified deadline-miss indicator (Table 1, constraint 4).

``N_j = 1`` iff the job's latest-finishing last-stage task completes after the
deadline.  The paper states the constraint as a one-directional implication
(late => ``N_j = 1``); we propagate the full reification because the reverse
direction (``N_j = 0`` => every last-stage task ends by the deadline) is what
gives branch-and-bound its pruning power: when the objective cut forces an
indicator to 0, the job's tasks immediately acquire due dates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.cp.domain import FIX_EVENT, MAX_EVENT, MIN_EVENT
from repro.cp.errors import Infeasible
from repro.cp.propagators.base import Propagator
from repro.cp.variables import BoolVar, IntervalVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.cp.domain import IntDomain
    from repro.cp.engine import Engine


class DeadlineIndicatorPropagator(Propagator):
    """``indicator = (max(task.end for task in tasks) > deadline)``.

    ``tasks`` are the job's last-stage intervals -- its reduce tasks, or its
    map tasks for map-only jobs (job types 1, 2, 4, 5, 7, 10 of the Facebook
    workload have no reduces).  They must be mandatory intervals.
    """

    __slots__ = ("tasks", "deadline", "indicator")

    def __init__(
        self,
        tasks: List[IntervalVar],
        deadline: int,
        indicator: BoolVar,
        name: str = "",
    ) -> None:
        super().__init__(name or f"late({indicator.name})")
        if not tasks:
            raise ValueError("deadline indicator needs at least one task")
        self.tasks = list(tasks)
        self.deadline = int(deadline)
        self.indicator = indicator

    def watches(self) -> Iterable[Tuple["IntDomain", int, object]]:
        # The reverse direction only triggers once the indicator is decided.
        yield self.indicator.domain, FIX_EVENT, None
        for iv in self.tasks:
            yield iv.start, MIN_EVENT | MAX_EVENT, None

    def propagate(self, engine: "Engine") -> None:
        d = self.deadline
        tasks = self.tasks
        completion_min = completion_max = tasks[0].start._min + tasks[0].length
        for iv in tasks:
            start = iv.start
            length = iv.length
            end = start._min + length
            if end > completion_min:
                completion_min = end
            end = start._max + length
            if end > completion_max:
                completion_max = end

        flag = self.indicator.domain
        if completion_min > d and flag._min == 0:
            # The job cannot finish on time in any extension of this node
            # (raises when the indicator is already fixed to 0).
            flag.set_min(1, engine)
        if completion_max <= d and flag._max == 1:
            # The job is on time in every extension (raises when fixed to 1).
            flag.set_max(0, engine)

        if flag._min == flag._max:
            if flag._max == 0:
                # On-time: every last-stage task must end by the deadline;
                # only tasks that can still end after it move.
                for iv in tasks:
                    start = iv.start
                    if start._max + iv.length > d:
                        start.set_max(d - iv.length, engine)
            else:
                # Late: at least one task must end after the deadline.
                can_be_late = [iv for iv in tasks if iv.lct > d]
                if not can_be_late:
                    raise Infeasible(
                        f"{self.name}: indicator forced true but no task "
                        f"can end after {d}"
                    )
                if len(can_be_late) == 1:
                    can_be_late[0].set_end_min(d + 1, engine)
