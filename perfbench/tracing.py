"""Span recording around the program's layer entry points.

The traced mode wraps public entry points from the outside -- the program
itself is not modified.  Each wrapper opens a span on a per-process stack;
closing it charges the span's duration to its parent's child time, so a
layer's *self time* (its duration minus the part covered by child spans)
is accumulated on the fly without keeping millions of hot-path spans in
memory.  :func:`self_times` is the same arithmetic over an explicit span
list, used to check the recorder.

Names are patched where they are looked up: ``repro.core.mrcp_rm`` and
``repro.service.admission`` import ``solve_invocation`` by name, and
``repro.core.invocation`` imports ``build_model`` and
``decompose_combined_schedule`` by name, so those module attributes are
replaced rather than the defining module's.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Propagator classes traced, by the short name used in metric names.
PROPAGATORS = {
    "cumulative": ("repro.cp.propagators.cumulative", "CumulativePropagator"),
    "deadline_indicator": ("repro.cp.propagators.lateness", "DeadlineIndicatorPropagator"),
    "alternative": ("repro.cp.propagators.alternative", "AlternativePropagator"),
    "energetic": ("repro.cp.propagators.energetic", "EnergeticReasoningPropagator"),
    "barrier": ("repro.cp.propagators.precedence", "BarrierPropagator"),
    "end_before_start": ("repro.cp.propagators.precedence", "EndBeforeStartPropagator"),
    "sum_bool_bound": ("repro.cp.propagators.objective", "SumBoolBoundPropagator"),
}


@dataclass
class LayerStat:
    """Accumulated spans of one name."""

    calls: int = 0
    #: Inclusive seconds of the outermost spans of this name.
    busy: float = 0.0
    #: Seconds not covered by child spans.
    self_time: float = 0.0


@dataclass
class Span:
    """One explicit span, for :func:`self_times`."""

    name: str
    start: float
    end: float
    parent: Optional[int] = None


def self_times(spans: Sequence[Span]) -> Dict[str, LayerStat]:
    """Per-name calls, busy and self seconds of an explicit span tree.

    ``parent`` indexes into ``spans``.  A span nested inside a span of the
    same name adds to ``calls`` and ``self_time`` but not to ``busy``, so
    recursion is never double counted.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: Dict[str, LayerStat] = defaultdict(LayerStat)
    for i, s in enumerate(spans):
        st = out[s.name]
        st.calls += 1
        st.self_time += (s.end - s.start) - child[i]
        if not _has_ancestor_named(spans, i, s.name):
            st.busy += s.end - s.start
    return dict(out)


def _has_ancestor_named(spans: Sequence[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


class SpanRecorder:
    """Online span stack; same arithmetic as :func:`self_times`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, LayerStat] = defaultdict(LayerStat)
        # frames: [name, start, child seconds]
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` (must be the innermost); returns its duration."""
        duration = self.clock() - frame[1]
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name = frame[0]
        self._open[name] -= 1
        st = self.stats[name]
        st.calls += 1
        st.self_time += duration - frame[2]
        if self._open[name] == 0:
            st.busy += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def is_open(self, name: str) -> bool:
        """Whether a span of ``name`` encloses the current point."""
        return self._open.get(name, 0) > 0

    def stat(self, name: str) -> LayerStat:
        return self.stats.get(name, LayerStat())


@dataclass
class SolverTotals:
    """Phase split and counts summed over every ``CpSolver.solve`` call."""

    solves: int = 0
    propagate_s: float = 0.0
    warm_start_s: float = 0.0
    tree_s: float = 0.0
    lns_s: float = 0.0
    fails: int = 0
    branches: int = 0
    propagations: int = 0
    tree_phases: int = 0
    tree_improved: int = 0
    proven_at_warm_start: int = 0
    propagators: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: defaultdict(lambda: {"runs": 0, "prunes": 0, "fails": 0})
    )

    def add(self, result) -> None:
        from repro.cp.solution import SolveStatus

        s = result.stats
        self.solves += 1
        self.propagate_s += s.propagate_time
        self.warm_start_s += s.warm_start_time
        self.tree_s += s.tree_time
        self.lns_s += s.lns_time
        self.fails += s.fails
        self.branches += s.branches
        self.propagations += s.propagations
        profile = result.profile
        if s.tree_time > 0.0:
            self.tree_phases += 1
            if profile is not None and profile.improved_by_tree:
                self.tree_improved += 1
        elif (
            result.status is SolveStatus.OPTIMAL
            and s.lns_time == 0.0
            and profile is not None
            and profile.solved_by in ("hint", "warm_start")
        ):
            self.proven_at_warm_start += 1
        if profile is not None:
            for cls_name, counts in profile.propagators.items():
                acc = self.propagators[cls_name]
                for key in ("runs", "prunes", "fails"):
                    acc[key] += int(counts.get(key, 0))


@dataclass
class Trace:
    """Everything one traced process records."""

    spans: SpanRecorder = field(default_factory=SpanRecorder)
    solver: SolverTotals = field(default_factory=SolverTotals)
    build_intervals: List[int] = field(default_factory=list)
    #: frozen assignments of each model built inside a quote
    quote_frozen: List[int] = field(default_factory=list)
    install_assignments: int = 0
    events_scheduled: int = 0
    events_dispatched: int = 0
    #: per quote, in order: (from the first controller?, job id, busy seconds, rung)
    quotes: List[Tuple[bool, str, float, str]] = field(default_factory=list)
    #: the first admission controller seen (held, so its history is the
    #: one ``service.quote.growth`` reads)
    first_controller: object = None
    #: per flushed entry: (job id, hold seconds on the service clock)
    holds: List[Tuple[str, float]] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)


def _wrap(trace: Trace, name: str, fn: Callable, after=None) -> Callable:
    """Time ``fn`` as span ``name``, then call ``after(args, kwargs, result, seconds)``."""
    rec = trace.spans

    def wrapper(*args, **kwargs):
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = rec.exit(frame)
        if after is not None:
            after(args, kwargs, result, seconds)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def install(trace: Trace) -> Callable[[], None]:
    """Patch every traced entry point; returns a function that undoes it."""
    from repro.core import executor, invocation, mrcp_rm
    from repro.cp import solver
    from repro.service import admission, batching, schemas
    from repro.sim import kernel

    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, after=None, fn=None) -> None:
        original = owner.__dict__[attr]
        if fn is None:
            fn = _wrap(trace, name, getattr(owner, attr), after)
        patches.append((owner, attr, original))
        setattr(owner, attr, fn)

    def on_build(args, kwargs, result, seconds) -> None:
        trace.build_intervals.append(len(result.interval_of))
        if trace.spans.is_open("service.admission"):
            trace.quote_frozen.append(len(result.frozen))

    def on_install(args, kwargs, result, seconds) -> None:
        assignments = args[1] if len(args) > 1 else kwargs["assignments"]
        trace.install_assignments += len(assignments)

    def on_schedule(args, kwargs, result, seconds) -> None:
        trace.events_scheduled += 1

    def on_flush(args, kwargs, result, seconds) -> None:
        now = args[1] if len(args) > 1 else kwargs["now"]
        if result:
            trace.batch_sizes.append(len(result))
            for entry in result:
                trace.holds.append((entry.spec.job_id, now - entry.offered_at))

    def on_quote(args, kwargs, result, seconds) -> None:
        if trace.first_controller is None:
            trace.first_controller = args[0]
        first = args[0] is trace.first_controller
        trace.quotes.append((first, result.job_id, seconds, result.rung))

    # simulator loop; mrcp_rm, admission and invocation look these names up
    # in their own namespaces
    patch(mrcp_rm, "solve_invocation", "core.invocation")
    patch(admission, "solve_invocation", "core.invocation")
    patch(mrcp_rm, "validate_schedule", "core.schedule")
    patch(invocation, "build_model", "core.formulation", on_build)
    patch(invocation, "decompose_combined_schedule", "core.matchmaking")
    patch(executor.ScheduledExecutor, "install", "core.executor", on_install)

    # CP solver: the phase split and counts come from the returned
    # SolveResult, with profiling forced on for per-propagator counters
    timed_solve = _wrap(
        trace, "cp.solver", solver.CpSolver.solve,
        lambda a, k, result, s: trace.solver.add(result),
    )

    def solve(self, model, hint=None, **overrides):
        overrides.setdefault("profile", True)
        return timed_solve(self, model, hint=hint, **overrides)

    patch(solver.CpSolver, "solve", "cp.solver", fn=solve)
    for short, (module_name, cls_name) in PROPAGATORS.items():
        cls = getattr(importlib.import_module(module_name), cls_name)
        patch(cls, "propagate", f"cp.prop.{short}")

    # DES kernel
    timed_run = _wrap(trace, "sim.run", kernel.Simulator.run)

    def run(self, until=None):
        before = self.dispatched
        try:
            return timed_run(self, until)
        finally:
            trace.events_dispatched += self.dispatched - before

    patch(kernel.Simulator, "run", "sim.run", fn=run)
    patch(kernel.Simulator, "schedule_at", "sim.schedule_at", on_schedule)

    # service layers
    from_dict = schemas.JobSpec.__dict__["from_dict"].__func__
    patch(
        schemas.JobSpec,
        "from_dict",
        "service.schemas",
        fn=classmethod(_wrap(trace, "service.schemas", from_dict)),
    )
    patch(batching.ArrivalBatcher, "flush_due", "service.batching", on_flush)
    patch(admission.AdmissionController, "quote", "service.admission", on_quote)

    def uninstall() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return uninstall
