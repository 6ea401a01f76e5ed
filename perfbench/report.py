"""Metric names, the per-layer table, and the printed report.

Every workload reports the same end-to-end metrics (so each one can be
compared across workloads and gated per workload), and every traced run
reports the same per-layer metrics -- zero where a workload does not
reach a layer.  A ratio whose denominator is zero reads 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import stats
from perfbench.tracing import PROPAGATORS, Trace

#: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in print order."""
    units: Dict[str, str] = {
        "trace.wall_s": "s",
        "trace.overhead_pct": "%",
        "cp.solver.calls": "count",
        "cp.solver.busy_s": "s",
        "cp.solver.self_s": "s",
        "cp.root_propagate.busy_s": "s",
        "cp.warm_start.busy_s": "s",
        "cp.warm_start.proven_ratio": "ratio",
        "cp.search.busy_s": "s",
        "cp.search.fails": "count",
        "cp.search.branches": "count",
        "cp.search.improved_ratio": "ratio",
        "cp.lns.busy_s": "s",
        "cp.propagations": "count",
    }
    for short in PROPAGATORS:
        units[f"cp.prop.{short}.busy_s"] = "s"
        units[f"cp.prop.{short}.runs"] = "count"
        units[f"cp.prop.{short}.prunes"] = "count"
        units[f"cp.prop.{short}.fails"] = "count"
    units.update(
        {
            "formulation.build.calls": "count",
            "formulation.build.busy_s": "s",
            "formulation.intervals.mean": "count",
            "invocation.calls": "count",
            "invocation.busy_s": "s",
            "invocation.self_s": "s",
            "matchmaking.decompose.calls": "count",
            "matchmaking.decompose.busy_s": "s",
            "schedule.validate.calls": "count",
            "schedule.validate.busy_s": "s",
            "executor.install.calls": "count",
            "executor.install.busy_s": "s",
            "executor.install.self_s": "s",
            "executor.install.assignments": "count",
            "sim.run.busy_s": "s",
            "sim.self_s": "s",
            "sim.schedule_at.busy_s": "s",
            "sim.events.scheduled": "count",
            "sim.events.dispatched": "count",
            "sim.events.useful_ratio": "ratio",
            "service.parse.calls": "count",
            "service.parse.busy_ms": "ms",
            "service.hold.wait_ms.p50": "ms",
            "service.hold.wait_ms.p90": "ms",
            "service.batch.size.mean": "count",
            "service.shed.count": "count",
            "service.quote.calls": "count",
            "service.quote.busy_ms.p50": "ms",
            "service.quote.busy_ms.p90": "ms",
            "service.quote.self_ms": "ms",
            "service.quote.frozen.mean": "count",
            "service.quote.growth": "ratio",
            "service.quote.cp_limited_ratio": "ratio",
            "service.http.overhead_ms.p50": "ms",
            "loadgen.sent": "count",
            "loadgen.late_ms.max": "ms",
            "loadgen.in_flight.max": "count",
        }
    )
    return units


PER_LAYER = per_layer_units()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: Sequence[float], per_mille: int) -> float:
    return stats.percentile(values, per_mille) if values else 0.0


def growth(values: Sequence[float]) -> float:
    """Mean of the last fifth over mean of the first fifth (0 if < 5 values)."""
    k = len(values) // 5
    if k == 0:
        return 0.0
    return _ratio(stats.mean(values[-k:]), stats.mean(values[:k]))


def layer_metrics(trace: Trace) -> Dict[str, float]:
    """The program-side per-layer metrics of one traced process.

    Client-side figures (``trace.*``, ``loadgen.*``, the HTTP overhead)
    are filled in by the workload; they default to 0 here.
    """
    sp = trace.spans
    sv = trace.solver
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    solver = sp.stat("cp.solver")
    m["cp.solver.calls"] = solver.calls
    m["cp.solver.busy_s"] = solver.busy
    m["cp.solver.self_s"] = solver.self_time
    m["cp.root_propagate.busy_s"] = sv.propagate_s
    m["cp.warm_start.busy_s"] = sv.warm_start_s
    m["cp.warm_start.proven_ratio"] = _ratio(sv.proven_at_warm_start, sv.solves)
    m["cp.search.busy_s"] = sv.tree_s
    m["cp.search.fails"] = sv.fails
    m["cp.search.branches"] = sv.branches
    m["cp.search.improved_ratio"] = _ratio(sv.tree_improved, sv.tree_phases)
    m["cp.lns.busy_s"] = sv.lns_s
    m["cp.propagations"] = sv.propagations
    for short, (_, cls_name) in PROPAGATORS.items():
        counts = sv.propagators.get(cls_name, {})
        m[f"cp.prop.{short}.busy_s"] = sp.stat(f"cp.prop.{short}").busy
        for key in ("runs", "prunes", "fails"):
            m[f"cp.prop.{short}.{key}"] = counts.get(key, 0)
    build = sp.stat("core.formulation")
    m["formulation.build.calls"] = build.calls
    m["formulation.build.busy_s"] = build.busy
    m["formulation.intervals.mean"] = stats.mean(trace.build_intervals)
    inv = sp.stat("core.invocation")
    m["invocation.calls"] = inv.calls
    m["invocation.busy_s"] = inv.busy
    m["invocation.self_s"] = inv.self_time
    dec = sp.stat("core.matchmaking")
    m["matchmaking.decompose.calls"] = dec.calls
    m["matchmaking.decompose.busy_s"] = dec.busy
    val = sp.stat("core.schedule")
    m["schedule.validate.calls"] = val.calls
    m["schedule.validate.busy_s"] = val.busy
    ins = sp.stat("core.executor")
    m["executor.install.calls"] = ins.calls
    m["executor.install.busy_s"] = ins.busy
    m["executor.install.self_s"] = ins.self_time
    m["executor.install.assignments"] = trace.install_assignments
    run = sp.stat("sim.run")
    m["sim.run.busy_s"] = run.busy
    m["sim.self_s"] = run.self_time
    m["sim.schedule_at.busy_s"] = sp.stat("sim.schedule_at").busy
    m["sim.events.scheduled"] = trace.events_scheduled
    m["sim.events.dispatched"] = trace.events_dispatched
    m["sim.events.useful_ratio"] = _ratio(trace.events_dispatched, trace.events_scheduled)
    parse = sp.stat("service.schemas")
    m["service.parse.calls"] = parse.calls
    m["service.parse.busy_ms"] = parse.busy * 1000.0
    holds_ms = [h * 1000.0 for _, h in trace.holds]
    m["service.hold.wait_ms.p50"] = _pct(holds_ms, 500)
    m["service.hold.wait_ms.p90"] = _pct(holds_ms, 900)
    m["service.batch.size.mean"] = stats.mean(trace.batch_sizes)
    busy_ms = [b * 1000.0 for _, _, b, _ in trace.quotes]
    # growth is read over one service's history: the first controller's
    first_ms = [b * 1000.0 for first, _, b, _ in trace.quotes if first]
    quote = sp.stat("service.admission")
    m["service.quote.calls"] = quote.calls
    m["service.quote.busy_ms.p50"] = _pct(busy_ms, 500)
    m["service.quote.busy_ms.p90"] = _pct(busy_ms, 900)
    m["service.quote.self_ms"] = quote.self_time * 1000.0
    m["service.quote.frozen.mean"] = stats.mean(trace.quote_frozen)
    m["service.quote.growth"] = growth(first_ms)
    m["service.quote.cp_limited_ratio"] = _ratio(
        sum(1 for *_, rung in trace.quotes if rung == "cp_limited"), len(trace.quotes)
    )
    return m


@dataclass
class Result:
    """What one benchmark run produced."""

    workload: str
    traced: bool
    attempted: int = 0
    failed: int = 0
    #: correctness problems found (empty when every check passed)
    problems: List[str] = field(default_factory=list)
    #: reported metrics: name -> value (units from END_TO_END / PER_LAYER)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: extra human-readable lines: (name, value, unit, note)
    notes: List[Tuple[str, object, str, str]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def note(self, name: str, value: object, unit: str = "", note: str = "") -> None:
        self.notes.append((name, value, unit, note))

    def fail(self, problem: str, count: int = 1) -> None:
        self.problems.append(problem)
        self.failed += count

    def units(self) -> Dict[str, str]:
        return PER_LAYER if self.traced else END_TO_END

    def json_line(self) -> str:
        """The result line.  A failed run reports only what it measured."""
        units = self.units()
        missing = [name for name in units if name not in self.metrics]
        if missing and self.correct:
            raise RuntimeError(f"metrics not measured: {missing}")
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": self.metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in self.metrics
                },
            }
        )

    def render(self) -> str:
        """The human-readable report printed above the JSON line."""
        mode = "traced (per-layer)" if self.traced else "untraced (end-to-end)"
        lines = [f"== perfbench {self.workload} -- {mode}"]
        for name, unit in self.units().items():
            value = self.metrics.get(name)
            shown = "-" if value is None else _fmt(value)
            lines.append(f"  {name:<36} {shown:>14} {unit}")
        if self.notes:
            lines.append("  -- details")
            for name, value, unit, note in self.notes:
                text = _fmt(value) if isinstance(value, float) else str(value)
                suffix = f"  ({note})" if note else ""
                lines.append(f"  {name:<36} {text:>14} {unit}{suffix}")
        failed_pct = 100.0 * _ratio(self.failed, self.attempted)
        lines.append(
            f"  failed_pct {failed_pct:.3f} % ({self.failed} of {self.attempted} attempted)"
        )
        for problem in self.problems:
            lines.append(f"  CHECK FAILED: {problem}")
        lines.append(f"  correct: {self.correct}")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"
