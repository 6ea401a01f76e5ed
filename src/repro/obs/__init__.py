"""Observability: tracing, metrics registry, structured logging.

The paper's evaluation hinges on knowing *where* scheduling overhead O is
spent -- CP propagation vs. tree search vs. LNS vs. matchmaking.  This
package provides the three primitives the rest of the system reports into:

* :class:`~repro.obs.trace.Tracer` -- span-based tracing emitting Chrome
  trace-event JSON (Perfetto / ``chrome://tracing``) plus a JSONL event
  log; zero-overhead no-op when disabled.
* :class:`~repro.obs.metrics.MetricsRegistry` -- run-scoped counters,
  gauges and fixed-bucket histograms.
* :mod:`repro.obs.logs` -- structured ``logging`` under the ``repro.*``
  namespace with an idempotent :func:`~repro.obs.logs.configure_logging`.

Built on top of those primitives:

* :mod:`repro.obs.forensics` -- per-job lateness attribution (why was each
  late job late: contention vs solver vs faults vs execution).
* :mod:`repro.obs.report` -- a self-contained zero-dependency HTML run
  report (Gantt, utilization, slack waterfall, solver tables).
* :mod:`repro.obs.conformance` -- strict Chrome trace-event validation.
* :mod:`repro.obs.timeseries` -- a deterministic sim-time telemetry sampler
  writing bounded in-memory series and series JSONL files.
* :mod:`repro.obs.export` -- OpenMetrics/Prometheus text rendering of the
  metrics registry and sampled series, plus a strict format validator.
* :mod:`repro.obs.slo` -- declarative SLOs with multi-window burn-rate
  alerting over the sampled series.
* :mod:`repro.obs.structdiff` -- shared leaf-level structural diff over
  JSON-like values (checkpoint compare, bench deltas, run diffs).
* :mod:`repro.obs.diff` -- the deterministic run-diff engine: event
  alignment with first-divergence localisation, checkpoint bisection,
  per-job delta waterfalls, sweep and series diffs (exported lazily --
  it imports the run machinery, which imports this package).
* :mod:`repro.obs.diffreport` -- the self-contained HTML diff report
  (also lazy, for the same reason).

See ``docs/OBSERVABILITY.md`` for how to capture and read a trace and
how to diff two runs.
"""

from repro.obs.config import ObsConfig
from repro.obs.conformance import validate_trace_document, validate_trace_events
from repro.obs.forensics import (
    AttemptRecord,
    LatenessAttribution,
    attribute_lateness,
    attributions_csv,
    format_attributions,
    load_trace_events,
    outage_windows,
    parse_attempts,
    write_attributions_csv,
)
from repro.obs.export import (
    render_openmetrics,
    render_series_openmetrics,
    validate_openmetrics,
    write_openmetrics,
)
from repro.obs.report import render_report, write_report
from repro.obs.logs import configure_logging, get_logger, kv
from repro.obs.slo import (
    BurnWindow,
    SloAlert,
    SloMonitor,
    SloSpec,
    default_slos,
)
from repro.obs.timeseries import (
    NULL_SAMPLER,
    NullTimeSeriesSampler,
    SeriesStore,
    TelemetryConfig,
    TimeSeriesSampler,
    read_series_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
)
from repro.obs.structdiff import (
    DiffEntry,
    diff_paths,
    first_mismatch,
    format_entries,
    structural_diff,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    SIM_PID,
    WALL_PID,
    NullSpan,
    Span,
    TraceRecorder,
    Tracer,
)

# The diff engine imports repro.experiments.runner, which imports this
# package -- so its surface is re-exported lazily (PEP 562), the same
# pattern the runner uses for the sweep-pool API.
_DIFF_EXPORTS = {
    "DIFF_SCHEMA": "repro.obs.diff",
    "BisectionResult": "repro.obs.diff",
    "EventAlignment": "repro.obs.diff",
    "RunArtifacts": "repro.obs.diff",
    "RunDiff": "repro.obs.diff",
    "align_events": "repro.obs.diff",
    "bisect_divergence": "repro.obs.diff",
    "canonicalize_events": "repro.obs.diff",
    "capture_run_dir": "repro.obs.diff",
    "delta_waterfalls": "repro.obs.diff",
    "diff_run_dirs": "repro.obs.diff",
    "diff_runs": "repro.obs.diff",
    "diff_series": "repro.obs.diff",
    "diff_sweeps": "repro.obs.diff",
    "first_divergent_plan": "repro.obs.diff",
    "load_run_dir": "repro.obs.diff",
    "metrics_delta": "repro.obs.diff",
    "write_diff_json": "repro.obs.diff",
    "render_diff_report": "repro.obs.diffreport",
    "write_diff_report": "repro.obs.diffreport",
}


def __getattr__(name: str):
    module_name = _DIFF_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_DIFF_EXPORTS))


__all__ = [
    "ObsConfig",
    "Tracer",
    "TraceRecorder",
    "Span",
    "NullSpan",
    "NULL_TRACER",
    "NULL_SPAN",
    "WALL_PID",
    "SIM_PID",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "configure_logging",
    "get_logger",
    "kv",
    "AttemptRecord",
    "LatenessAttribution",
    "attribute_lateness",
    "attributions_csv",
    "format_attributions",
    "load_trace_events",
    "outage_windows",
    "parse_attempts",
    "write_attributions_csv",
    "render_report",
    "write_report",
    "validate_trace_events",
    "validate_trace_document",
    "TelemetryConfig",
    "TimeSeriesSampler",
    "NullTimeSeriesSampler",
    "NULL_SAMPLER",
    "SeriesStore",
    "read_series_jsonl",
    "render_openmetrics",
    "render_series_openmetrics",
    "validate_openmetrics",
    "write_openmetrics",
    "SloSpec",
    "SloMonitor",
    "SloAlert",
    "BurnWindow",
    "default_slos",
    "DiffEntry",
    "structural_diff",
    "diff_paths",
    "format_entries",
    "first_mismatch",
    *sorted(_DIFF_EXPORTS),
]
