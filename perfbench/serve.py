"""Launch the admission service over HTTP with the ``mrcp-rm serve`` defaults.

Usage: ``python3 perfbench/serve.py [--trace 1]``.  The service listens on
a free port of 127.0.0.1 (printed on stdout) until ``POST /shutdown``;
then one line ``perfbench-summary {json}`` reports the process's peak
RSS and, when traced, its per-layer figures and per-job hold and quote
times.  With ``--trace 1`` the span wrappers are installed before the
service is built.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUMMARY_TAG = "perfbench-summary "


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path[0:1] = [str(ROOT), str(src)]

    from perfbench import stats
    from perfbench.report import layer_metrics
    from perfbench.tracing import Trace, install

    trace = Trace() if args.trace else None
    if trace is not None:
        install(trace)

    from repro.service.server import SchedulerService, ServiceConfig
    from repro.workload import make_uniform_cluster

    service = SchedulerService(
        resources=make_uniform_cluster(4), config=ServiceConfig(port=0)
    )
    asyncio.run(service.serve())
    summary = {"peak_rss_mb": stats.peak_rss_mb(), "shed": service.batcher.shed_total}
    if trace is not None:
        summary["layers"] = layer_metrics(trace)
        summary["hold_ms"] = {job: s * 1000.0 for job, s in trace.holds}
        summary["quote_ms"] = {job: s * 1000.0 for _, job, s, _ in trace.quotes}
    print(SUMMARY_TAG + json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
