"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (sim_search, sim_facebook, service_replay, service_http)
on inputs generated from ``--seed``, checks its outputs, prints a report
and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is a separate run that wraps the program's layer entry points
and reports the per-layer metrics.  Exits 1 when a correctness check
fails and 2 when the program's source tree is missing.  See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim_search", "sim_facebook", "service_replay", "service_http")
#: Set-ups per in-process run: this process plus fresh child processes.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="MRCP-RM benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="only import, generate and wire the workload; print the seconds it took",
    )
    return parser.parse_args(argv)


def bootstrap() -> bool:
    """Put the checkout and its ``src`` first on the path; False if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path[0:1] = [str(ROOT), str(src)]
    return True


def setup(workload: str, seed: int) -> None:
    from perfbench import serviceload, simload

    if workload == "service_replay":
        serviceload.setup_replay(seed)
    else:
        simload.setup(_sim(workload), seed)


def _sim(workload: str):
    from perfbench import simload

    return simload.SIM_SEARCH if workload == "sim_search" else simload.SIM_FACEBOOK


def setup_samples(args) -> list:
    """This process's set-up time plus SETUP_SAMPLES - 1 fresh processes'."""
    samples = [time.perf_counter() - T_START]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def in_process(args, result) -> None:
    """sim_search, sim_facebook and service_replay.

    ``work`` runs the workload into ``result`` and returns the wall seconds
    of its first unit (stream 0 or pass 0), or None if that unit failed;
    ``reference`` runs the same unit untraced.
    """
    from perfbench import serviceload, simload, stats
    from perfbench.report import layer_metrics
    from perfbench.tracing import Trace, install

    if args.workload == "service_replay":
        units = max(2, round(args.seconds / serviceload.REPLAY_PASS_SECONDS))

        def work():
            walls = serviceload.run_replay(args.seed, result, units)
            return walls[0] if walls else None

        def reference():
            return serviceload.replay_pass(serviceload.replay_stream(args.seed))[2]
    else:
        wl = _sim(args.workload)
        units = max(1, round(args.seconds / wl.stream_seconds))

        def work():
            return simload.run(wl, args.seed, result, units).get(0)

        def reference():
            return simload.reference_wall(wl, args.seed)

    if not result.traced:
        samples = setup_samples(args)
        work()
        result.metrics["setup_s"] = statistics.median(samples)
        result.metrics["peak_rss_mb"] = stats.peak_rss_mb()
        result.note("setup_samples_s", ", ".join(f"{s:.3f}" for s in samples))
        return
    untraced = reference()
    trace = Trace()
    uninstall = install(trace)
    t0 = time.perf_counter()
    try:
        traced = work()
    finally:
        wall = time.perf_counter() - t0
        uninstall()
    result.metrics.update(layer_metrics(trace))
    result.metrics["trace.wall_s"] = wall
    if traced is not None:
        result.metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        result.note("first unit, untraced / traced", f"{untraced:.4g} / {traced:.4g}", "s")


def http(args, result) -> None:
    from perfbench import serviceload

    steps = serviceload.http_steps(args.seconds)
    summary, done, reference = serviceload.run_http(args.seed, result, steps, bool(args.trace))
    if result.traced:
        result.metrics.update(serviceload.http_layers(summary, done, reference))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        print(f"perfbench: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    from perfbench.report import Result

    result = Result(args.workload, traced=bool(args.trace))
    if args.workload == "service_http":
        http(args, result)
    else:
        if not result.traced:
            setup(args.workload, args.seed)
        in_process(args, result)
    print(result.render())
    print(result.json_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
