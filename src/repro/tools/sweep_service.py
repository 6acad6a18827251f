"""CLI for the sweep service: cache-fronted figure sweeps + cache admin.

``run`` executes one experiment sweep through a
:class:`~repro.service.client.CachingSweepExecutor` backed by an on-disk
:class:`~repro.service.cache.DirectoryResultCache`, prints the report
table, and emits a telemetry document (hit/miss counters, wall seconds,
cache size).  A second
``run`` against the same cache directory is a warm replay: every repeated
point is served from the content-addressed store, bit-identical to the
cold computation.

The assertion flags turn the CLI into its own smoke harness (this is what
the CI service lane runs)::

    # cold
    python -m repro.tools.sweep_service run --scale tiny --pattern UN \\
        --routings MIN VAL --cache-dir .sweep-cache \\
        --rows-out rows-cold.json --telemetry-out tele-cold.json

    # warm: must be >=90% hits, >=10x faster, rows byte-identical
    python -m repro.tools.sweep_service run --scale tiny --pattern UN \\
        --routings MIN VAL --cache-dir .sweep-cache \\
        --rows-out rows-warm.json --telemetry-out tele-warm.json \\
        --expect-rows rows-cold.json --assert-min-hit-rate 0.9 \\
        --cold-telemetry tele-cold.json --assert-min-speedup 10

``stats`` summarizes a cache directory; ``prune`` drops entries recorded
under a stale goldens-schema revision; ``clear`` empties the cache.

Exit codes: 0 OK, 1 usage/environment error, 2 an ``--assert-*`` or
``--expect-rows`` check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.config.parameters import default_backend
from repro.service.cache import DirectoryResultCache
from repro.service.client import CachingSweepExecutor

__all__ = ["main", "run_experiment"]

TELEMETRY_SCHEMA = "sweep-service-run-v1"

#: Experiments the CLI can serve.  Each entry maps to (runner, reporter).
EXPERIMENTS = ("figure5", "cross_topology", "fault_sweep")


def run_experiment(
    experiment: str,
    executor: CachingSweepExecutor,
    *,
    scale: str = "tiny",
    pattern: str = "UN",
    routings: Optional[List[str]] = None,
    loads: Optional[List[float]] = None,
    workers: Optional[int] = None,
):
    """Run one named experiment through ``executor``; returns (rows, report)."""
    if experiment == "figure5":
        from repro.experiments.figure5 import figure5_report, run_figure5
        from repro.experiments.scales import get_scale

        rows = run_figure5(
            pattern=pattern,
            scale=get_scale(scale),
            routings=routings,
            loads=loads,
            workers=workers,
            executor=executor,
        )
        return rows, figure5_report(rows, pattern)
    if experiment == "cross_topology":
        from repro.experiments.cross_topology import (
            cross_topology_report,
            run_cross_topology,
        )

        rows = run_cross_topology(
            routings=routings or ("MIN", "VAL", "UGAL", "Base", "Hybrid"),
            pattern=pattern,
            scale=scale,
            loads=loads,
            workers=workers,
            executor=executor,
        )
        return rows, cross_topology_report(rows, pattern)
    if experiment == "fault_sweep":
        from repro.experiments.fault_sweep import fault_sweep_report, run_fault_sweep
        from repro.experiments.scales import get_scale

        rows = run_fault_sweep(
            scale=get_scale(scale),
            routings=routings or ("MIN", "VAL", "Base", "Hybrid"),
            pattern=pattern,
            workers=workers,
            executor=executor,
        )
        return rows, fault_sweep_report(rows)
    raise ValueError(f"unknown experiment {experiment!r}; pick one of {EXPERIMENTS}")


def _cmd_run(args: argparse.Namespace) -> int:
    cache = DirectoryResultCache(args.cache_dir)
    executor = CachingSweepExecutor(cache=cache, workers=args.workers)
    start = time.perf_counter()
    try:
        rows, report = run_experiment(
            args.experiment,
            executor,
            scale=args.scale,
            pattern=args.pattern,
            routings=args.routings,
            loads=args.loads,
            workers=args.workers,
        )
    finally:
        executor.close()
    wall_seconds = time.perf_counter() - start

    stats = executor.stats
    telemetry = {
        "schema": TELEMETRY_SCHEMA,
        "experiment": args.experiment,
        "scale": args.scale,
        "pattern": args.pattern,
        "routings": args.routings,
        "loads": args.loads,
        "backend": default_backend(),
        "rows": len(rows),
        "points": stats.lookups,
        "wall_seconds": round(wall_seconds, 6),
        "cache": stats.as_dict(),
        "cache_dir": str(cache.root),
        "cache_entries": len(cache),
    }

    if not args.quiet:
        print(report)
        print()
        print(
            f"[sweep-service] {stats.hits} hits / {stats.misses} misses "
            f"({100.0 * stats.hit_rate:.1f}% hit rate), "
            f"{stats.coalesced} coalesced, {wall_seconds:.2f}s wall"
        )
    if args.rows_out is not None:
        # default=repr keeps rows with non-JSON values (e.g. a fault sweep's
        # PointFailure records) serializable; such rows still compare stably.
        args.rows_out.parent.mkdir(parents=True, exist_ok=True)
        args.rows_out.write_text(
            json.dumps(rows, indent=1, sort_keys=True, default=repr) + "\n"
        )
    if args.telemetry_out is not None:
        args.telemetry_out.parent.mkdir(parents=True, exist_ok=True)
        args.telemetry_out.write_text(
            json.dumps(telemetry, indent=1, sort_keys=True) + "\n"
        )

    failures: List[str] = []
    if args.expect_rows is not None:
        expected = json.loads(args.expect_rows.read_text())
        actual = json.loads(json.dumps(rows, sort_keys=True, default=repr))
        if actual != expected:
            failures.append(
                f"rows differ from {args.expect_rows} "
                "(cached replay must be bit-identical to the recorded run)"
            )
    if args.assert_min_hit_rate is not None and stats.hit_rate < args.assert_min_hit_rate:
        failures.append(
            f"hit rate {stats.hit_rate:.3f} below required "
            f"{args.assert_min_hit_rate:.3f}"
        )
    if args.assert_min_speedup is not None:
        if args.cold_telemetry is None:
            print("--assert-min-speedup requires --cold-telemetry", file=sys.stderr)
            return 1
        cold = json.loads(args.cold_telemetry.read_text())
        cold_seconds = float(cold["wall_seconds"])
        speedup = cold_seconds / wall_seconds if wall_seconds > 0 else float("inf")
        if not args.quiet:
            print(
                f"[sweep-service] warm replay speedup: {speedup:.1f}x "
                f"(cold {cold_seconds:.2f}s -> warm {wall_seconds:.2f}s)"
            )
        if speedup < args.assert_min_speedup:
            failures.append(
                f"warm speedup {speedup:.1f}x below required "
                f"{args.assert_min_speedup:.1f}x"
            )
    for failure in failures:
        print(f"[sweep-service] FAIL: {failure}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    cache = DirectoryResultCache(args.cache_dir)
    print(json.dumps(cache.summary(), indent=1, sort_keys=True))
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    cache = DirectoryResultCache(args.cache_dir)
    removed = cache.prune_stale()
    print(f"pruned {removed} stale entries from {cache.root}")
    return 0


def _cmd_clear(args: argparse.Namespace) -> int:
    cache = DirectoryResultCache(args.cache_dir)
    removed = cache.clear()
    print(f"removed {removed} entries from {cache.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.sweep_service",
        description="Serve figure sweeps from the content-addressed result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment through the cache")
    run.add_argument("--experiment", choices=EXPERIMENTS, default="figure5")
    run.add_argument("--scale", default="tiny", help="experiment scale name")
    run.add_argument("--pattern", default="UN", help="traffic pattern")
    run.add_argument("--routings", nargs="+", default=None, help="routing subset")
    run.add_argument("--loads", nargs="+", type=float, default=None)
    run.add_argument("--workers", type=int, default=None, help="pool size for misses")
    run.add_argument("--cache-dir", required=True, type=Path)
    run.add_argument("--rows-out", type=Path, default=None, help="write rows JSON")
    run.add_argument("--telemetry-out", type=Path, default=None)
    run.add_argument(
        "--expect-rows",
        type=Path,
        default=None,
        help="fail (exit 2) unless rows equal this previously recorded JSON",
    )
    run.add_argument("--assert-min-hit-rate", type=float, default=None)
    run.add_argument("--assert-min-speedup", type=float, default=None)
    run.add_argument(
        "--cold-telemetry",
        type=Path,
        default=None,
        help="cold run's telemetry JSON (denominator for --assert-min-speedup)",
    )
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_run)

    stats = sub.add_parser("stats", help="summarize a cache directory")
    stats.add_argument("--cache-dir", required=True, type=Path)
    stats.set_defaults(func=_cmd_stats)

    prune = sub.add_parser("prune", help="drop entries with a stale schema rev")
    prune.add_argument("--cache-dir", required=True, type=Path)
    prune.set_defaults(func=_cmd_prune)

    clear = sub.add_parser("clear", help="remove every cache entry")
    clear.add_argument("--cache-dir", required=True, type=Path)
    clear.set_defaults(func=_cmd_clear)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    sys.exit(main())
