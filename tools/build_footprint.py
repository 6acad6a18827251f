#!/usr/bin/env python3
"""What one Simulator costs: build seconds, peak RSS, bytes per module.

    python3 tools/build_footprint.py --preset paper [--backend soa] [--routing Base]
        [--run-cycles N [--pattern UN --load 0.1]] [--budget-mb X]

Builds one ``Simulator`` of the ``SimulationParameters.<preset>()`` system
and prints

* the build seconds, with the ``Network(...)`` and ``create_engine(...)``
  parts — the spans ``perf/trace.py`` reports as ``network.build_s`` and
  ``simulation.engine_build_s``;
* ``ru_maxrss`` of this process after that build (imports + one Simulator);
* from a second build under ``tracemalloc``: the live megabytes the build
  left behind, per ``repro`` module that allocated them;
* with ``--run-cycles N``: the same per-module table after that second
  Simulator ran ``N`` cycles, and the ten largest allocation sites (the
  ``ru_maxrss`` printed there includes ``tracemalloc``'s own bookkeeping).

The build footprint is the *floor* of what a sweep worker needs, not the
whole of it: on ``soa`` the containers follow the traffic (VC queues, node
queues, port views, route memos), so a run in flight holds several times its
build — ``--run-cycles`` is the figure to size workers by.  ``--budget-mb X``
exits 1 when the traced build footprint exceeds ``X``, and with
``--run-cycles`` also when the traced footprint in flight does (bytes, not
seconds: the gate is noise-free).  No benchmark workload is as large as ``paper``;
this is the command behind the paper-scale table in docs/architecture.md.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.config.parameters import SimulationParameters  # noqa: E402
from repro.simulation import simulator as simulator_module  # noqa: E402
import repro.simulation.soa  # noqa: E402,F401  (else loaded inside the first timed build)

PRESETS = ("tiny", "small", "transient", "paper")
MB = 1024 * 1024
PACKAGE = str(ROOT / "src" / "repro") + "/"


def max_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_build(params: SimulationParameters, routing: str) -> Dict[str, float]:
    """Build one Simulator; seconds of the whole and of its two big parts."""
    seconds: Dict[str, float] = {}

    def timed(name: str, func):
        def call(*args, **kwargs):
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                seconds[name] = perf_counter() - start

        return call

    network, create_engine = simulator_module.Network, simulator_module.create_engine
    simulator_module.Network = timed("network", network)
    simulator_module.create_engine = timed("engine", create_engine)
    try:
        start = perf_counter()
        simulator_module.Simulator(params, routing, "UN", 0.1, seed=1)
        seconds["build"] = perf_counter() - start
    finally:
        simulator_module.Network = network
        simulator_module.create_engine = create_engine
    return seconds


def traced_build(
    params: SimulationParameters, routing: str, pattern: str, load: float, run_cycles: int
) -> Tuple[tracemalloc.Snapshot, Optional[tracemalloc.Snapshot]]:
    """Build one Simulator under tracemalloc and, if asked, run it: the
    snapshot after the build and the one after ``run_cycles`` cycles."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = simulator_module.Simulator(params, routing, pattern, load, seed=1)
        built = tracemalloc.take_snapshot()
        in_flight = None
        if run_cycles:
            sim.run_cycles(run_cycles)
            in_flight = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return built, in_flight


def traced_lines(snapshot: tracemalloc.Snapshot) -> Tuple[float, List[str]]:
    """The traced megabytes of ``snapshot``, and its ``traced_mb`` line plus
    one line per ``repro`` module holding a share worth printing."""
    per_file: Dict[str, int] = defaultdict(int)
    for stat in snapshot.statistics("filename"):
        per_file[stat.traceback[0].filename] += stat.size
    modules = {
        name[len(PACKAGE):]: size for name, size in per_file.items()
        if name.startswith(PACKAGE)
    }
    traced_mb = sum(per_file.values()) / MB
    lines = [f"traced_mb {traced_mb:.2f}  (repro {sum(modules.values()) / MB:.2f})"]
    for name, size in sorted(modules.items(), key=lambda item: -item[1]):
        if size >= 0.005 * MB:
            lines.append(f"  {size / MB:8.2f}  {name}")
    return traced_mb, lines


def report(
    preset: str, backend: str, routing: str, pattern: str, load: float, run_cycles: int
) -> Tuple[Dict[str, float], List[str]]:
    """The traced megabytes of the build (and, with ``run_cycles``, in
    flight), and the lines to print."""
    params = getattr(SimulationParameters, preset)().with_backend(backend)
    topology = params.topology
    seconds = timed_build(params, routing)
    built_rss_mb = max_rss_mb()
    built, in_flight = traced_build(params, routing, pattern, load, run_cycles)

    build_mb, build_lines = traced_lines(built)
    traced = {"build": build_mb}
    lines = [
        f"preset {preset}: {topology.num_routers} routers of radix "
        f"{topology.router_radix}, {topology.num_nodes} nodes; "
        f"backend {backend}, routing {routing}",
        f"build_s {seconds['build']:.3f}  (network {seconds['network']:.3f}, "
        f"engine {seconds['engine']:.3f})",
        f"ru_maxrss_mb {built_rss_mb:.1f}",
        *build_lines,
    ]
    if in_flight is not None:
        lines.append(f"after {run_cycles} cycles of {pattern} at load {load:g}:")
        lines.append(f"ru_maxrss_mb {max_rss_mb():.1f}")
        traced["in-flight"], in_flight_lines = traced_lines(in_flight)
        lines += in_flight_lines
        lines.append("largest allocation sites:")
        for stat in in_flight.statistics("lineno")[:10]:
            frame = stat.traceback[0]
            name = frame.filename
            if name.startswith(PACKAGE):
                name = name[len(PACKAGE):]
            lines.append(f"  {stat.size / MB:8.2f}  {name}:{frame.lineno}")
    return traced, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=PRESETS, required=True)
    parser.add_argument("--backend", choices=("soa", "object"), default="soa")
    parser.add_argument("--routing", default="Base")
    parser.add_argument(
        "--run-cycles", type=int, default=0, metavar="N",
        help="also report the live memory after running N cycles",
    )
    parser.add_argument("--pattern", default="UN", help="traffic of --run-cycles")
    parser.add_argument("--load", type=float, default=0.1, help="offered load of --run-cycles")
    parser.add_argument(
        "--budget-mb", type=float, default=None, metavar="X",
        help="exit 1 when the traced build footprint (or, with --run-cycles, "
        "the traced footprint in flight) exceeds X MB",
    )
    args = parser.parse_args(argv)
    traced, lines = report(
        args.preset, args.backend, args.routing, args.pattern, args.load, args.run_cycles
    )
    print("\n".join(lines))
    over = {
        what: mb
        for what, mb in traced.items()
        if args.budget_mb is not None and mb > args.budget_mb
    }
    for what, mb in over.items():
        print(
            f"{what} footprint {mb:.2f} MB exceeds the budget of {args.budget_mb:g} MB",
            file=sys.stderr,
        )
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
