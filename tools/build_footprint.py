#!/usr/bin/env python3
"""What building one Simulator costs: seconds, peak RSS, bytes per module.

    python3 tools/build_footprint.py --preset paper [--backend soa] [--routing Base]

Builds one ``Simulator`` of the ``SimulationParameters.<preset>()`` system
and prints

* the build seconds, with the ``Network(...)`` and ``create_engine(...)``
  parts — the spans ``perf/trace.py`` reports as ``network.build_s`` and
  ``simulation.engine_build_s``;
* ``ru_maxrss`` of this process after that build (imports + one Simulator);
* from a second build under ``tracemalloc``: the live megabytes the build
  left behind, per ``repro`` module that allocated them.

A sweep worker holds one Simulator at a time, so the second line is the
memory one worker needs.  No benchmark workload is as large as ``paper``;
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
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.config.parameters import SimulationParameters  # noqa: E402
from repro.simulation import simulator as simulator_module  # noqa: E402
import repro.simulation.soa  # noqa: E402,F401  (else loaded inside the first timed build)

PRESETS = ("tiny", "small", "transient", "paper")
MB = 1024 * 1024


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


def traced_build(params: SimulationParameters, routing: str) -> Dict[str, int]:
    """Build one Simulator under tracemalloc; live bytes per source file."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = simulator_module.Simulator(params, routing, "UN", 0.1, seed=1)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del sim
    per_file: Dict[str, int] = defaultdict(int)
    for stat in snapshot.statistics("filename"):
        per_file[stat.traceback[0].filename] += stat.size
    return per_file


def report(preset: str, backend: str, routing: str) -> List[str]:
    params = getattr(SimulationParameters, preset)().with_backend(backend)
    topology = params.topology
    seconds = timed_build(params, routing)
    # Linux reports kilobytes.
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_file = traced_build(params, routing)

    package = str(ROOT / "src" / "repro") + "/"
    modules = {
        name[len(package):]: size for name, size in per_file.items()
        if name.startswith(package)
    }
    traced_total = sum(per_file.values())
    lines = [
        f"preset {preset}: {topology.num_routers} routers of radix "
        f"{topology.router_radix}, {topology.num_nodes} nodes; "
        f"backend {backend}, routing {routing}",
        f"build_s {seconds['build']:.3f}  (network {seconds['network']:.3f}, "
        f"engine {seconds['engine']:.3f})",
        f"ru_maxrss_mb {max_rss_mb:.1f}",
        f"traced_mb {traced_total / MB:.2f}  "
        f"(repro {sum(modules.values()) / MB:.2f})",
    ]
    for name, size in sorted(modules.items(), key=lambda item: -item[1]):
        if size >= 0.005 * MB:
            lines.append(f"  {size / MB:8.2f}  {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=PRESETS, required=True)
    parser.add_argument("--backend", choices=("soa", "object"), default="soa")
    parser.add_argument("--routing", default="Base")
    args = parser.parse_args(argv)
    print("\n".join(report(args.preset, args.backend, args.routing)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
