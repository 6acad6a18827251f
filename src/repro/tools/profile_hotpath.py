"""cProfile harness over representative simulator workloads.

Future performance PRs should start from data, not intuition::

    PYTHONPATH=src python -m repro.tools.profile_hotpath
    PYTHONPATH=src python -m repro.tools.profile_hotpath --scenario transient
    PYTHONPATH=src python -m repro.tools.profile_hotpath --scenario drain --sort cumulative
    PYTHONPATH=src python -m repro.tools.profile_hotpath --routing ECtN --load 0.6 --top 40
    PYTHONPATH=src python -m repro.tools.profile_hotpath --scenario saturated --backend object

Scenarios
---------
``steady``
    Warm-up + measurement + drain on the chosen preset (default: ``small``
    at 30 % uniform load) — the figure-5/6/10 shape.
``transient``
    UN→ADV+1 traffic change on the transient preset — the figure-7/8/9
    shape.
``saturated``
    Adversarial traffic past the routing's crossover load (default 60 % on
    the transient preset): every VC queue holds waiting heads, so the
    allocator, the misroute triggers and the credit machinery dominate.
    This is the worst case for any backend — profile it before and after a
    hot-path change.
``drain``
    A short busy phase, then injection stops and the simulation drains and
    idles for many cycles — the regime the time-warp engine accelerates.

``--backend`` points any scenario at a simulation backend (``soa`` or
``object``; default: the session's, see ``REPRO_BACKEND``); run the same
scenario once per backend to get a side-by-side hot-path picture.

Each run prints the simulated-cycle counts (executed vs warped-over) and
wall-clock before the profile table, so a perf change is visible even
without reading the profile.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time

from repro.config.parameters import (
    SimulationParameters,
    VALID_BACKENDS,
    default_backend,
)
from repro.simulation.engine import ENGINE_STATS
from repro.simulation.simulator import Simulator

PRESETS = {
    "tiny": SimulationParameters.tiny,
    "small": SimulationParameters.small,
    "transient": SimulationParameters.transient,
    "paper": SimulationParameters.paper,
}


def _params(args, preset: str = None):
    return PRESETS[preset or args.preset]().with_backend(args.backend)


def _run_steady(args) -> None:
    sim = Simulator(_params(args), args.routing, args.pattern, args.load, seed=args.seed)
    sim.run_steady_state(warmup_cycles=args.cycles // 3, measure_cycles=args.cycles)


def _run_transient(args) -> None:
    sim = Simulator.build_transient(
        _params(args, "transient"),
        args.routing,
        "UN",
        "ADV+1",
        offered_load=args.load,
        switch_cycle=args.cycles // 3,
        seed=args.seed,
    )
    sim.run_transient(
        warmup_cycles=args.cycles // 3,
        observe_before=args.cycles // 6,
        observe_after=args.cycles // 2,
        bin_size=20,
    )


def _run_saturated(args) -> None:
    # ADV+1 past the crossover on the transient preset: the network holds a
    # standing backlog, so every cycle exercises allocation under
    # contention rather than mostly-empty routers.
    sim = Simulator(
        _params(args, "transient"), args.routing, "ADV+1", args.load, seed=args.seed
    )
    sim.run_steady_state(warmup_cycles=args.cycles // 3, measure_cycles=args.cycles)


def _run_drain(args) -> None:
    sim = Simulator(_params(args), args.routing, args.pattern, args.load, seed=args.seed)
    sim.run_cycles(args.cycles // 4)
    sim.traffic.set_offered_load(0.0)
    sim.run_cycles(10 * args.cycles)


SCENARIOS = {
    "steady": _run_steady,
    "transient": _run_transient,
    "saturated": _run_saturated,
    "drain": _run_drain,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="steady")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="small")
    parser.add_argument("--routing", default="Base")
    parser.add_argument("--pattern", default="UN")
    parser.add_argument(
        "--backend",
        choices=sorted(VALID_BACKENDS),
        default=default_backend(),
        help="simulation backend to profile (default: %(default)s)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=None,
        help="offered load (default 0.3; the saturated scenario defaults to 0.6)",
    )
    parser.add_argument("--cycles", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--sort", default="tottime", help="pstats sort key (tottime, cumulative, ...)"
    )
    parser.add_argument("--top", type=int, default=25, help="rows of the profile table")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of the text "
        "report (same telemetry family as the BENCH_*.json artifacts)",
    )
    args = parser.parse_args(argv)
    if args.load is None:
        args.load = 0.6 if args.scenario == "saturated" else 0.3
    # These scenarios pin their preset/pattern; reflect that in the header.
    if args.scenario == "saturated":
        args.preset, args.pattern = "transient", "ADV+1"
    elif args.scenario == "transient":
        args.preset, args.pattern = "transient", "UN->ADV+1"

    ENGINE_STATS.reset()
    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    SCENARIOS[args.scenario](args)
    profiler.disable()
    wall = time.perf_counter() - wall_start

    executed = ENGINE_STATS.cycles_executed
    skipped = ENGINE_STATS.cycles_skipped
    total = executed + skipped
    rate = total / wall if wall > 0 else float("nan")
    stats = pstats.Stats(profiler)
    if args.json:
        print(json.dumps(_json_document(args, wall, executed, skipped, rate, stats)))
        return 0
    print(
        f"scenario={args.scenario} preset={args.preset} routing={args.routing} "
        f"pattern={args.pattern} load={args.load} backend={args.backend}"
    )
    print(
        f"wall={wall:.3f}s cycles={total} (executed={executed}, warped={skipped}) "
        f"-> {rate:,.0f} cycles/s"
    )
    print()
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def _json_document(args, wall, executed, skipped, rate, stats) -> dict:
    """The ``--json`` payload: run identity, cycle counts, top functions."""
    sort_field = {"tottime": 2, "cumulative": 3}.get(args.sort, 2)
    rows = sorted(
        (
            (func, ncalls, tottime, cumtime)
            for func, (_cc, ncalls, tottime, cumtime, _callers) in stats.stats.items()
        ),
        key=lambda row: row[sort_field],
        reverse=True,
    )[: args.top]
    return {
        "schema": "profile-hotpath-v1",
        "scenario": args.scenario,
        "preset": args.preset,
        "routing": args.routing,
        "pattern": args.pattern,
        "offered_load": args.load,
        "backend": args.backend,
        "seed": args.seed,
        "wall_seconds": round(wall, 4),
        "cycles_executed": executed,
        "cycles_skipped": skipped,
        "cycles_per_second": round(rate, 1),
        "sort": args.sort,
        "top_functions": [
            {
                "file": func[0],
                "line": func[1],
                "function": func[2],
                "ncalls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
            for func, ncalls, tottime, cumtime in rows
        ],
    }


if __name__ == "__main__":
    sys.exit(main())
