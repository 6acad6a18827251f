"""The five benchmark workloads.

Every grid below is a *literal*: nothing is derived from the topology or
routing registries, so registering a new topology, mechanism or golden point
later cannot change the work a workload does.  Each workload offers

``prepare()``  once per run, untimed (only ``sweep_warm`` needs it);
``build()``    per pass: every Simulator / executor / cache the pass needs
               (its duration is the build part of ``setup_s``);
``run(state)`` per pass: the timed region, timed by the workload itself;
``check(...)`` once per run, untimed: the correctness gate.

The workload calls that a traced run must see go through module attributes
(``parallel.run_steady_point``), never through names imported here, because
``perf.trace`` rebinds those attributes; ``perf.checks`` holds the original
functions for the untraced oracle work.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config.parameters import (
    DragonflyConfig,
    FatTreeConfig,
    FlattenedButterflyConfig,
    FullMeshConfig,
    SimulationParameters,
    TorusConfig,
)
from repro.experiments import parallel
from repro.experiments.parallel import SteadyPointSpec
from repro.obs import ObservationConfig
from repro.obs.hub import load_trace
from repro.service import CachingSweepExecutor, DirectoryResultCache
from repro.simulation.simulator import Simulator

from perf import checks, reference

__all__ = ["Context", "PassOutcome", "WORKLOADS"]

#: ``--quick`` divides every scalable cycle count by this and keeps every
#: ``QUICK_STRIDE``-th sweep spec; it exists for the smoke test only.
QUICK_DIVISOR = 8
QUICK_STRIDE = 8

# -- transient_adv / transient_probes: Fig. 7 shape --------------------------
#: 272-node Dragonfly with the transient preset's latencies and buffers.
TRANSIENT_TOPOLOGY = DragonflyConfig(p=4, a=4, h=4)
TRANSIENT_ROUTINGS = ("PB", "OLM", "Base", "ECtN")
TRANSIENT_LOAD = 0.3
#: Shrunk from the issue's 300 / 40 / 400 so that one pass takes ~3 s and a
#: 20 s run holds six of them (the shape assertion still holds at this size).
TRANSIENT_WARMUP = 100
TRANSIENT_OBSERVE_BEFORE = 20
TRANSIENT_OBSERVE_AFTER = 160
TRANSIENT_BIN = 20
#: The drain tail, spelled out (today's default for these latencies) so that it
#: scales under ``--quick`` and a changed default cannot change the work.
DRAIN = 192

# -- steady_un: Fig. 5a shape -----------------------------------------------
STEADY_TOPOLOGY = DragonflyConfig(p=2, a=4, h=2)  # the ``small`` preset, 72 nodes
STEADY_ROUTINGS = ("MIN", "VAL", "Base", "ECtN")
STEADY_LOADS = (0.05, 0.3)
#: Shrunk from 1000 / 3000 (same reason as above).
STEADY_WARMUP = 500
STEADY_MEASURE = 1500

# -- sweep_cold / sweep_warm -------------------------------------------------
#: The ``tiny`` preset of every topology, spelled out.
TINY_TOPOLOGIES = {
    "dragonfly": DragonflyConfig(p=2, a=3, h=1),
    "flattened_butterfly": FlattenedButterflyConfig(p=2, rows=3, cols=3),
    "full_mesh": FullMeshConfig(p=2, a=6),
    "torus": TorusConfig(p=2, dims=(4, 4)),
    "fat_tree": FatTreeConfig(p=2, k=2, levels=3),
}
#: The 23 steady golden configurations of ``repro.tools.record_goldens`` as of
#: this benchmark's definition: (topology, routing, pattern, load, seed).  They
#: keep their own seeds and cycle counts (150 / 300) in every mode, because
#: their results are compared with ``tests/simulation/goldens.json``.
GOLDEN_POINTS = (
    ("dragonfly", "Base", "ADV+1", 0.2, 42),
    ("dragonfly", "ECtN", "UN", 0.35, 7),
    ("dragonfly", "OLM", "ADV+h", 0.25, 3),
    ("dragonfly", "MIN", "ADV+1", 0.2, 5),
    ("dragonfly", "VAL", "ADV+1", 0.2, 5),
    ("dragonfly", "UGAL", "ADV+1", 0.2, 5),
    ("flattened_butterfly", "MIN", "ADV+1", 0.2, 5),
    ("flattened_butterfly", "VAL", "ADV+1", 0.2, 5),
    ("flattened_butterfly", "UGAL", "ADV+1", 0.2, 5),
    ("full_mesh", "MIN", "ADV+1", 0.2, 5),
    ("full_mesh", "VAL", "ADV+1", 0.2, 5),
    ("full_mesh", "UGAL", "ADV+1", 0.2, 5),
    ("torus", "MIN", "ADV+1", 0.2, 5),
    ("torus", "VAL", "ADV+1", 0.2, 5),
    ("torus", "UGAL", "ADV+1", 0.2, 5),
    ("flattened_butterfly", "Base", "ADV+1", 0.2, 5),
    ("flattened_butterfly", "Hybrid", "ADV+1", 0.2, 5),
    ("torus", "Base", "ADV+h", 0.2, 5),
    ("torus", "Hybrid", "ADV+h", 0.2, 5),
    ("fat_tree", "MIN", "ADV+1", 0.2, 5),
    ("fat_tree", "VAL", "ADV+1", 0.2, 5),
    ("fat_tree", "UGAL", "ADV+1", 0.2, 5),
    ("fat_tree", "Base", "ADV+1", 0.2, 5),
)
GOLDEN_WARMUP = 150
GOLDEN_MEASURE = 300
#: The 29 supported (topology, routing) pairs at this benchmark's definition.
GRID_PAIRS = (
    ("dragonfly", ("MIN", "VAL", "UGAL", "PB", "OLM", "Base", "Hybrid", "ECtN")),
    ("flattened_butterfly", ("MIN", "VAL", "UGAL", "OLM", "Base", "Hybrid")),
    ("full_mesh", ("MIN", "VAL", "UGAL")),
    ("torus", ("MIN", "VAL", "UGAL", "OLM", "Base", "Hybrid")),
    ("fat_tree", ("MIN", "VAL", "UGAL", "OLM", "Base", "Hybrid")),
)
GRID_PATTERNS = ("UN", "ADV+1")
GRID_LOADS = (0.2, 0.4)
#: Shrunk from 150 / 300: at that size one cold pass takes ~12 s.  Shorter
#: points also raise the share of construction, hashing and storing, which is
#: what this workload is for.
GRID_WARMUP = 20
GRID_MEASURE = 40
#: Replays of the whole spec list in one ``sweep_warm`` pass, timed in blocks
#: of at most ``WARM_BLOCK`` (one part each).
WARM_REPLAYS = 50
WARM_REPLAYS_QUICK = 10
WARM_BLOCK = 25
#: Every n-th sweep point is recomputed on the ``object`` backend.
ORACLE_STRIDE = 8


@dataclasses.dataclass
class Context:
    """What one benchmark run hands to its workload."""

    seed: int
    quick: bool
    out: Path

    def cycles(self, count: int) -> int:
        return max(1, count // QUICK_DIVISOR) if self.quick else count


@dataclasses.dataclass
class PassOutcome:
    """One timed pass: its results in submission order and its timings."""

    results: List[Any]
    #: Seconds of the separately timed parts of the pass (points, batches,
    #: replay blocks), in a fixed order; together they are the timed region.
    parts: List[float]
    #: Per part, the seconds the reference kernel took around it
    #: (see ``perf.reference``).
    reference: List[float]
    #: Simulated cycles the pass covered: executed + warped where the workload
    #: owns the Simulators, else the specs' warm-up + measurement cycles (the
    #: point runners do not expose the drain tail).
    cycles: int = 0
    #: Operations (attempted, failed) the pass itself accounts for.
    attempted: int = 0
    failed: int = 0
    #: ``transient_probes`` only: seconds of the probes-off half of the pair.
    off_s: Optional[float] = None
    #: ``sweep_warm`` only: seconds of every single replay.
    replay_s: Sequence[float] = ()

    @property
    def wall_s(self) -> float:
        return sum(self.parts)


def _call(func, *args) -> Any:
    return func(*args)


class _Timer:
    """Times the parts of one pass, each bracketed by the reference kernel."""

    def __init__(self) -> None:
        self.parts: List[float] = []
        self.reference: List[float] = []

    def time(self, func, *args) -> Any:
        result, seconds, kernel_s = reference.timed(func, *args)
        self.parts.append(seconds)
        self.reference.append(kernel_s)
        return result


class _Workload:
    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    #: Points of one pass; set by subclasses.
    points = 0

    def prepare(self) -> None:
        """Untimed work done once before the first pass."""

    def build(self) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> PassOutcome:
        raise NotImplementedError

    def check(self, state: Any, outcome: PassOutcome, ops: "checks.Ops") -> None:
        raise NotImplementedError

    def counters(self, state: Any) -> Dict[str, float]:
        """Counts a traced pass reads off the workload's own objects."""
        return {}


def _run_each(run, simulators: List[Simulator]) -> PassOutcome:
    """One timed part per Simulator."""
    timer = _Timer()
    results = [timer.time(run, sim) for sim in simulators]
    return PassOutcome(
        results,
        timer.parts,
        timer.reference,
        cycles=sum(sim.cycle for sim in simulators),
        attempted=len(results),
    )


# ---------------------------------------------------------------- transient
def _transient_params(backend: str = "soa") -> SimulationParameters:
    return dataclasses.replace(
        SimulationParameters.transient(), topology=TRANSIENT_TOPOLOGY, backend=backend
    )


class _TransientBase(_Workload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.warmup = ctx.cycles(TRANSIENT_WARMUP)
        self.before = ctx.cycles(TRANSIENT_OBSERVE_BEFORE)
        self.after = ctx.cycles(TRANSIENT_OBSERVE_AFTER)
        self.drain = ctx.cycles(DRAIN)

    def _simulator(self, routing: str, observation=None, backend: str = "soa") -> Simulator:
        sim = Simulator.build_transient(
            _transient_params(backend),
            routing,
            before="UN",
            after="ADV+1",
            offered_load=TRANSIENT_LOAD,
            switch_cycle=self.warmup,
            seed=self.ctx.seed,
        )
        if observation is not None:
            sim.attach_observation(observation)
        return sim

    def _run(self, sim: Simulator):
        return sim.run_transient(
            self.warmup, self.before, self.after, TRANSIENT_BIN, drain_cycles=self.drain
        )


class TransientAdv(_TransientBase):
    name = "transient_adv"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.points = len(TRANSIENT_ROUTINGS)

    def build(self) -> List[Simulator]:
        return [self._simulator(routing) for routing in TRANSIENT_ROUTINGS]

    def run(self, state: List[Simulator]) -> PassOutcome:
        return _run_each(self._run, state)

    def check(self, state, outcome: PassOutcome, ops: "checks.Ops") -> None:
        base = outcome.results[TRANSIENT_ROUTINGS.index("Base")]
        if not self.ctx.quick:  # the shape needs the full observation window
            ops.record(checks.fig7b_shape(base), "Fig. 7b shape of the Base series")
        oracle = self._run(self._simulator("Base", backend="object"))
        ops.record(
            checks.fingerprint(oracle) == checks.fingerprint(base),
            "object-backend oracle of the Base point",
        )
        ops.record(checks.golden_transient(), "golden transient configuration")


class TransientProbes(_TransientBase):
    name = "transient_probes"
    points = 1

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.trace_path = ctx.out / "probes.jsonl"

    def build(self) -> Dict[str, Simulator]:
        return {
            "off": self._simulator("Base"),
            "on": self._simulator("Base", ObservationConfig()),
        }

    def run(self, state: Dict[str, Any]) -> PassOutcome:
        timers = {"off": _Timer(), "on": _Timer()}
        results = {}
        # Always in this order, and the finished probes-off Simulator is
        # dropped and collected first: what is live on the heap prices the
        # collections of the next run (by 4-8 % here), so an alternating order
        # would make the gated probes-on time bimodal.
        for side in ("off", "on"):
            sim = state.pop(side)
            gc.collect()
            results[side] = timers[side].time(self._run, sim)
            if side == "on":  # the dump is a timed part of its own
                timers[side].time(sim.obs.dump, self.trace_path)
                state["perf"], state["cycles"] = dict(sim.obs.perf), sim.cycle
            del sim
        return PassOutcome(
            [results["off"], results["on"]],
            timers["on"].parts,
            timers["on"].reference,
            cycles=state["cycles"],
            attempted=2,
            off_s=timers["off"].parts[0],
        )

    def check(self, state, outcome: PassOutcome, ops: "checks.Ops") -> None:
        off, on = outcome.results
        ops.record(
            checks.fingerprint(off) == checks.fingerprint(on),
            "probes leave the result bit-identical",
        )
        perf = state["perf"]
        ops.record(
            perf.get("events", 0) > 0 and perf.get("events_dropped") == 0,
            "probes recorded events and dropped none",
        )
        trace = load_trace(self.trace_path)
        ops.record(len(trace["events"]) == perf["events"], "JSONL trace reloads")

    def counters(self, state) -> Dict[str, float]:
        perf = state["perf"]
        return {
            "obs.events": perf["events"],
            "obs.events_dropped": perf["events_dropped"],
            "obs.trace_mb": self.trace_path.stat().st_size / 1e6,
        }


# -------------------------------------------------------------------- steady
class SteadyUn(_Workload):
    name = "steady_un"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.warmup = ctx.cycles(STEADY_WARMUP)
        self.measure = ctx.cycles(STEADY_MEASURE)
        self.drain = ctx.cycles(DRAIN)
        self.grid = [(r, load) for r in STEADY_ROUTINGS for load in STEADY_LOADS]
        self.points = len(self.grid)

    def _simulator(self, routing: str, load: float, backend: str = "soa") -> Simulator:
        params = SimulationParameters.small(STEADY_TOPOLOGY).with_backend(backend)
        return Simulator(params, routing, "UN", load, seed=self.ctx.seed)

    def _run(self, sim: Simulator):
        return sim.run_steady_state(self.warmup, self.measure, drain_cycles=self.drain)

    def build(self) -> List[Simulator]:
        return [self._simulator(routing, load) for routing, load in self.grid]

    def run(self, state: List[Simulator]) -> PassOutcome:
        return _run_each(self._run, state)

    def check(self, state, outcome: PassOutcome, ops: "checks.Ops") -> None:
        served = outcome.results[self.grid.index(("MIN", 0.05))]
        oracle = self._run(self._simulator("MIN", 0.05, backend="object"))
        ops.record(
            checks.fingerprint(oracle) == checks.fingerprint(served),
            "object-backend oracle of the MIN@0.05 point",
        )


# --------------------------------------------------------------------- sweeps
def sweep_batches(ctx: Context) -> List[List[Tuple[SteadyPointSpec, Optional[tuple]]]]:
    """The sweep as batches of (spec, its golden configuration or None).

    One batch per ``map`` call: the golden configurations, then each
    topology's grid, as the cross-topology harness submits them — and so that
    the reference kernel can run between the batches.
    """

    def params(topology: str) -> SimulationParameters:
        return SimulationParameters.tiny(TINY_TOPOLOGIES[topology]).with_backend("soa")

    batches = [
        [
            (
                SteadyPointSpec(
                    params(topology), routing, pattern, load, GOLDEN_WARMUP,
                    GOLDEN_MEASURE, seed,
                ),
                (topology, routing, pattern, load, seed),
            )
            for topology, routing, pattern, load, seed in GOLDEN_POINTS
        ]
    ]
    warmup, measure = ctx.cycles(GRID_WARMUP), ctx.cycles(GRID_MEASURE)
    for topology, routings in GRID_PAIRS:
        batches.append(
            [
                (
                    SteadyPointSpec(
                        params(topology), routing, pattern, load, warmup, measure,
                        ctx.seed,
                    ),
                    None,
                )
                for routing in routings
                for pattern in GRID_PATTERNS
                for load in GRID_LOADS
            ]
        )
    if ctx.quick:
        batches = [batch[::QUICK_STRIDE] for batch in batches]
    return batches


class _SweepBase(_Workload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        batches = sweep_batches(ctx)
        self.batches = [[spec for spec, _ in batch] for batch in batches]
        self.specs = [spec for batch in self.batches for spec in batch]
        self.goldens = [golden for batch in batches for _, golden in batch]
        self.cache_dir = ctx.out / "cache"
        #: Written by ``sweep_cold``'s check; lets ``sweep_warm`` reuse the cache.
        self.record_path = ctx.out / "sweep_cold.json"
        self.points = len(self.specs)
        self.spec_cycles = sum(s.warmup_cycles + s.measure_cycles for s in self.specs)

    def _executor(self, fresh: bool) -> CachingSweepExecutor:
        """An executor over the cache directory, emptied first when ``fresh``."""
        if fresh:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        return CachingSweepExecutor(
            cache=DirectoryResultCache(self.cache_dir), workers=1
        )

    def _record(self, results: Sequence[Any]) -> None:
        record = {
            "seed": self.ctx.seed,
            "quick": self.ctx.quick,
            "fingerprints": [checks.fingerprint(r) for r in results],
        }
        self.record_path.write_text(json.dumps(record))

    def _map_batches(self, executor: CachingSweepExecutor, call=_call) -> List[Any]:
        """Every batch through ``executor.map``; results in spec order."""
        results: List[Any] = []
        for batch in self.batches:
            results += call(executor.map, parallel.run_steady_point, batch)
        return results

    def counters(self, state: CachingSweepExecutor) -> Dict[str, float]:
        summary = state.cache.summary()
        return {
            "service.cache_entries": summary["entries"],
            "service.cache_mb": summary["bytes"] / 1e6,
        }


class SweepCold(_SweepBase):
    name = "sweep_cold"

    def build(self) -> CachingSweepExecutor:
        # Replaces the previous pass's cache; the last one stays for ``sweep_warm``.
        return self._executor(fresh=True)

    def run(self, state: CachingSweepExecutor) -> PassOutcome:
        timer = _Timer()
        results = self._map_batches(state, timer.time)
        return PassOutcome(
            results,
            timer.parts,
            timer.reference,
            cycles=self.spec_cycles,
            attempted=len(results),
        )

    def check(self, state, outcome: PassOutcome, ops: "checks.Ops") -> None:
        results = outcome.results
        ops.record(
            state.stats.stores == len(self.specs) and state.stats.hits == 0,
            "every point computed and stored once",
        )
        for result, golden in zip(results, self.goldens):
            if golden is not None:
                ops.record(
                    checks.golden_steady(result, golden), f"golden point {golden}"
                )
        for index in range(0, len(self.specs), ORACLE_STRIDE):
            spec = self.specs[index]
            oracle = spec._replace(params=spec.params.with_backend("object"))
            ops.record(
                checks.oracle_equal(results[index], oracle),
                f"object-backend oracle of sweep point {index}",
            )
        self._record(results)


class SweepWarm(_SweepBase):
    name = "sweep_warm"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.replays = WARM_REPLAYS_QUICK if ctx.quick else WARM_REPLAYS
        self.block = min(self.replays, WARM_BLOCK)
        self.points *= self.replays
        self.expected: List[str] = []

    def prepare(self) -> None:
        """Reuse the cache ``sweep_cold`` left in ``--out``, else populate one."""
        try:
            record = json.loads(self.record_path.read_text())
        except (OSError, ValueError):
            record = {}
        if (
            self.cache_dir.is_dir()
            and record.get("seed") == self.ctx.seed
            and record.get("quick") == self.ctx.quick
        ):
            self.expected = record["fingerprints"]
            return
        results = self._map_batches(self._executor(fresh=True))
        self._record(results)
        self.expected = [checks.fingerprint(r) for r in results]

    def build(self) -> CachingSweepExecutor:
        return self._executor(fresh=False)

    def _replay_block(self, executor: CachingSweepExecutor, replay_s: List[float]):
        results: List[Any] = []
        for _ in range(self.block):
            start = time.perf_counter()
            results = self._map_batches(executor)
            replay_s.append(time.perf_counter() - start)
        return results

    def run(self, state: CachingSweepExecutor) -> PassOutcome:
        timer = _Timer()
        replay_s: List[float] = []
        results: List[Any] = []
        for _ in range(self.replays // self.block):
            results = timer.time(self._replay_block, state, replay_s)
        attempted = len(self.specs) * self.replays
        # A point that was recomputed instead of served is a failed operation.
        return PassOutcome(
            results,
            timer.parts,
            timer.reference,
            cycles=self.spec_cycles * self.replays,
            attempted=attempted,
            failed=attempted - state.stats.hits,
            replay_s=replay_s,
        )

    def check(self, state, outcome: PassOutcome, ops: "checks.Ops") -> None:
        served = [checks.fingerprint(result) for result in outcome.results]
        ops.record(len(served) == len(self.expected), "one served row per spec")
        for index, (got, expected) in enumerate(zip(served, self.expected)):
            ops.record(got == expected, f"served row {index} equals the computed row")


WORKLOADS = {
    cls.name: cls
    for cls in (TransientAdv, SteadyUn, SweepCold, SweepWarm, TransientProbes)
}
