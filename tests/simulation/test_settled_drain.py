"""A drain ends when its measurement window is settled.

``drain_cycles`` is an upper bound: once the window has closed and every
packet generated inside it has been delivered or dropped, no result field can
change any more, so ``Simulator`` stops the drain there.  These tests compare
that with the fixed-length drain (the stop condition withheld by patching
``MetricsCollector.window_settled``): equal results, never more cycles, the
same stop cycle on both backends and with the warp on or off — and the cases
that must keep their whole budget (a saturated point, a fault run).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config.parameters import SimulationParameters
from repro.metrics.collector import MetricsCollector
from repro.service.keys import result_fingerprint
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel
from repro.topology.registry import topology_preset

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())
BACKENDS = ("object", "soa")
STEADY = [
    pytest.param({"topology": "dragonfly", **g}, id=f"dragonfly-{g['routing']}-{g['seed']}")
    for g in GOLDENS["steady"]
] + [
    pytest.param(g, id=f"{g['topology']}-{g['routing']}-{g['seed']}")
    for g in GOLDENS["cross_topology"]
]


@pytest.fixture
def fixed_drain(monkeypatch):
    """Run a callable with the stop condition withheld: the full drain."""

    def run(func):
        with monkeypatch.context() as patch:
            patch.setattr(MetricsCollector, "window_settled", lambda self: False)
            return func()

    return run


def _steady(backend, routing, pattern, load, seed, topology="dragonfly", **options):
    params = SimulationParameters.tiny(topology_preset(topology)).with_backend(backend)
    sim = Simulator(params, routing, pattern, load, seed=seed, **options)
    return sim, sim.run_steady_state(warmup_cycles=150, measure_cycles=300)


def _golden_transient(backend):
    cfg = GOLDENS["transient"]["config"]
    sim = Simulator.build_transient(
        SimulationParameters.tiny().with_backend(backend),
        cfg["routing"],
        cfg["before"],
        cfg["after"],
        offered_load=cfg["offered_load"],
        switch_cycle=cfg["switch_cycle"],
        seed=cfg["seed"],
    )
    result = sim.run_transient(
        warmup_cycles=cfg["switch_cycle"],
        observe_before=cfg["observe_before"],
        observe_after=cfg["observe_after"],
        bin_size=cfg["bin_size"],
    )
    return sim, result


def _assert_settled_equals_fixed(settled, fixed):
    (sim, result), (fixed_sim, fixed_result) = settled, fixed
    assert result.as_dict() == fixed_result.as_dict()
    assert result_fingerprint(result) == result_fingerprint(fixed_result)
    assert sim.cycle <= fixed_sim.cycle
    assert sim.unsettled_packets == fixed_sim.unsettled_packets
    budget = fixed_sim.drain_cycles_used
    if sim.unsettled_packets:
        assert sim.drain_cycles_used == budget
    else:
        assert sim.cycle - sim.drain_cycles_used == fixed_sim.cycle - budget


@pytest.mark.parametrize("backend", BACKENDS)
class TestSettledEqualsFixed:
    @pytest.mark.parametrize("golden", STEADY)
    def test_steady_goldens(self, backend, golden, fixed_drain):
        point = (
            backend, golden["routing"], golden["pattern"], golden["offered_load"],
            golden["seed"], golden["topology"],
        )
        settled = _steady(*point)
        for field, value in golden["expected"].items():
            assert getattr(settled[1], field) == value, field
        _assert_settled_equals_fixed(settled, fixed_drain(lambda: _steady(*point)))

    def test_golden_transient(self, backend, fixed_drain):
        settled = _golden_transient(backend)
        assert settled[1].mean_latency == GOLDENS["transient"]["expected"]["mean_latency"]
        _assert_settled_equals_fixed(
            settled, fixed_drain(lambda: _golden_transient(backend))
        )

    def test_saturated_point_spends_its_budget(self, backend, fixed_drain):
        """PB under ADV+1 past saturation: the window cannot settle, and the
        packets its latency figures leave out are reported."""
        point = (backend, "PB", "ADV+1", 0.8, 3)
        sim, result = settled = _steady(*point)
        assert sim.unsettled_packets > 0
        assert sim.drain_cycles_used == sim._default_drain_cycles()
        _assert_settled_equals_fixed(settled, fixed_drain(lambda: _steady(*point)))

    def test_fault_run_drains_in_full(self, backend, fixed_drain):
        """``dropped_packets`` and the epoch throughput span the whole drain."""
        point = (backend, "MIN", "UN", 0.1, 5)
        faults = FaultModel(link_failure_percent=10.0)
        sim, result = _steady(*point, fault_model=faults)
        assert sim.faults is not None and sim.unsettled_packets == 0
        assert sim.drain_cycles_used == sim._default_drain_cycles()
        fixed_sim, fixed_result = fixed_drain(
            lambda: _steady(*point, fault_model=faults)
        )
        assert result.as_dict() == fixed_result.as_dict()
        assert sim.cycle == fixed_sim.cycle
        # The same point without faults settles early.
        assert _steady(*point)[0].drain_cycles_used < sim.drain_cycles_used

    def test_zero_traffic_drain_returns_immediately(self, backend):
        sim, result = _steady(backend, "MIN", "UN", 0.0, 1)
        assert sim.drain_cycles_used == 0 and sim.unsettled_packets == 0
        assert sim.cycle == 450 and result.delivered_packets == 0

    def test_probes_report_the_drain(self, backend):
        from repro.obs import ObservationConfig

        sim, _ = _steady(backend, "Base", "UN", 0.1, 3, observation=ObservationConfig())
        assert sim.obs.perf["drain_cycles_used"] == sim.drain_cycles_used > 0
        assert sim.obs.perf["unsettled_packets"] == sim.unsettled_packets == 0


class TestStopCycle:
    @pytest.mark.parametrize("load", [0.02, 0.3])
    def test_equal_across_backends_and_warp(self, load):
        """Settling happens in an executed step (a delivery), never in a warp
        jump, so every engine stops at the same cycle."""
        seen = {}
        for backend in BACKENDS:
            for warp in (True, False):
                sim, result = _steady(backend, "Base", "UN", load, 9, time_warp=warp)
                assert 0 < sim.drain_cycles_used < sim._default_drain_cycles()
                seen[backend, warp] = (
                    sim.cycle, sim.engine.cycles_skipped, result_fingerprint(result)
                )
        assert seen["object", True] == seen["soa", True]
        assert seen["object", False] == seen["soa", False]
        assert seen["soa", True][0] == seen["soa", False][0]
        assert seen["soa", True][2] == seen["soa", False][2]
        assert seen["soa", False][1] == 0

    def test_run_until_is_asked_before_every_step(self, tiny_params):
        sim = Simulator(tiny_params, "MIN", "UN", 0.2, seed=1, time_warp=False)
        asked = []
        sim.engine.run(50, until=lambda: asked.append(sim.cycle) or sim.cycle >= 7)
        assert asked == list(range(8)) and sim.cycle == 7
        sim.engine.run(50, until=lambda: True)  # already true: returns at once
        assert sim.cycle == 7


# ------------------------------------------------------------------ slow grid
def _sweep_simulator(spec):
    """The simulator ``parallel.run_steady_point`` builds for ``spec``."""
    return Simulator(
        spec.params,
        spec.routing,
        pattern=spec.pattern,
        offered_load=spec.offered_load,
        seed=spec.seed,
        pattern_factory=spec.pattern_factory,
        fault_model=spec.fault_model,
    )


def _benchmark_points():
    """The points of the repo benchmark's simulating workloads, as
    ``(id, build, run)``: ``build()`` returns the point's simulator and
    ``run(sim)`` its result.  Needs the checkout's ``perf/``."""
    workloads = pytest.importorskip("perf.workloads")

    ctx = workloads.Context(seed=1, quick=False, out=Path("unused"))
    sweep = workloads.SweepCold(ctx)
    for index, spec in enumerate(sweep.specs):
        yield f"sweep-{index}", lambda spec=spec: _sweep_simulator(spec), (
            lambda sim, spec=spec: sim.run_steady_state(
                spec.warmup_cycles, spec.measure_cycles
            )
        )
    steady = workloads.SteadyUn(ctx)
    for routing, load in steady.grid:
        yield f"steady-{routing}-{load}", (
            lambda r=routing, l=load: steady._simulator(r, l)
        ), steady._run
    transient = workloads.TransientAdv(ctx)
    for routing in workloads.TRANSIENT_ROUTINGS:
        yield f"transient-{routing}", (
            lambda r=routing: transient._simulator(r)
        ), transient._run


@pytest.mark.slow
def test_benchmark_sized_grids_equal_fixed_drain(fixed_drain):
    """Every point of ``sweep_cold``, ``steady_un`` and ``transient_adv``:
    the settled drain returns the fixed drain's result in fewer cycles."""

    def timed(build, run):
        sim = build()
        return result_fingerprint(run(sim)), sim.engine.cycle

    saved = settled_early = points = 0
    for name, build, run in _benchmark_points():
        (digest, cycles), (fixed_digest, fixed_cycles) = timed(build, run), fixed_drain(
            lambda: timed(build, run)
        )
        assert digest == fixed_digest, name
        assert cycles <= fixed_cycles, name
        points += 1
        saved += fixed_cycles - cycles
        settled_early += cycles < fixed_cycles
    assert points == 139 + 8 + 4
    assert settled_early > points // 2 and saved > 0
