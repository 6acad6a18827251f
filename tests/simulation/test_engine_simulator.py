"""Tests for the cycle engine and the simulator facade."""

import pytest

from repro.config.parameters import SimulationParameters
from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel
from repro.topology.registry import topology_preset
from repro.traffic import TransientTraffic


class TestDeterminism:
    def test_same_seed_same_results(self, tiny_params):
        results = []
        for _ in range(2):
            sim = Simulator(tiny_params, "Base", "ADV+1", offered_load=0.2, seed=42)
            results.append(sim.run_steady_state(warmup_cycles=150, measure_cycles=300))
        first, second = results
        assert first.mean_latency == second.mean_latency
        assert first.accepted_load == second.accepted_load
        assert first.delivered_packets == second.delivered_packets

    def test_different_seeds_differ(self, tiny_params):
        a = Simulator(tiny_params, "Base", "UN", offered_load=0.3, seed=1)
        b = Simulator(tiny_params, "Base", "UN", offered_load=0.3, seed=2)
        ra = a.run_steady_state(warmup_cycles=150, measure_cycles=300)
        rb = b.run_steady_state(warmup_cycles=150, measure_cycles=300)
        assert ra.mean_latency != rb.mean_latency


class TestConservation:
    def test_packets_conserved(self, tiny_params):
        """generated == delivered + buffered + source-queued at any time."""
        sim = Simulator(tiny_params, "OLM", "UN", offered_load=0.4, seed=3)
        sim.run_cycles(400)
        generated = sim.traffic.generated_packets
        delivered = sim.engine.delivered_packets
        in_network = sim.engine.total_buffered_packets()
        queued = sim.network.total_source_queued()
        assert generated == delivered + in_network + queued

    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_packets_conserved_every_cycle(self, every_topology, backend, faulty):
        """generated == delivered + dropped + buffered + source-queued after
        every single cycle, wherever the backend keeps a packet in between
        (``soa``: input buffers, the arrival calendar, ejection releases)."""
        params = SimulationParameters.tiny(topology_preset(every_topology, "tiny"))
        sim = Simulator(
            params.with_backend(backend),
            "UGAL",
            "ADV+1",
            offered_load=0.4,
            seed=3,
            fault_model=FaultModel(link_failure_percent=10.0) if faulty else None,
        )
        engine = sim.engine
        for _ in range(300):
            sim.run_cycles(1)
            assert sim.traffic.generated_packets == (
                engine.delivered_packets
                + engine.dropped_packets
                + engine.total_buffered_packets()
                + sim.network.total_source_queued()
            ), sim.cycle
        assert engine.delivered_packets > 0

    def test_network_drains_when_injection_stops(self, tiny_params):
        sim = Simulator(tiny_params, "Hybrid", "ADV+1", offered_load=0.3, seed=3)
        sim.run_cycles(300)
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(2000)
        assert sim.engine.total_buffered_packets() == 0
        assert sim.engine.delivered_packets == sim.traffic.generated_packets - sim.network.total_source_queued()


class TestSteadyStateProtocol:
    def test_result_fields_populated(self, tiny_params):
        sim = Simulator(tiny_params, "MIN", "UN", offered_load=0.2, seed=1)
        result = sim.run_steady_state(warmup_cycles=100, measure_cycles=300)
        assert result.routing == "MIN"
        assert result.pattern == "UN"
        assert result.offered_load == 0.2
        assert result.delivered_packets > 0
        assert result.mean_latency > 0
        assert 0 <= result.global_misroute_fraction <= 1
        assert result.accepted_load == pytest.approx(0.2, abs=0.05)
        assert result.as_dict()["mean_latency"] == result.mean_latency

    def test_accepted_load_saturates_under_adversarial_minimal(self, tiny_params):
        """MIN cannot exceed 1/(a*p) accepted load under ADV+1 (Section IV-A)."""
        sim = Simulator(tiny_params, "MIN", "ADV+1", offered_load=0.5, seed=1)
        result = sim.run_steady_state(warmup_cycles=200, measure_cycles=400)
        topo_cfg = tiny_params.topology
        saturation = 1.0 / (topo_cfg.a * topo_cfg.p)
        assert result.accepted_load <= saturation * 1.3
        assert result.accepted_load >= saturation * 0.5


class TestTransientProtocol:
    def test_requires_transient_pattern(self, tiny_params):
        sim = Simulator(tiny_params, "Base", "UN", offered_load=0.2, seed=1)
        with pytest.raises(TypeError):
            sim.run_transient(warmup_cycles=100, observe_before=50, observe_after=100)

    def test_switch_cycle_must_match_warmup(self, tiny_params):
        sim = Simulator.build_transient(
            tiny_params, "Base", "UN", "ADV+1", offered_load=0.2, switch_cycle=100, seed=1
        )
        with pytest.raises(ValueError):
            sim.run_transient(warmup_cycles=50, observe_before=20, observe_after=50)

    def test_transient_patterns_share_the_simulator_topology(self, tiny_params):
        sim = Simulator.build_transient(
            tiny_params, "Base", "UN", "ADV+1", offered_load=0.2, switch_cycle=100, seed=1
        )
        for pattern in (sim.pattern, sim.pattern.before, sim.pattern.after):
            assert pattern.topology is sim.topology

    def test_transient_series_covers_observation_window(self, tiny_params):
        sim = Simulator.build_transient(
            tiny_params, "Base", "UN", "ADV+1", offered_load=0.2, switch_cycle=150, seed=1
        )
        result = sim.run_transient(
            warmup_cycles=150, observe_before=50, observe_after=150, bin_size=25
        )
        assert result.routing == "Base"
        assert min(result.cycles) >= -50
        assert max(result.cycles) < 150
        assert len(result.cycles) == len(result.mean_latency) == len(result.misrouted_fraction)
        assert result.as_rows()[0]["routing"] == "Base"

    def test_misrouting_rises_after_adversarial_switch(self, tiny_params):
        sim = Simulator.build_transient(
            tiny_params, "Base", "UN", "ADV+1", offered_load=0.4, switch_cycle=200, seed=1
        )
        result = sim.run_transient(
            warmup_cycles=200, observe_before=100, observe_after=200, bin_size=50
        )
        before = [m for c, m in zip(result.cycles, result.misrouted_fraction) if c < 0]
        after = [m for c, m in zip(result.cycles, result.misrouted_fraction) if c >= 50]
        assert before and after
        assert max(after) > max(before)


class TestWatchdog:
    def test_stall_detection_raises(self, tiny_params, wedge_ejection_ports):
        sim = Simulator(tiny_params, "MIN", "UN", offered_load=0.2, seed=1,
                        stall_watchdog_cycles=50)
        # Artificially wedge the network: block every ejection port forever.
        wedge_ejection_ports(sim)
        with pytest.raises(SimulationStallError):
            sim.run_cycles(2000)

    def test_idle_network_does_not_trip_watchdog(self, tiny_params):
        sim = Simulator(tiny_params, "MIN", "UN", offered_load=0.0, seed=1,
                        stall_watchdog_cycles=50)
        sim.run_cycles(500)  # no traffic, no stall error
        assert sim.engine.delivered_packets == 0
