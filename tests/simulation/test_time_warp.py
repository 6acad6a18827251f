"""Tests for the time-warp engine path and the block-sampled traffic streams.

The contract under test: a run with ``time_warp=True`` is bit-identical to a
cycle-by-cycle run — every warped-over cycle is one in which ``step`` would
have been a complete no-op — and the pre-sampled arrival stream is invariant
to the block size and to mid-run offered-load changes.
"""

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet
from repro.routing import ROUTING_REGISTRY
from repro.simulation.engine import _NO_EVENT, SimulationStallError
from repro.simulation.simulator import Simulator
from repro.simulation.soa import SoAEngine
from repro.traffic.bernoulli import BernoulliTrafficGenerator
from repro.traffic.uniform import UniformTraffic

ALL_ROUTINGS = sorted(ROUTING_REGISTRY)


def _streams(seed: int):
    payload_seq, arrival_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(payload_seq), np.random.default_rng(arrival_seq)


# ---------------------------------------------------------------- equivalence
class TestWarpEqualsNoWarp:
    @pytest.mark.parametrize("routing", ALL_ROUTINGS)
    def test_steady_state_bit_identical(self, tiny_params, routing):
        results = []
        for time_warp in (True, False):
            sim = Simulator(
                tiny_params, routing, "UN", offered_load=0.1, seed=9, time_warp=time_warp
            )
            results.append(sim.run_steady_state(warmup_cycles=150, measure_cycles=300))
        assert results[0] == results[1]

    def test_transient_series_bit_identical_across_bin_jumps(self, tiny_params):
        """Warping over bin boundaries must not change the binned series."""
        series = []
        skipped = []
        for time_warp in (True, False):
            sim = Simulator.build_transient(
                tiny_params,
                "Base",
                "UN",
                "ADV+1",
                offered_load=0.04,
                switch_cycle=200,
                seed=3,
                time_warp=time_warp,
            )
            result = sim.run_transient(
                warmup_cycles=200, observe_before=100, observe_after=200, bin_size=25
            )
            series.append((result.cycles, result.mean_latency, result.misrouted_fraction))
            skipped.append(sim.engine.cycles_skipped)
        assert series[0] == series[1]
        # The low load must actually have exercised the warp path.
        assert skipped[0] > 0
        assert skipped[1] == 0

    def test_zero_load_run_is_fully_warped(self, tiny_params):
        sim = Simulator(tiny_params, "MIN", "UN", offered_load=0.0, seed=1)
        sim.run_cycles(5_000)
        assert sim.engine.cycle == 5_000
        assert sim.engine.cycles_skipped == 5_000

    def test_drain_is_warped_after_network_empties(self, tiny_params):
        sim = Simulator(tiny_params, "Base", "UN", offered_load=0.3, seed=4)
        sim.run_cycles(300)
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(20_000)
        assert sim.engine.total_buffered_packets() == 0
        assert sim.engine.cycles_skipped > 15_000
        assert sim.engine.delivered_packets == sim.traffic.generated_packets - (
            sim.network.total_source_queued()
        )

    def test_warp_lands_exactly_on_scheduled_link_arrival(self, tiny_params):
        """A lone packet on a slow link: the engine jumps to its arrival."""
        sim = Simulator(tiny_params, "MIN", "UN", offered_load=0.0, seed=1)
        dst = 0  # node 0 is attached to router 0: next hop is ejection
        packet = Packet(
            pid=0, src=2, dst=dst, size_phits=tiny_params.packet_size_phits,
            creation_cycle=0,
        )
        arrival_cycle = 400
        # Use an injection port: it has no upstream router, so the fabricated
        # arrival does not owe anyone a credit return.
        sim.engine.schedule_arrival(0, 0, arrival_cycle, 0, packet)
        sim.run_cycles(1_000)
        assert sim.engine.delivered_packets == 1
        assert packet.delivered_cycle >= arrival_cycle
        # Everything before the arrival (and after the delivery) warps.
        assert sim.engine.cycles_skipped > 900


# ------------------------------------------------------------------- watchdog
class TestWatchdogUnderWarp:
    def test_genuine_stall_is_detected_despite_far_future_event(self, tiny_params):
        """A far-future event must not let the warp overshoot the watchdog."""
        sim = Simulator(
            tiny_params, "MIN", "UN", offered_load=0.0, seed=1, stall_watchdog_cycles=50
        )
        packet = Packet(pid=0, src=2, dst=0, size_phits=2, creation_cycle=0)
        sim.engine.schedule_arrival(0, tiny_params.topology.p, 10**9, 0, packet)
        with pytest.raises(SimulationStallError):
            sim.run_cycles(2_000)
        # Detected at the watchdog deadline, not at the end of the run.
        assert sim.engine.cycle <= 100

    def test_wedged_network_still_raises(self, tiny_params, wedge_ejection_ports):
        sim = Simulator(
            tiny_params, "MIN", "UN", offered_load=0.2, seed=1, stall_watchdog_cycles=50
        )
        wedge_ejection_ports(sim)
        with pytest.raises(SimulationStallError):
            sim.run_cycles(2_000)

    def test_idle_network_never_trips_watchdog(self, tiny_params):
        sim = Simulator(
            tiny_params, "MIN", "UN", offered_load=0.0, seed=1, stall_watchdog_cycles=50
        )
        sim.run_cycles(5_000)
        assert sim.engine.delivered_packets == 0

    def test_disabled_watchdog_allows_unbounded_jumps(self, tiny_params):
        sim = Simulator(
            tiny_params, "MIN", "UN", offered_load=0.0, seed=1,
            stall_watchdog_cycles=None,
        )
        sim.run_cycles(100_000)
        assert sim.engine.cycle == 100_000
        assert sim.engine.cycles_skipped == 100_000


# ------------------------------------------------------------- router hint
@pytest.mark.soa_core
class TestTheCoreComputesTheRouterHint:
    """``Core.router_phase`` returns the router half of the warp horizon and
    ``SoAEngine._calendar_horizon`` asks the core for the same number: -1
    while any head is occupied, else the earliest key of the three calendars
    (``_NO_EVENT`` when they are all empty)."""

    @staticmethod
    def _calendars(engine):
        keys = [min(calendar) for calendar in engine._core.calendars().values() if calendar]
        return min(keys, default=_NO_EVENT)

    @pytest.mark.parametrize("routing", ["MIN", "Base", "PB"])
    def test_every_step_hands_back_the_python_rule(self, tiny_params, routing):
        sim = Simulator(tiny_params.with_backend("soa"), routing, "UN", offered_load=0.1, seed=9)
        engine, st = sim.engine, sim.engine._st
        kinds = set()
        for cycle in range(400):
            if cycle == 200:
                engine.traffic.set_offered_load(0.0)  # the fabric drains: idle at the end
            engine.step()
            horizon = self._calendars(engine)
            assert engine._calendar_horizon() == horizon
            assert engine._hint_router_event == (-1 if st.active else horizon)
            kinds.add(-1 if st.active else "idle" if horizon == _NO_EVENT else "calendar")
        assert kinds == {-1, "calendar", "idle"}


# ----------------------------------------------------------- routing horizons
class TestRoutingHorizons:
    def test_ectn_broadcast_cycles_are_stepped_not_skipped(self, tiny_params):
        sim = Simulator(tiny_params, "ECtN", "UN", offered_load=0.0, seed=1)
        sim.run_cycles(500)
        period = tiny_params.ectn_update_period
        boundaries = len(range(0, 500, period))
        assert sim.engine.cycles_skipped == 500 - boundaries

    def test_pb_quiet_network_warps_freely(self, tiny_params):
        sim = Simulator(tiny_params, "PB", "UN", offered_load=0.0, seed=1)
        sim.run_cycles(500)
        assert sim.engine.cycles_skipped == 500

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_pb_is_not_idle_while_a_packet_is_in_flight(self, tiny_params, backend):
        """The fabric's only state is a packet on a link: no flag update is
        queued and no group is saturated, so nothing but the engine's "the
        fabric is idle" answer keeps PB's broadcast hook running.  Warp on
        must leave the flags, the queue of flags in flight and the results
        of warp off."""
        arrival_cycle = 40
        outcomes = []
        for warp in (True, False):
            sim = Simulator(
                tiny_params.with_backend(backend), "PB", "UN", offered_load=0.0,
                seed=1, time_warp=warp,
            )
            routing = sim.routing
            assert not routing._pending and not routing._saturated_groups
            packet = Packet(
                pid=0, src=2, dst=0, size_phits=tiny_params.packet_size_phits,
                creation_cycle=0,
            )
            sim.engine.schedule_arrival(0, 0, arrival_cycle, 0, packet)
            # Stop before the scans queued since the arrival have all been
            # delivered, so a hook skipped on the way there shows in the queue.
            sim.run_cycles(arrival_cycle + routing.notification_delay // 2)
            outcomes.append(
                (
                    [list(flags) for flags in routing._flags],
                    sorted(routing._saturated_groups),
                    [(due, group, list(flags)) for due, group, flags in routing._pending],
                    sim.engine.cycle,
                    sim.engine.total_buffered_packets(),
                    packet.hops,
                )
            )
            if warp:
                assert sim.engine.cycles_skipped == 0
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2], "the run must end with flag updates in flight"

    @staticmethod
    def _with_counting_hook(params, backend):
        """A simulator whose routing is MIN plus an undeclared ``post_cycle``
        override that counts its calls."""
        from repro.routing.minimal import MinimalRouting

        class Counting(MinimalRouting):
            name = "counting"
            calls = 0

            def post_cycle(self, network, cycle):
                self.calls += 1

        sim = Simulator(
            params.with_backend(backend), "MIN", "UN", offered_load=0.2, seed=1
        )
        sim.network.routing = Counting(sim.topology, params, sim.rng)
        return sim

    def test_a_post_cycle_override_is_called_once_per_executed_cycle(self, tiny_params):
        """Overriding post_cycle is all a mechanism does to get the hook: on
        ``object`` it runs every executed cycle."""
        sim = self._with_counting_hook(tiny_params, "object")
        engine = type(sim.engine)(sim.network, sim.traffic)
        engine.run(300)
        assert sim.network.routing.calls == engine.cycle - engine.cycles_skipped == 300

    def test_soa_refuses_a_post_cycle_override_it_cannot_transcribe(self, tiny_params):
        """``soa`` has no transcription of a hook it does not know, so it
        refuses the mechanism rather than silently dropping the hook."""
        sim = self._with_counting_hook(tiny_params, "soa")
        with pytest.raises(ValueError, match="no transcription of the post_cycle hook"):
            SoAEngine(sim.network, sim.traffic)


# ---------------------------------------------------- block-sampled arrivals
class TestBlockSampledTraffic:
    def _collect(self, topology, block_cycles, cycles=600, load=0.3, seed=77):
        payload, arrival = _streams(seed)
        gen = BernoulliTrafficGenerator(
            topology=topology,
            pattern=UniformTraffic(topology),
            offered_load=load,
            packet_size_phits=4,
            rng=payload,
            arrival_rng=arrival,
            block_cycles=block_cycles,
        )
        out = []
        for cycle in range(cycles):
            for src, packet in gen.generate(cycle):
                out.append((cycle, src, packet.dst, packet.pid))
        return out

    def test_block_size_is_a_pure_performance_knob(self, tiny_topology):
        reference = self._collect(tiny_topology, block_cycles=128)
        assert reference  # sanity: the load actually generates packets
        for block_cycles in (1, 7, 64, 1000):
            assert self._collect(tiny_topology, block_cycles=block_cycles) == reference

    def test_next_arrival_cycle_matches_generate(self, tiny_topology):
        payload, arrival = _streams(5)
        gen = BernoulliTrafficGenerator(
            tiny_topology, UniformTraffic(tiny_topology), 0.05, 4, payload,
            arrival_rng=arrival,
        )
        nxt = gen.next_arrival_cycle(0)
        assert nxt is not None
        for cycle in range(nxt):
            assert gen.generate(cycle) == []
        assert gen.generate(nxt) != []

    def test_next_arrival_cycle_respects_limit(self, tiny_topology):
        payload, arrival = _streams(5)
        gen = BernoulliTrafficGenerator(
            tiny_topology, UniformTraffic(tiny_topology), 0.05, 4, payload,
            arrival_rng=arrival,
        )
        assert gen.next_arrival_cycle(0, limit=0) is None
        nxt = gen.next_arrival_cycle(0, limit=10_000)
        assert nxt is not None and nxt < 10_000
        assert gen.next_arrival_cycle(0, limit=nxt) is None
        assert gen.next_arrival_cycle(0, limit=nxt + 1) == nxt

    def test_zero_load_has_no_arrivals(self, tiny_topology):
        payload, arrival = _streams(5)
        gen = BernoulliTrafficGenerator(
            tiny_topology, UniformTraffic(tiny_topology), 0.0, 4, payload,
            arrival_rng=arrival,
        )
        assert gen.next_arrival_cycle(0) is None
        assert gen.generate(0) == []

    def test_offered_load_change_rethresholds_remaining_cycles(self, tiny_topology):
        """Raising the load mid-block must re-use the already-drawn uniforms."""
        seed = 11
        switch = 50

        def run(change_load):
            payload, arrival = _streams(seed)
            gen = BernoulliTrafficGenerator(
                tiny_topology, UniformTraffic(tiny_topology), 0.1, 4, payload,
                arrival_rng=arrival,
            )
            out = []
            for cycle in range(200):
                if cycle == switch and change_load is not None:
                    gen.set_offered_load(change_load)
                for src, packet in gen.generate(cycle):
                    out.append((cycle, src))
            return out

        unchanged = run(None)
        raised = run(0.9)
        lowered = run(0.0)
        # Identical history before the change...
        before = [e for e in unchanged if e[0] < switch]
        assert [e for e in raised if e[0] < switch] == before
        assert [e for e in lowered if e[0] < switch] == before
        # ...a superset of arrivals after raising the probability threshold...
        assert set(e for e in unchanged if e[0] >= switch) <= set(
            e for e in raised if e[0] >= switch
        )
        # ...and silence after dropping the load to zero.
        assert [e for e in lowered if e[0] >= switch] == []

    def test_engine_results_unchanged_by_block_size(self, tiny_params):
        """End-to-end: two simulators differing only in traffic block size."""
        results = []
        for block_cycles in (16, 512):
            sim = Simulator(tiny_params, "Base", "ADV+1", 0.2, seed=42)
            sim.traffic.block_cycles = block_cycles
            results.append(sim.run_steady_state(warmup_cycles=150, measure_cycles=300))
        assert results[0] == results[1]
