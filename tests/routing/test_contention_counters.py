"""Tests for the contention counters and their maintenance protocol."""

import pytest

from repro.network.packet import Packet
from repro.routing.contention.counters import ContentionCounters, ContentionTracker
from repro.simulation.simulator import Simulator
from repro.topology.dragonfly import DragonflyTopology


class TestContentionCounters:
    def test_increment_decrement(self):
        counters = ContentionCounters(5)
        counters.increment(2)
        counters.increment(2)
        counters.increment(4)
        assert counters.value(2) == 2
        assert counters.value(4) == 1
        assert counters.total() == 3
        counters.decrement(2)
        assert counters.value(2) == 1
        assert counters.counts == [0, 0, 1, 0, 1]

    def test_underflow_detected(self):
        counters = ContentionCounters(2)
        with pytest.raises(RuntimeError):
            counters.decrement(0)

    def test_rejects_empty_router(self):
        with pytest.raises(ValueError):
            ContentionCounters(0)


class TestContentionTracker:
    def test_head_increments_minimal_port_counter(self, tiny_params, tiny_topology):
        sim = Simulator(tiny_params, "Base", "UN", offered_load=0.0, seed=1)
        tracker: ContentionTracker = sim.routing.tracker
        topo: DragonflyTopology = sim.topology
        router = sim.network.routers[0]
        dst = topo.group_nodes(2)[0]
        packet = Packet(pid=0, src=0, dst=dst, size_phits=2, creation_cycle=0)
        minimal_port = topo.minimal_output_port(0, dst)

        tracker.on_head(router, packet)
        assert tracker.value(0, minimal_port) == 1
        assert packet.contention_port == minimal_port
        # A second head event for the same packet must not double count.
        tracker.on_head(router, packet)
        assert tracker.value(0, minimal_port) == 1

        tracker.on_leave(router, packet)
        assert tracker.value(0, minimal_port) == 0
        assert packet.contention_port is None
        # Leaving twice is a no-op.
        tracker.on_leave(router, packet)
        assert tracker.value(0, minimal_port) == 0

    def test_counters_return_to_zero_after_drain(self, tiny_params):
        """Counter conservation: after all traffic drains, every counter is 0.

        This exercises the full increment-at-head / decrement-at-leave
        protocol of Section III-B across a real simulation.
        """
        sim = Simulator(tiny_params, "Base", "UN", offered_load=0.3, seed=4)
        sim.run_cycles(300)
        # Stop injecting and let the network drain completely.
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(1500)
        assert sim.engine.total_buffered_packets() == 0
        tracker = sim.routing.tracker
        for rid in range(sim.topology.num_routers):
            assert tracker.counters(rid).total() == 0

    def test_counters_track_adversarial_hotspot(self, tiny_params):
        """Under ADV+1 the hot output ports accumulate visible contention."""
        sim = Simulator(tiny_params, "Base", "ADV+1", offered_load=0.4, seed=4)
        sim.run_cycles(400)
        tracker = sim.routing.tracker
        topo = sim.topology
        hot_values = []
        for group in range(topo.num_groups):
            dst_group = (group + 1) % topo.num_groups
            gw_router, gw_port = topo.global_link_endpoint(group, dst_group)
            hot_values.append(tracker.value(gw_router, gw_port))
        # At 0.4 offered load the single minimal global link of each group is
        # heavily demanded; at least some gateways must show contention.
        assert max(hot_values) >= 1
