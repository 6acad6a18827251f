"""Tests for PiggyBacking (PB) source-adaptive routing."""

import pytest

from repro.network.packet import Packet, RoutingPhase
from repro.routing.piggyback import PiggybackRouting
from repro.simulation.simulator import Simulator


@pytest.fixture
def sim(tiny_params):
    return Simulator(tiny_params, "PB", "UN", offered_load=0.0, seed=9)


def remote_packet(topology, dst_group=2):
    dst = topology.region_nodes(dst_group)[0]
    return Packet(pid=0, src=0, dst=dst, size_phits=2, creation_cycle=0)


class TestSaturationFlags:
    def test_flags_start_clear(self, sim):
        routing: PiggybackRouting = sim.routing
        for group in range(sim.topology.num_regions):
            assert not any(routing.saturation_flags(group))

    def test_flag_set_after_notification_delay(self, sim):
        routing: PiggybackRouting = sim.routing
        topo = sim.topology
        # Saturate the global output of the gateway router of group 0.
        gw_router, gw_port = topo.global_link_endpoint(0, 1)
        out = sim.network.routers[gw_router].output_ports[gw_port]
        out.consume_credits(0, out.max_credits[0])
        offset = routing.global_link_offset(gw_router, gw_port)

        routing.post_cycle(sim.network, cycle=0)
        # The ECN notification needs one local-link latency to spread.
        for cycle in range(1, routing.notification_delay + 1):
            routing.post_cycle(sim.network, cycle=cycle)
        assert routing.is_saturated(0, offset)

    def test_flag_clears_when_occupancy_drops(self, sim):
        routing: PiggybackRouting = sim.routing
        topo = sim.topology
        gw_router, gw_port = topo.global_link_endpoint(0, 1)
        out = sim.network.routers[gw_router].output_ports[gw_port]
        out.consume_credits(0, out.max_credits[0])
        offset = routing.global_link_offset(gw_router, gw_port)
        for cycle in range(routing.notification_delay + 1):
            routing.post_cycle(sim.network, cycle=cycle)
        assert routing.is_saturated(0, offset)
        # Return the credits (through the credit-return protocol, so the
        # port's occupancy aggregate stays consistent) and keep broadcasting:
        # the flag must clear.
        restore_cycle = routing.notification_delay + 1
        out.schedule_credit_return(restore_cycle, 0, out.max_credits[0] - out.credits[0])
        out.apply_credit_returns(restore_cycle)
        for cycle in range(routing.notification_delay + 1, 3 * routing.notification_delay + 2):
            routing.post_cycle(sim.network, cycle=cycle)
        assert not routing.is_saturated(0, offset)


class TestSourceDecision:
    def test_minimal_chosen_when_uncongested(self, sim):
        packet = remote_packet(sim.topology)
        sim.routing.on_inject(sim.network.routers[0], packet, cycle=0)
        assert packet.phase is RoutingPhase.MINIMAL
        assert packet.valiant_router is None

    def test_valiant_chosen_when_minimal_global_link_saturated(self, sim):
        routing: PiggybackRouting = sim.routing
        topo = sim.topology
        packet = remote_packet(topo, dst_group=2)
        gw_router, gw_port = topo.global_link_endpoint(0, 2)
        offset = routing.global_link_offset(gw_router, gw_port)
        routing._flags[0][offset] = True
        routing.on_inject(sim.network.routers[0], packet, cycle=0)
        assert packet.phase is RoutingPhase.TO_INTERMEDIATE
        assert packet.valiant_router is not None
        assert topo.router_region(packet.valiant_router) != 0

    def test_intra_group_traffic_never_diverted(self, sim):
        topo = sim.topology
        dst = topo.router_nodes(1)[0]
        packet = Packet(pid=0, src=0, dst=dst, size_phits=2, creation_cycle=0)
        sim.routing.on_inject(sim.network.routers[0], packet, cycle=0)
        assert packet.phase is RoutingPhase.MINIMAL

    def test_ugal_comparison_prefers_valiant_when_minimal_queue_long(self, sim):
        routing: PiggybackRouting = sim.routing
        topo = sim.topology
        packet = remote_packet(topo, dst_group=2)
        router = sim.network.routers[0]
        minimal_port = topo.minimal_output_port(0, packet.dst)
        out = router.output_ports[minimal_port]
        # Build a long minimal queue estimate via consumed credits.
        out.consume_credits(0, out.max_credits[0])
        out.consume_credits(1, out.max_credits[1] // 2)
        decisions = set()
        for _ in range(10):
            p = remote_packet(topo, dst_group=2)
            routing.on_inject(router, p, cycle=0)
            decisions.add(p.phase)
        assert RoutingPhase.TO_INTERMEDIATE in decisions

    def test_source_routing_is_oblivious_in_transit(self, sim):
        """Once PB picks Valiant at the source, in-transit hops never change it."""
        topo = sim.topology
        packet = remote_packet(topo, dst_group=2)
        packet.valiant_router = topo.region_routers(3)[0]
        packet.phase = RoutingPhase.TO_INTERMEDIATE
        rid = 0
        hops = 0
        while rid != packet.valiant_router and hops < 4:
            router = sim.network.routers[rid]
            decision = sim.routing.select_output(router, 0, 0, packet, 0)
            rid = topo.neighbor(rid, decision.output_port)[0]
            packet.record_hop(
                is_global=topo.port_kind(decision.output_port).value == "global"
            )
            hops += 1
        assert rid == packet.valiant_router
