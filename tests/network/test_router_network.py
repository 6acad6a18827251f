"""Tests for the router model, the node injection logic and the network wiring."""

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.network.network import Network
from repro.network.packet import Packet
from repro.routing import create_routing
from repro.simulation.simulator import Simulator
from repro.topology.base import PortKind
from repro.topology.dragonfly import DragonflyTopology


@pytest.fixture
def tiny_network(tiny_params):
    topo = DragonflyTopology(tiny_params.topology)
    rng = np.random.default_rng(1)
    routing = create_routing("MIN", topo, tiny_params, rng)
    return Network(topo, tiny_params, routing)


class TestNetworkConstruction:
    def test_router_and_node_counts(self, tiny_network, tiny_params):
        assert len(tiny_network.routers) == tiny_params.topology.num_routers
        assert len(tiny_network.nodes) == tiny_params.topology.num_nodes

    def test_ports_match_topology_kinds(self, tiny_network):
        topo = tiny_network.topology
        for router in tiny_network.routers:
            assert len(router.input_ports) == topo.router_radix
            assert len(router.output_ports) == topo.router_radix
            for port in range(topo.router_radix):
                assert router.input_ports[port].kind == topo.port_kind(port)
                assert router.output_ports[port].kind == topo.port_kind(port)

    def test_credit_counts_match_downstream_buffer(self, tiny_network, tiny_params):
        topo = tiny_network.topology
        for router in tiny_network.routers:
            for port in range(topo.router_radix):
                out = router.output_ports[port]
                kind = topo.port_kind(port)
                if kind is PortKind.INJECTION:
                    continue
                expected = tiny_params.input_buffer_phits(kind.value)
                downstream_router, downstream_port = out.neighbor
                downstream_in = tiny_network.routers[downstream_router].input_ports[downstream_port]
                assert len(out.credits) == len(downstream_in.vcs)
                for vc_buffer, credit in zip(downstream_in.vcs, out.max_credits):
                    assert credit == vc_buffer.buffer.capacity_phits == expected

    def test_link_latencies_by_kind(self, tiny_network, tiny_params):
        topo = tiny_network.topology
        router = tiny_network.routers[0]
        for port in range(topo.router_radix):
            out = router.output_ports[port]
            kind = topo.port_kind(port)
            if kind is PortKind.LOCAL:
                assert out.link_latency == tiny_params.local_link_latency
            elif kind is PortKind.GLOBAL:
                assert out.link_latency == tiny_params.global_link_latency

    def test_group_routers_accessor(self, tiny_network):
        group1 = tiny_network.region_routers(1)
        assert all(r.group == 1 for r in group1)
        assert len(group1) == tiny_network.topology.config.a

    def test_occupancy_summary_empty_at_start(self, tiny_network):
        summary = tiny_network.occupancy_summary()
        assert summary == {"buffered_packets": 0, "source_queued": 0}


class TestSinglePacketTraversal:
    def _deliver_one(self, params, src, dst, routing="MIN"):
        """Inject one packet and run until delivery; return (packet, cycles)."""
        sim = Simulator(params, routing, "UN", offered_load=0.0, seed=3)
        packet = Packet(pid=0, src=src, dst=dst, size_phits=params.packet_size_phits, creation_cycle=0)
        sim.network.nodes[src].enqueue(packet)
        for _ in range(2000):
            sim.engine.step()
            if packet.delivered:
                return packet, sim.engine.cycle
        raise AssertionError("packet was not delivered")

    def test_same_router_delivery_latency(self, tiny_params):
        topo = DragonflyTopology(tiny_params.topology)
        src, dst = 0, 1
        assert topo.node_router(src) == topo.node_router(dst)
        packet, _ = self._deliver_one(tiny_params, src, dst)
        assert packet.hops == 0
        # router pipeline + ejection serialization (+1 cycle granularity slack)
        expected_min = tiny_params.router_latency + tiny_params.packet_size_phits
        latency = packet.delivered_cycle - packet.creation_cycle
        assert expected_min <= latency <= expected_min + 4

    def test_cross_group_delivery_hops_and_latency(self, tiny_params):
        topo = DragonflyTopology(tiny_params.topology)
        src = 0
        dst = topo.region_nodes(2)[-1]
        packet, _ = self._deliver_one(tiny_params, src, dst)
        assert 1 <= packet.hops <= 3
        assert packet.global_hops == 1
        assert not packet.misrouted
        # Lower bound: each hop pays router latency + serialization, plus the
        # link latencies of at least one global link.
        lower = (
            (packet.hops + 1) * tiny_params.router_latency
            + tiny_params.global_link_latency
            + tiny_params.packet_size_phits
        )
        assert packet.delivered_cycle - packet.creation_cycle >= lower

    def test_delivery_with_every_routing(self, tiny_params):
        topo = DragonflyTopology(tiny_params.topology)
        dst = topo.region_nodes(1)[0]
        for routing in ("MIN", "VAL", "PB", "OLM", "Base", "Hybrid", "ECtN"):
            packet, _ = self._deliver_one(tiny_params, 0, dst, routing=routing)
            assert packet.delivered, routing


class TestNodeInjection:
    def test_injection_rate_capped_at_one_phit_per_cycle(self, tiny_params):
        sim = Simulator(tiny_params, "MIN", "UN", offered_load=0.0, seed=5)
        node = sim.network.nodes[0]
        size = tiny_params.packet_size_phits
        for pid in range(4):
            node.enqueue(Packet(pid=pid, src=0, dst=6, size_phits=size, creation_cycle=0))
        injected_cycles = []
        for cycle in range(4 * size + 2):
            packet = node.try_inject(cycle)
            if packet is not None:
                injected_cycles.append(cycle)
        assert len(injected_cycles) == 4
        gaps = np.diff(injected_cycles)
        assert all(gap >= size for gap in gaps)

    def test_injection_blocked_when_buffers_full(self, tiny_params):
        sim = Simulator(tiny_params, "MIN", "UN", offered_load=0.0, seed=5)
        node = sim.network.nodes[0]
        port = sim.network.routers[0].input_ports[node.port]
        size = tiny_params.packet_size_phits
        capacity_packets = sum(vc.buffer.capacity_phits // size for vc in port.vcs)
        for pid in range(capacity_packets + 3):
            node.enqueue(Packet(pid=pid, src=0, dst=6, size_phits=size, creation_cycle=0))
        injected = 0
        cycle = 0
        # Inject as fast as allowed without ever running the router (so the
        # buffers never drain): the node must stop at the buffer capacity.
        for _ in range(capacity_packets + 10):
            if node.try_inject(cycle) is not None:
                injected += 1
            cycle += size
        assert injected == capacity_packets
        assert node.source_queue_length == 3
