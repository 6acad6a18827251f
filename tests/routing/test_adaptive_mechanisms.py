"""Tests for the adaptive mechanisms: OLM, Base, Hybrid, ECtN triggers."""

import dataclasses

import pytest

from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet
from repro.routing import create_routing
from repro.routing.adaptive import AdaptiveInTransitRouting
from repro.routing.contention.base_contention import BaseContentionRouting
from repro.routing.contention.ectn import ECtNRouting
from repro.routing.contention.hybrid import HybridContentionRouting
from repro.routing.misrouting import (
    compute_global_candidates,
    compute_local_candidates,
    compute_ring_escape_candidates,
    compute_uplink_candidates,
)
from repro.routing.olm import OLMRouting
from repro.simulation.simulator import Simulator
from repro.topology.base import PortKind
from repro.topology.registry import create_topology, topology_preset


def make_sim(tiny_params, routing):
    return Simulator(tiny_params, routing, "UN", offered_load=0.0, seed=11)


def base_routing(topology, preset):
    """A topology of ``preset`` and a Base routing over it."""
    params = SimulationParameters.tiny(topology_preset(topology, preset))
    topo = create_topology(params.topology)
    return topo, create_routing("Base", topo, params, None)


def remote_packet(topology, src_router=0, dst_group=2, pid=0, size=2):
    dst = topology.region_nodes(dst_group)[0]
    src = topology.router_nodes(src_router)[0]
    return Packet(pid=pid, src=src, dst=dst, size_phits=size, creation_cycle=0)


@pytest.mark.parametrize(
    "routing, arrival",
    [
        ("MIN", False), ("OLM", False), ("Base", False), ("Hybrid", False),
        ("ECtN", True), ("VAL", True), ("UGAL", True), ("PB", True),
    ],
)
def test_only_a_mechanism_that_acts_on_arrivals_watches_them(tiny_params, routing, arrival):
    """The group policy keeps no target to clear when a packet arrives, so
    OLM / Base / Hybrid leave the arrival hook to the no-op base and both
    engines skip it; ECtN counts arrivals over global links and the Valiant
    family starts its second leg at the intermediate router."""
    assert make_sim(tiny_params, routing).routing.overridden_hooks()[0] is arrival


class TestDeclaredSignals:
    """The mechanisms differ only in the signals their trigger reads
    (Section IV-A); the trigger itself is the policy layer's."""

    @pytest.mark.parametrize(
        "routing, contention, congestion, combined",
        [
            ("OLM", None, "olm_congestion_threshold", None),
            ("Base", "base_contention_threshold", None, None),
            ("Hybrid", "hybrid_contention_threshold", "hybrid_congestion_threshold", None),
            ("ECtN", "ectn_local_contention_threshold", None, "ectn_combined_threshold"),
        ],
    )
    def test_each_mechanism_declares_its_signals(
        self, tiny_params, routing, contention, congestion, combined
    ):
        # Pairwise distinct values, so a threshold read off the wrong
        # parameter shows.
        params = dataclasses.replace(
            tiny_params,
            olm_congestion_threshold=0.41,
            hybrid_congestion_threshold=0.42,
            base_contention_threshold=11,
            hybrid_contention_threshold=12,
            ectn_local_contention_threshold=13,
            ectn_combined_threshold=14,
        )
        declared = make_sim(params, routing).routing
        assert (
            declared.contention_threshold,
            declared.congestion_threshold,
            declared.combined_threshold,
        ) == tuple(
            None if name is None else getattr(params, name)
            for name in (contention, congestion, combined)
        )

    @pytest.mark.parametrize(
        "cls", [OLMRouting, BaseContentionRouting, HybridContentionRouting, ECtNRouting]
    )
    def test_no_mechanism_defines_a_trigger_of_its_own(self, cls):
        for name in ("choose_global_misroute", "choose_local_misroute", "trigger_observation"):
            assert getattr(cls, name) is getattr(AdaptiveInTransitRouting, name)

    def test_a_subclass_declaring_no_signal_observes_nothing_and_cannot_misroute(
        self, tiny_params
    ):
        sim = make_sim(tiny_params, "Base")
        undeclared = type("Undeclared", (AdaptiveInTransitRouting,), {"name": "Undeclared"})
        routing = undeclared(sim.topology, tiny_params, sim.routing.rng)
        router = sim.network.routers[0]
        packet = remote_packet(sim.topology)
        assert routing.trigger_observation(router, packet) is None
        minimal_port = sim.topology.minimal_output_port(0, packet.dst)
        with pytest.raises(NotImplementedError, match="declares no trigger signal"):
            routing.choose_local_misroute(router, 0, packet, minimal_port, (), 0)


class TestMisrouteCandidates:
    @pytest.mark.parametrize(
        "topology, preset",
        [("dragonfly", "tiny"), ("dragonfly", "small"), ("flattened_butterfly", "tiny")],
    )
    def test_the_filtered_views_equal_the_enumeration(self, topology, preset):
        """``global_candidates`` / ``local_candidates`` filter one shared
        tuple per router: for every routing key they answer exactly, and in
        order, what the reference enumeration computes."""
        topo, routing = base_routing(topology, preset)
        assert routing._port_candidates is None
        for rid in range(topo.num_routers):
            for dst_group in range(topo.num_regions):
                for minimal in range(topo.router_radix):
                    for proxy in (False, True):
                        assert routing.global_candidates(
                            rid, dst_group, minimal, proxy
                        ) == compute_global_candidates(topo, rid, dst_group, minimal, proxy)
        for minimal in range(topo.router_radix):
            assert routing.local_candidates(minimal) == compute_local_candidates(topo, minimal)

    @pytest.mark.parametrize(
        "topology, preset, enumerate_port",
        [
            ("torus", "tiny", compute_ring_escape_candidates),
            ("torus", "small", compute_ring_escape_candidates),
            ("fat_tree", "tiny", compute_uplink_candidates),
            ("fat_tree", "small", compute_uplink_candidates),
        ],
    )
    def test_the_port_table_equals_the_enumeration(self, topology, preset, enumerate_port):
        """The port-table policy's candidates of every minimal port are the
        reference enumeration of the topology's schedule: the ring escape on
        the torus, the sibling uplinks on the fat tree."""
        topo, routing = base_routing(topology, preset)
        assert len(routing._port_candidates) == topo.router_radix
        for port in range(topo.router_radix):
            assert routing._port_candidates[port] == enumerate_port(topo, port)
        assert any(routing._port_candidates)

    def test_global_candidates_exclude_minimal_current_and_destination(self, small_params):
        sim = make_sim(small_params, "OLM")
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo, 0, 3)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        candidates = compute_global_candidates(
            topo, router.router_id, topo.node_region(packet.dst), minimal_port, False
        )
        assert candidates, "router with h>=2 should offer at least one global candidate"
        for cand in candidates:
            assert cand.kind is PortKind.GLOBAL
            assert cand.port != minimal_port
            assert cand.target_group not in (0, 3)

    def test_local_proxy_candidates_added_at_injection(self, small_params):
        sim = make_sim(small_params, "OLM")
        topo = sim.topology
        packet = remote_packet(topo, 0, 3)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        dst_group = topo.node_region(packet.dst)
        with_proxy = compute_global_candidates(topo, 0, dst_group, minimal_port, True)
        without = compute_global_candidates(topo, 0, dst_group, minimal_port, False)
        assert len(with_proxy) > len(without)
        assert any(c.kind is PortKind.LOCAL for c in with_proxy)

    def test_local_candidates_only_for_local_minimal_port(self, small_params):
        topo = make_sim(small_params, "OLM").topology
        global_port = next(iter(topo.global_ports))
        assert compute_local_candidates(topo, global_port) == []
        local_port = next(iter(topo.local_ports))
        candidates = compute_local_candidates(topo, local_port)
        assert all(c.kind is PortKind.LOCAL and c.port != local_port for c in candidates)


class TestOLMTrigger:
    def test_no_misroute_when_network_empty(self, tiny_params):
        sim = make_sim(tiny_params, "OLM")
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        decision = sim.routing.select_output(router, 0, 0, packet, 0)
        assert decision.output_port == topo.minimal_output_port(0, packet.dst)
        assert not decision.nonminimal_global

    def test_misroutes_when_minimal_output_congested(self, tiny_params):
        sim = make_sim(tiny_params, "OLM")
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        # Artificially congest the minimal output far beyond the OLM threshold.
        router.output_ports[minimal_port].buffer.commit(
            router.output_ports[minimal_port].buffer.capacity_phits
        )
        router.output_ports[minimal_port].consume_credits(0, 4)
        decision = sim.routing.select_output(router, 0, 0, packet, 0)
        assert decision.output_port != minimal_port
        assert decision.nonminimal_global or topo.port_kind(decision.output_port) is PortKind.LOCAL

    def test_misroute_not_considered_after_global_hop(self, tiny_params):
        sim = make_sim(tiny_params, "OLM")
        topo = sim.topology
        packet = remote_packet(topo, dst_group=2)
        packet.global_hops = 1
        packet.globally_misrouted = True
        dst_router = topo.node_router(packet.dst)
        # At a router of the destination group the packet must go minimally.
        router = sim.network.routers[topo.region_routers(2)[0]]
        if router.router_id == dst_router:
            router = sim.network.routers[topo.region_routers(2)[1]]
        decision = sim.routing.select_output(router, 4, 0, packet, 0)
        assert decision.output_port == topo.minimal_output_port(router.router_id, packet.dst)


class TestBaseTrigger:
    def _congest_counters(self, routing, router, port, amount):
        for _ in range(amount):
            routing.tracker.counters(router.router_id).increment(port)

    def test_threshold_exceeded_triggers_misroute(self, tiny_params):
        sim = make_sim(tiny_params, "Base")
        routing: BaseContentionRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        threshold = routing.contention_threshold
        self._congest_counters(routing, router, minimal_port, threshold + 1)
        decision = routing.select_output(router, 0, 0, packet, 0)
        assert decision.output_port != minimal_port

    def test_threshold_not_exceeded_stays_minimal(self, tiny_params):
        sim = make_sim(tiny_params, "Base")
        routing: BaseContentionRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        self._congest_counters(routing, router, minimal_port, routing.contention_threshold)
        decision = routing.select_output(router, 0, 0, packet, 0)
        assert decision.output_port == minimal_port

    def test_candidates_above_threshold_are_excluded(self, tiny_params):
        sim = make_sim(tiny_params, "Base")
        routing: BaseContentionRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        threshold = routing.contention_threshold
        # Saturate every port's counter: no candidate is usable, stay minimal.
        for port in range(topo.router_radix):
            self._congest_counters(routing, router, port, threshold + 2)
        decision = routing.select_output(router, 0, 0, packet, 0)
        assert decision.output_port == minimal_port

    def test_proxy_grant_sets_must_misroute_flag(self, tiny_params):
        sim = make_sim(tiny_params, "Base")
        routing: BaseContentionRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        from repro.routing.base import RoutingDecision

        decision = RoutingDecision(output_port=minimal_port, vc=0, set_must_misroute_global=True)
        routing.on_grant(router, 0, 0, packet, decision, cycle=0)
        assert packet.must_misroute_global

    def test_forced_global_decision_leaves_group(self, tiny_params):
        sim = make_sim(tiny_params, "Base")
        routing: BaseContentionRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        packet.must_misroute_global = True
        decision = routing.select_output(router, 2, 0, packet, 0)
        assert topo.port_kind(decision.output_port) is PortKind.GLOBAL


class TestHybridTrigger:
    def test_credit_trigger_fires_without_contention(self, tiny_params):
        sim = make_sim(tiny_params, "Hybrid")
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        out = router.output_ports[minimal_port]
        out.buffer.commit(out.buffer.capacity_phits)
        out.consume_credits(0, 4)
        decision = sim.routing.select_output(router, 0, 0, packet, 0)
        assert decision.output_port != minimal_port


class TestECtN:
    def test_partial_counters_follow_injection_traffic(self, tiny_params):
        sim = make_sim(tiny_params, "ECtN")
        routing: ECtNRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo, dst_group=2)
        offset = routing.link_offset_for_destination(0, 2)

        routing.on_packet_head(router, 0, 0, packet, cycle=0)
        assert routing.partial[0][offset] == 1
        assert packet.ectn_offset == offset
        routing.on_packet_leave_input(router, 0, 0, packet, cycle=1)
        assert routing.partial[0][offset] == 0
        assert packet.ectn_offset is None

    def test_partial_counters_ignore_local_destinations(self, tiny_params):
        sim = make_sim(tiny_params, "ECtN")
        routing: ECtNRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        local_dst = topo.router_nodes(1)[0]  # same group
        packet = Packet(pid=0, src=0, dst=local_dst, size_phits=2, creation_cycle=0)
        routing.on_packet_head(router, 0, 0, packet, cycle=0)
        assert sum(routing.partial[0]) == 0

    def test_combined_counters_updated_on_broadcast_period(self, tiny_params):
        sim = make_sim(tiny_params, "ECtN")
        routing: ECtNRouting = sim.routing
        topo = sim.topology
        offset = routing.link_offset_for_destination(0, 2)
        routing.partial[0][offset] = 3
        routing.partial[1][offset] = 2
        # Not a broadcast cycle: combined stays stale.
        routing.post_cycle(sim.network, cycle=routing.params.ectn_update_period + 1)
        assert routing.combined[0][offset] == 0
        # Broadcast cycle: combined becomes the sum of partials in the group.
        routing.post_cycle(sim.network, cycle=2 * routing.params.ectn_update_period)
        assert routing.combined[0][offset] == 5

    def test_injection_misroute_uses_combined_counters(self, tiny_params):
        sim = make_sim(tiny_params, "ECtN")
        routing: ECtNRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo, dst_group=2)
        offset = routing.link_offset_for_destination(0, 2)
        routing.combined[0][offset] = routing.combined_threshold + 1
        decision = routing.select_output(router, 0, 0, packet, 0)
        minimal_port = topo.minimal_output_port(0, packet.dst)
        # With only one global port per router in the tiny topology a
        # misroute may be impossible; with more it must avoid the minimal port.
        if topo.config.h > 1:
            assert decision.output_port != minimal_port

    def test_partial_underflow_detected(self, tiny_params):
        sim = make_sim(tiny_params, "ECtN")
        routing: ECtNRouting = sim.routing
        topo = sim.topology
        router = sim.network.routers[0]
        packet = remote_packet(topo, dst_group=2)
        packet.ectn_offset = routing.link_offset_for_destination(0, 2)
        with pytest.raises(RuntimeError):
            routing.on_packet_leave_input(router, 0, 0, packet, cycle=0)


class TestRegistry:
    def test_create_routing_known_names(self, tiny_params, tiny_topology, rng):
        from repro.routing import available_routings

        for name in available_routings():
            algo = create_routing(name, tiny_topology, tiny_params, rng)
            assert algo.name == name

    def test_create_routing_case_insensitive(self, tiny_params, tiny_topology, rng):
        assert create_routing("ectn", tiny_topology, tiny_params, rng).name == "ECtN"

    def test_create_routing_unknown_name(self, tiny_params, tiny_topology, rng):
        with pytest.raises(ValueError):
            create_routing("UGAL-G", tiny_topology, tiny_params, rng)


class TestRingEscapePolicy:
    """The torus in-transit policy: contention-triggered nonminimal ring
    direction choice, committed per traversal (see repro.routing.adaptive)."""

    @staticmethod
    def _torus_sim(routing="Base"):
        from repro.config.parameters import SimulationParameters, TorusConfig

        params = SimulationParameters.tiny(TorusConfig.tiny())
        return Simulator(params, routing, "UN", offered_load=0.0, seed=11)

    @staticmethod
    def _packet(topo, src_router, dst_router, pid=0):
        return Packet(
            pid=pid,
            src=topo.router_nodes(src_router)[0],
            dst=topo.router_nodes(dst_router)[0],
            size_phits=2,
            creation_cycle=0,
        )

    def test_escape_candidates_are_the_opposite_direction_port(self):
        from repro.routing.misrouting import compute_ring_escape_candidates

        sim = self._torus_sim()
        topo = sim.topology
        for port in topo.ring_ports:
            candidates = compute_ring_escape_candidates(topo, port)
            assert len(candidates) == 1
            assert candidates[0].kind is PortKind.LOCAL
            assert candidates[0].port == topo.opposite_ring_port(port)
            assert topo.opposite_ring_port(candidates[0].port) == port
        for port in topo.injection_ports:
            assert compute_ring_escape_candidates(topo, port) == []

    def test_no_escape_when_counters_cold(self):
        sim = self._torus_sim()
        topo = sim.topology
        router = sim.network.routers[0]
        packet = self._packet(topo, 0, topo.router_id((2, 0)))
        minimal_port = topo.minimal_output_port(0, packet.dst)
        decision = sim.routing.select_output(router, 0, 0, packet, cycle=0)
        assert decision.output_port == minimal_port
        assert not decision.nonminimal_local

    def test_escape_triggered_when_minimal_port_contended(self):
        sim = self._torus_sim()
        topo = sim.topology
        routing: BaseContentionRouting = sim.routing
        router = sim.network.routers[0]
        packet = self._packet(topo, 0, topo.router_id((2, 0)))
        minimal_port = topo.minimal_output_port(0, packet.dst)
        counts = routing.tracker.counters(0).counts
        counts[minimal_port] = routing.contention_threshold + 1
        decision = routing.select_output(router, 0, 0, packet, cycle=0)
        assert decision.output_port == topo.opposite_ring_port(minimal_port)
        assert decision.nonminimal_local
        # The escape stays on the leg-0 dateline classes (VC 0/1).
        assert decision.vc in (0, 1)

    def test_escape_suppressed_when_opposite_also_contended(self):
        sim = self._torus_sim()
        topo = sim.topology
        routing: BaseContentionRouting = sim.routing
        router = sim.network.routers[0]
        packet = self._packet(topo, 0, topo.router_id((2, 0)))
        minimal_port = topo.minimal_output_port(0, packet.dst)
        counts = routing.tracker.counters(0).counts
        counts[minimal_port] = routing.contention_threshold + 1
        counts[topo.opposite_ring_port(minimal_port)] = routing.contention_threshold
        decision = routing.select_output(router, 0, 0, packet, cycle=0)
        assert decision.output_port == minimal_port
        assert not decision.nonminimal_local

    def test_committed_direction_held_past_the_tie(self):
        """A traversal committed to the long way keeps its direction even
        where the shortest direction flips (re-evaluating could cross the
        dateline twice)."""
        sim = self._torus_sim()
        topo = sim.topology
        router = sim.network.routers[0]
        packet = self._packet(topo, 0, topo.router_id((2, 0)))
        minimal_port = topo.minimal_output_port(0, packet.dst)  # dim 0, plus (tie)
        dim, direction = topo.port_dimension(minimal_port)
        assert (dim, direction) == (0, +1)
        packet.ring_dim = 0
        packet.ring_dir = -1  # committed the other way around
        decision = sim.routing.select_output(router, 0, 0, packet, cycle=0)
        assert decision.output_port == topo.ring_port(0, -1)
        # Continuation hops carry no misroute flag: the escape was
        # accounted once, at the diverting hop.
        assert not decision.nonminimal_local

    def test_no_escape_mid_traversal_even_under_contention(self):
        sim = self._torus_sim()
        topo = sim.topology
        routing: BaseContentionRouting = sim.routing
        router = sim.network.routers[0]
        packet = self._packet(topo, 0, topo.router_id((2, 0)))
        minimal_port = topo.minimal_output_port(0, packet.dst)
        counts = routing.tracker.counters(0).counts
        counts[minimal_port] = routing.contention_threshold + 1
        packet.ring_dim, packet.ring_dir = topo.port_dimension(minimal_port)
        decision = routing.select_output(router, 0, 0, packet, cycle=0)
        assert decision.output_port == minimal_port
        assert not decision.nonminimal_local

    def test_commit_ring_hop_records_direction(self):
        sim = self._torus_sim()
        topo = sim.topology
        packet = self._packet(topo, 0, topo.router_id((2, 0)))
        assert packet.ring_dir == 0
        topo.commit_ring_hop(packet, 0, topo.ring_port(0, -1))
        assert (packet.ring_dim, packet.ring_dir) == (0, -1)
        # The minus-direction hop from coordinate 0 is the wrap (dateline).
        assert packet.ring_crossed


class TestButterflyGroupPolicy:
    """The MM+L policy on the flattened butterfly: rows are the groups and
    column links the global links, so a global misroute's column link enters
    its intermediate row."""

    @staticmethod
    def _fb_sim(routing="Base"):
        from repro.config.parameters import FlattenedButterflyConfig, SimulationParameters

        params = SimulationParameters.tiny(FlattenedButterflyConfig.tiny())
        return Simulator(params, routing, "UN", offered_load=0.0, seed=11)

    def test_global_candidates_avoid_source_and_destination_rows(self):
        sim = self._fb_sim()
        topo = sim.topology
        router = sim.network.routers[0]
        dst = topo.region_nodes(1)[0]
        packet = Packet(pid=0, src=0, dst=dst, size_phits=2, creation_cycle=0)
        minimal_port = topo.minimal_output_port(0, dst)
        candidates = compute_global_candidates(
            topo, router.router_id, topo.node_region(packet.dst), minimal_port, False
        )
        assert candidates, "a 3-row butterfly always has a third row to detour over"
        for cand in candidates:
            assert cand.kind is PortKind.GLOBAL
            assert cand.target_group not in (0, 1)

    def test_contention_escape_over_a_third_row(self):
        """Hot column counter at injection: Base diverts through another
        row's column link, which enters the intermediate row."""
        sim = self._fb_sim()
        topo = sim.topology
        routing: BaseContentionRouting = sim.routing
        router = sim.network.routers[0]
        # Destination straight down the column: the minimal port is the
        # column (GLOBAL) link to row 1.
        dst_router = topo.router_id(0, 1)
        dst = topo.router_nodes(dst_router)[0]
        packet = Packet(pid=0, src=0, dst=dst, size_phits=2, creation_cycle=0)
        minimal_port = topo.minimal_output_port(0, dst)
        assert topo.port_kinds[minimal_port] is PortKind.GLOBAL
        counts = routing.tracker.counters(0).counts
        counts[minimal_port] = routing.contention_threshold + 1
        # Heat the row ports too, so the MM+L local-proxy candidates drop
        # out of the preferred set and the direct column escape is the
        # only admissible choice.
        for port in topo.row_ports:
            counts[port] = routing.contention_threshold
        decision = routing.select_output(router, 0, 0, packet, cycle=0)
        assert decision.nonminimal_global
        assert topo.port_target_region(0, decision.output_port) == 2
