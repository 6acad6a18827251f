"""Tests for the packet model."""

from repro.network.packet import Packet, RoutingPhase


def test_delivered_property():
    p = Packet(pid=0, src=0, dst=5, size_phits=8, creation_cycle=10)
    assert not p.delivered
    p.delivered_cycle = 150
    assert p.delivered


def test_record_hop_updates_counters():
    p = Packet(pid=0, src=0, dst=5, size_phits=8, creation_cycle=0)
    p.record_hop(is_global=False)
    assert (p.local_hops, p.global_hops, p.hops) == (1, 0, 1)
    assert p.local_hops_in_group == 1
    p.record_hop(is_global=True)
    assert (p.local_hops, p.global_hops, p.hops) == (1, 1, 2)
    # Entering a new group resets the per-group local hop counter.
    assert p.local_hops_in_group == 0
    p.record_hop(is_global=False)
    assert p.local_hops_in_group == 1


def test_misrouted_flag_combines_global_and_local():
    p = Packet(pid=0, src=0, dst=5, size_phits=8, creation_cycle=0)
    assert not p.misrouted
    p.locally_misrouted = True
    assert p.misrouted
    p.locally_misrouted = False
    p.globally_misrouted = True
    assert p.misrouted


def test_default_routing_state():
    p = Packet(pid=1, src=2, dst=3, size_phits=4, creation_cycle=7)
    assert p.phase is RoutingPhase.MINIMAL
    assert p.valiant_router is None
    assert p.intermediate_group is None
    assert p.contention_port is None
    assert p.ectn_offset is None
    assert not p.must_misroute_global
