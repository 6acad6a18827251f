"""Tests for the packet model."""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.network.packet import Packet


def test_delivered_property():
    p = Packet(pid=0, src=0, dst=5, size_phits=8, creation_cycle=10)
    assert not p.delivered
    p.delivered_cycle = 150
    assert p.delivered


def test_record_hop_updates_counters():
    p = Packet(pid=0, src=0, dst=5, size_phits=8, creation_cycle=0)
    p.record_hop(is_global=False)
    assert (p.global_hops, p.hops) == (0, 1)
    assert p.local_hops_in_group == 1
    p.record_hop(is_global=True)
    assert (p.global_hops, p.hops) == (1, 2)
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
    assert p.valiant_router is None
    assert p.contention_port is None
    assert p.ectn_offset is None
    assert not p.must_misroute_global


def test_every_packet_field_is_read_outside_the_packet_module():
    """A field that only ``packet.py`` reads is state nothing routes or
    measures by: each one is loaded as an attribute in some other module."""
    root = Path(repro.__file__).parent
    own = root / "network" / "packet.py"
    loaded = {
        node.attr
        for path in root.rglob("*.py")
        if path != own
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f.name for f in dataclasses.fields(Packet) if f.name not in loaded]
    assert unread == []
