"""Contention counters (Section III-B of the paper).

A router keeps one counter per output port.  When a packet reaches the head
of an input (or injection) buffer, the counter of its *minimal* output port
is incremented; it is decremented only when the packet leaves that input
buffer — even if the packet is eventually forwarded through a different
(nonminimal) port.  The counter therefore measures how many flows currently
*demand* each output, independently of buffer occupancy, which is precisely
what decouples the misrouting trigger from the buffer size.

:class:`ContentionCounters` is the per-router counter array;
:class:`ContentionTracker` owns one instance per router and implements the
increment/decrement protocol from the routing-algorithm hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.network.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.router import Router
    from repro.topology.base import Topology

__all__ = ["ContentionCounters", "ContentionTracker"]


class ContentionCounters:
    """Per-output-port contention counters of one router."""

    __slots__ = ("counts",)

    def __init__(self, num_ports: int):
        if num_ports < 1:
            raise ValueError("a router needs at least one port")
        self.counts: List[int] = [0] * num_ports

    def increment(self, port: int) -> None:
        self.counts[port] += 1

    def decrement(self, port: int) -> None:
        if self.counts[port] <= 0:
            raise RuntimeError(f"contention counter underflow on port {port}")
        self.counts[port] -= 1

    def value(self, port: int) -> int:
        return self.counts[port]

    def total(self) -> int:
        return sum(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContentionCounters({self.counts})"


class ContentionTracker:
    """Maintains the contention counters of every router of a network."""

    def __init__(self, topology: "Topology"):
        self.topology = topology
        # Indexed by router id (router ids are dense), so the per-head hot
        # path reaches a counter array with one list index.
        self._counters: List[ContentionCounters] = [
            ContentionCounters(topology.router_radix)
            for _ in range(topology.num_routers)
        ]

    def counters(self, router_id: int) -> ContentionCounters:
        return self._counters[router_id]

    def value(self, router_id: int, port: int) -> int:
        return self._counters[router_id].value(port)

    # -- protocol -------------------------------------------------------------
    def on_head(self, router: "Router", packet: Packet) -> None:
        """A packet header reached the head of an input buffer of ``router``."""
        if packet.contention_port is not None:
            return  # already counted at this router (defensive; should not happen)
        minimal_port = self.topology.minimal_output_port(router.router_id, packet.dst)
        self._counters[router.router_id].counts[minimal_port] += 1
        packet.contention_port = minimal_port

    def on_leave(self, router: "Router", packet: Packet) -> None:
        """The packet's tail left the input buffer of ``router``."""
        if packet.contention_port is None:
            return
        self._counters[router.router_id].decrement(packet.contention_port)
        packet.contention_port = None
