"""Compute node: traffic source queue and injection into its router.

Each node owns an unbounded *source queue* (packets generated by the traffic
process wait there until the router's injection buffer can accept them) and
injects at most one phit per cycle into its router, i.e. a new packet can be
injected only every ``packet_size_phits`` cycles.  End-to-end latency is
measured from packet *generation* (entering the source queue), so source
queueing delay is included, as in the paper's latency curves.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional
from weakref import ref

from repro.network.packet import Packet
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network
    from repro.network.router import Router

__all__ = ["ComputeNode"]


class ComputeNode:
    """A traffic-generating compute node attached to one router port."""

    __slots__ = (
        "node_id",
        "router_id",
        "router",
        "port",
        "_network",
        "source_queue",
        "next_injection_cycle",
        "active",
        "_vc_pointer",
        "generated_packets",
        "injected_packets",
        "generated_phits",
    )

    def __init__(self, node_id: int, network: "Network", topology: Topology):
        self.node_id = node_id
        self.router_id = topology.node_router(node_id)
        #: The object router this node injects into; set when the network
        #: materialises its router graph, ``None`` on a backend that keeps
        #: router state elsewhere.
        self.router: Optional["Router"] = None
        self.port = topology.node_port(node_id)
        # Weak, so that a network and its nodes form no reference cycle and a
        # finished simulation is reclaimed by reference counting.
        self._network = ref(network)
        #: Created by the first :meth:`enqueue`: most nodes of a large
        #: system never generate a packet in a short run.
        self.source_queue: Optional[Deque[Packet]] = None
        self.next_injection_cycle = 0
        #: Whether this node is registered in the network's backlog set.
        self.active = False
        self._vc_pointer = 0
        self.generated_packets = 0
        self.injected_packets = 0
        self.generated_phits = 0

    # ------------------------------------------------------------------ source
    def enqueue(self, packet: Packet) -> None:
        """Add a freshly generated packet to the source queue."""
        queue = self.source_queue
        if queue is None:
            queue = self.source_queue = deque()
        queue.append(packet)
        self.generated_packets += 1
        self.generated_phits += packet.size_phits
        if not self.active:
            network = self._network()
            if network is not None:
                network.activate_node(self)

    @property
    def source_queue_length(self) -> int:
        return len(self.source_queue or ())

    # --------------------------------------------------------------- injection
    def try_inject(self, cycle: int) -> Optional[Packet]:
        """Attempt to inject the head of the source queue into the router.

        Injection bandwidth is one phit per cycle, enforced by spacing
        injections ``size_phits`` cycles apart.  Returns the injected packet
        or ``None``.
        """
        if not self.source_queue or cycle < self.next_injection_cycle:
            return None
        packet = self.source_queue[0]
        router = self.router
        if router is None:
            # The object model's injection on a network that never built its
            # router graph (only reachable by calling this by hand).
            self._network().materialize_routers()
            router = self.router
        input_port = router.input_ports[self.port]
        num_vcs = len(input_port.vcs)
        routing = router.routing
        for offset in range(num_vcs):
            vc = (self._vc_pointer + offset) % num_vcs
            ivc = input_port.vcs[vc]
            if not ivc.buffer.can_accept(packet.size_phits):
                continue
            self.source_queue.popleft()
            packet.injection_cycle = cycle
            routing.on_inject(router, packet, cycle)
            ivc.buffer.push(packet)
            if router._notify_arrival:
                routing.on_packet_arrival(router, self.port, vc, packet, cycle)
            self._vc_pointer = (vc + 1) % num_vcs
            self.next_injection_cycle = cycle + packet.size_phits
            self.injected_packets += 1
            return packet
        return None
