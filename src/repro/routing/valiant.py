"""VAL: Valiant (oblivious nonminimal) routing.

Every packet is first routed minimally to a uniformly random intermediate
*router* and from there minimally to its destination (Valiant, 1982; the
paper's implementation misroutes to an intermediate node/router rather than
an intermediate group, Section V-A).  The two minimal sub-paths give the
l-g-l-l-g-l worst case that motivates the extra local virtual channel of
Table I.  VAL is the throughput reference under adversarial traffic
(0.5 phits/node/cycle) and wastes half the bandwidth under uniform traffic.

The implementation is topology-agnostic: the intermediate router is drawn
uniformly outside the source *region* (the Dragonfly group, the flattened
butterfly row, the full-mesh router itself, the torus slab), which both
spreads load over other regions' links and keeps every Valiant path inside
the strictly increasing buffer-class schedule of
:mod:`repro.routing.deadlock` (a pure intra-region first leg followed by an
inter-region second leg would reuse a lower local class after a higher
one).  On dateline-schedule topologies the two legs instead map to the two
disjoint ring-VC class blocks: reaching the intermediate router bumps the
packet to leg 1 (see :meth:`ValiantRouting.on_packet_arrival`), which is
what makes torus Valiant paths deadlock-free with four ring VCs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.network.packet import Packet
from repro.routing.base import RoutingAlgorithm, RoutingDecision
from repro.topology.base import PortKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.router import Router

__all__ = ["ValiantRouting"]


class ValiantRouting(RoutingAlgorithm):
    """Oblivious Valiant routing through a random intermediate router."""

    name = "VAL"
    needs_extra_local_vc = True
    #: In-transit decisions draw no randomness (the Valiant intermediate is
    #: chosen at injection), so rounds within a cycle may reuse them.
    decision_is_pure = True

    def __init__(self, topology, params, rng):
        super().__init__(topology, params, rng)
        self._nodes_per_router = topology.nodes_per_router
        self._nodes_per_region = topology.num_nodes // topology.num_regions
        #: Whether misrouting shows up on GLOBAL links (Dragonfly, flattened
        #: butterfly) or on LOCAL links (topologies without global ports,
        #: where the detour through the intermediate router *is* the local
        #: misroute).
        self._has_global_ports = topology.path_model.has_global_ports

    def random_intermediate_router(self, source_router: int) -> int:
        """Uniformly random intermediate router for ``source_router``.

        Delegates to
        :meth:`~repro.topology.base.Topology.valiant_intermediate_router`:
        the default draws uniformly outside the source region (restricting
        the intermediate to other regions keeps the Valiant paths within
        the hop shapes covered by the deadlock-free VC assignment, and
        matches the intent of global misrouting — spreading load over
        *other* regions' links); topologies whose schedule needs a
        structurally constrained intermediate override the hook (the fat
        tree draws a root).  Exactly one RNG draw either way.
        """
        return self.topology.valiant_intermediate_router(source_router, self.rng)

    def on_inject(self, router: "Router", packet: Packet, cycle: int) -> None:
        packet.valiant_router = self.random_intermediate_router(router.router_id)

    def on_packet_arrival(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        if packet.valiant_router == router.router_id:
            packet.valiant_router = None
            # Dateline schedule: the second leg uses the disjoint higher
            # class block, and its first ring traversal starts fresh (the
            # first leg's dateline state must not leak into it).
            packet.vc_leg = 1
            packet.ring_dim = -1
            packet.ring_crossed = False
            packet.ring_dir = 0

    def select_output(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> Optional[RoutingDecision]:
        topo = self.topology
        via = packet.valiant_router
        dst = packet.dst
        if via is None:
            if router.router_id == self._node_rid[dst]:
                return self.plain_decision(dst % self._nodes_per_router, 0)
            return self.minimal_decision(router, packet)
        out_port = topo.minimal_route_to_router(router.router_id, via)
        kind = topo.port_kinds[out_port]
        if kind is PortKind.GLOBAL:
            # A global hop towards a region that is not the destination's
            # is the nonminimal detour the metrics count.
            nonminimal_global = (
                topo.port_target_region(router.router_id, out_port)
                != dst // self._nodes_per_region
            )
            return RoutingDecision(
                output_port=out_port,
                vc=self.next_vc(packet, kind),
                nonminimal_global=nonminimal_global,
            )
        # Without global ports the detour to the intermediate router is a
        # local misroute whenever it leaves the minimal path.
        nonminimal_local = (
            not self._has_global_ports
            and out_port != topo.minimal_output_port(router.router_id, dst)
        )
        return RoutingDecision(
            output_port=out_port,
            vc=self.hop_vc(packet, router.router_id, out_port, kind),
            nonminimal_local=nonminimal_local,
        )
