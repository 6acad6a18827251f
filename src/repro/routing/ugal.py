"""UGAL: Universal Globally-Adaptive Load-balanced source routing.

At injection the source router compares the minimal path against one
candidate Valiant path through a random intermediate router (Singh, 2005;
the UGAL-L variant using local output-queue estimates):

    q_min * len_min  >  q_val * len_val + T

where ``q`` is the credit-estimated occupancy of the first output port of
each path, ``len`` the path length in hops, and ``T`` a threshold in phits.
When the comparison holds the packet commits to the Valiant path; otherwise
it goes minimally.  Once chosen the route is oblivious (source routing).

UGAL is implemented against the topology ABC only — minimal ports, regions
and path lengths all come from the :class:`~repro.topology.base.Topology`
interface — so it runs on every registered topology (Dragonfly, flattened
butterfly, full mesh, torus).  Packets that commit to the minimal path stay
on Valiant leg 0, so on dateline-schedule topologies UGAL fits the same
ring-VC budget as VAL.  PiggyBacking (:mod:`repro.routing.piggyback`)
extends it with the Dragonfly-specific intra-group saturation ECN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.packet import Packet
from repro.routing.valiant import ValiantRouting

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.router import Router

__all__ = ["UGALRouting"]


class UGALRouting(ValiantRouting):
    """Source-adaptive MIN-vs-Valiant choice by queue-length comparison.

    At injection :meth:`on_inject` draws one candidate Valiant intermediate
    (outside the source region) and commits to the Valiant path only when
    ``q_min * len_min > q_val * len_val + T`` — minimal otherwise.  The
    committed route is then oblivious, which is why the in-transit hooks
    are inherited unchanged from :class:`ValiantRouting`.  Works on every
    registered topology; subclass hook: :meth:`prefers_valiant` (used by
    PB to add the saturation-ECN term).
    """

    name = "UGAL"
    needs_extra_local_vc = True

    def __init__(self, topology, params, rng):
        super().__init__(topology, params, rng)
        #: ``T`` of the queue comparison, in phits.
        self._valiant_threshold = params.pb_offset_threshold * params.packet_size_phits

    # -------------------------------------------------------------- injection
    def on_inject(self, router: "Router", packet: Packet, cycle: int) -> None:
        topo = self.topology
        src_region = topo.router_region(router.router_id)
        dst_region = topo.node_region(packet.dst)
        if dst_region == src_region:
            return

        # Candidate Valiant intermediate router (chosen before the comparison
        # so that q_val can be evaluated on an actual path).
        intermediate = self.random_intermediate_router(router.router_id)
        if self.prefers_valiant(router, packet, intermediate, cycle):
            packet.valiant_router = intermediate

    def prefers_valiant(
        self, router: "Router", packet: Packet, intermediate: int, cycle: int
    ) -> bool:
        """Whether the source-adaptive trigger commits to the Valiant path.

        Subclasses layer extra information on top (PB's saturation flags).
        """
        return self._ugal_prefers_valiant(router, packet, intermediate)

    def _ugal_prefers_valiant(
        self, router: "Router", packet: Packet, intermediate: int
    ) -> bool:
        """UGAL queue comparison at the source router."""
        topo = self.topology
        rid = router.router_id
        dst_router = topo.node_router(packet.dst)

        min_port = topo.minimal_output_port(rid, packet.dst)
        q_min = router.output_occupancy(min_port)
        len_min = topo.router_hops(rid, dst_router) + 1

        if intermediate == rid:
            q_val = q_min
            len_val = len_min
        else:
            val_port = topo.minimal_route_to_router(rid, intermediate)
            q_val = router.output_occupancy(val_port)
            len_val = (
                topo.router_hops(rid, intermediate)
                + topo.router_hops(intermediate, dst_router)
                + 1
            )
        return q_min * len_min > q_val * len_val + self._valiant_threshold
