"""PB: PiggyBacking source-adaptive routing (Jiang, Kim & Dally, ISCA 2009).

Each router continuously classifies its own global channels as *saturated*
or not from their credit-estimated occupancy, and piggybacks these flags on
the traffic it sends inside the group, so every router of a group knows the
saturation state of all ``a*h`` global channels of the group (an intra-group
ECN).  At injection the source router chooses between the minimal path and a
Valiant path to a random intermediate router: the Valiant path is chosen when
the minimal global channel is flagged saturated or when the UGAL-style
queue-length comparison ``q_min * len_min > q_val * len_val + T`` holds
(inherited from :class:`~repro.routing.ugal.UGALRouting`).  Once chosen, the
route is oblivious (source routing).

This is the paper's representative of *congestion-based source-adaptive*
routing, whose delayed reaction and routing oscillations (Figs. 7–9) motivate
the contention-based mechanisms.

The saturation ECN is defined over the Dragonfly's groups and their
one-link-per-group-pair global channels, so PB is **Dragonfly-only**: pairing
it with another topology raises
:class:`~repro.routing.base.UnsupportedTopologyError` (use the plain,
topology-agnostic ``UGAL`` there).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Tuple

from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet
from repro.routing.base import UnsupportedTopologyError
from repro.routing.ugal import UGALRouting
from repro.topology.dragonfly import DragonflyTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network
    from repro.network.router import Router

__all__ = ["PiggybackRouting"]


class PiggybackRouting(UGALRouting):
    """Credit-based source-adaptive routing with intra-group saturation ECN."""

    name = "PB"
    needs_extra_local_vc = True

    def __init__(self, topology, params: SimulationParameters, rng):
        if not isinstance(topology, DragonflyTopology):
            raise UnsupportedTopologyError.for_mechanism(
                self.name,
                topology,
                "the intra-group saturation ECN piggybacks flags over the "
                "Dragonfly's one-global-link-per-group-pair structure",
                "the topology-agnostic UGAL (same source-adaptive "
                "comparison, no ECN)",
            )
        super().__init__(topology, params, rng)
        # Saturation flags per group, indexed by the group-local global-link
        # offset (router_position * h + global_port_index).
        links = topology.global_links_per_group
        self._flags: List[List[bool]] = [
            [False] * links for _ in range(topology.num_regions)
        ]
        # Groups with at least one saturated flag, maintained by post_cycle
        # so the time-warp horizon check is O(1).
        self._saturated_groups: set = set()
        # Flags travel inside the group piggybacked on packets; model the
        # notification delay as one local link latency.
        self._pending: Deque[Tuple[int, int, List[bool]]] = deque()
        self.notification_delay = params.local_link_latency
        self._first_global_port = min(topology.global_ports)
        # Group-local offset of the link between two groups (the topology's
        # table): the flag of a source's minimal global link.
        self._link_offsets = topology.group_link_offsets
        self._num_groups = topology.num_regions

    # ------------------------------------------------------------------ flags
    def global_link_offset(self, router_id: int, port: int) -> int:
        """Group-local index of the global link at ``(router_id, port)``."""
        pos = self.topology.router_position(router_id)
        return pos * self.topology.config.h + (port - self._first_global_port)

    def is_saturated(self, group: int, offset: int) -> bool:
        return self._flags[group][offset]

    def saturation_flags(self, group: int) -> List[bool]:
        return list(self._flags[group])

    def post_cycle(self, network: "Network", cycle: int) -> None:
        """Recompute saturation flags and deliver them after the ECN delay."""
        topo = self.topology
        h = topo.config.h
        first_global = self._first_global_port
        scanned = []
        for group in range(topo.num_regions):
            flags = [False] * topo.global_links_per_group
            for router in network.region_routers(group):
                pos = router.position
                for k in range(h):
                    port = first_global + k
                    out = router.output_ports[port]
                    capacity = sum(out.max_credits)
                    occupancy = out.total_occupancy()
                    flags[pos * h + k] = (
                        occupancy >= self.params.pb_saturation_fraction * capacity
                    )
            scanned.append(flags)
        self.publish_flags(cycle, scanned)

    def publish_flags(self, cycle: int, scanned: List[List[bool]]) -> None:
        """Queue this cycle's per-group scan; deliver the flags now due.

        Separate from the scan so an engine that keeps router state outside
        the ``Network`` objects supplies its own scan and shares the rest.
        """
        pending = self._pending
        due = cycle + self.notification_delay
        for group, flags in enumerate(scanned):
            pending.append((due, group, flags))
        while pending and pending[0][0] <= cycle:
            _, group, flags = pending.popleft()
            self._flags[group] = flags
            if any(flags):
                self._saturated_groups.add(group)
            else:
                self._saturated_groups.discard(group)

    def post_cycle_horizon(self, cycle: int, fabric_idle: bool) -> Optional[int]:
        """PB's ECN must be re-evaluated every cycle while anything can move.

        Occupancies (and therefore the saturation flags) only change while
        the fabric is busy; once the network is fully quiet with no pending
        flag updates in flight and no saturated flag left, recomputing the
        flags every cycle is a provable no-op (all occupancies are zero), so
        the engine may warp freely.
        """
        if not fabric_idle or self._pending or self._saturated_groups:
            return cycle
        return None

    # -------------------------------------------------------------- injection
    def prefers_valiant(
        self, router: "Router", packet: Packet, intermediate: int, cycle: int
    ) -> bool:
        """Saturation-flag ECN first, then the inherited UGAL comparison."""
        topo = self.topology
        src_group = topo.router_region(router.router_id)
        dst_group = topo.node_region(packet.dst)
        if self._flags[src_group][self._link_offsets[src_group * self._num_groups + dst_group]]:
            return True
        return self._ugal_prefers_valiant(router, packet, intermediate)
