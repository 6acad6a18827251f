"""ECtN: Explicit Contention Notification (Section III-D).

Every router keeps two arrays of per-global-link contention counters for its
group:

* the **partial** array, updated locally — incremented when a packet that
  must leave the group (remote destination) sits at the head of an injection
  queue or is received through a global input port, and decremented when that
  packet leaves the input queue;
* the **combined** array, the sum of the partial arrays of all routers of the
  group, refreshed every ``ectn_update_period`` cycles when the routers
  broadcast their partial arrays (the broadcast overhead is not simulated,
  matching the paper's methodology).

At injection, a packet whose minimal global link has a combined counter above
the combined threshold is misrouted through one of the current router's
global links whose combined counter is under the threshold.  For subsequent
hops (and for local misrouting) the ordinary per-output contention counters
of Base are used.  The group-wide view makes the counters statistically
significant even at low loads and lets routers misroute directly from the
injection queues, which gives ECtN the best latency of all mechanisms and a
perfectly flat response after the first broadcast following a traffic change
(Figs. 5–9).  ECtN declares the contention counter (``contention_threshold``)
and the combined counters (``combined_threshold``); the trigger that reads
them is :class:`~repro.routing.adaptive.AdaptiveInTransitRouting`'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet
from repro.routing.base import UnsupportedTopologyError
from repro.routing.contention.base_contention import BaseContentionRouting
from repro.topology.base import PortKind
from repro.topology.dragonfly import DragonflyTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network
    from repro.network.router import Router

__all__ = ["ECtNRouting"]


class ECtNRouting(BaseContentionRouting):
    """Contention-counter routing with explicit contention notification."""

    name = "ECtN"

    def __init__(self, topology: DragonflyTopology, params: SimulationParameters, rng):
        # The partial/combined arrays are indexed by group-local global-link
        # offsets, which only exist on the canonical Dragonfly (one global
        # link per group pair).  Base and Hybrid run on every topology with
        # an in-transit policy (flattened butterfly, torus), but ECtN's
        # broadcast structure does not generalize, so it gates itself on the
        # concrete Dragonfly even where AdaptiveInTransitRouting would
        # accept the topology.
        if not isinstance(topology, DragonflyTopology):
            raise UnsupportedTopologyError.for_mechanism(
                self.name,
                topology,
                "the explicit contention notification broadcasts "
                "per-global-link counter arrays over Dragonfly groups",
                "Base/Hybrid (contention triggers without the broadcast) "
                "or the topology-agnostic UGAL",
            )
        super().__init__(topology, params, rng)
        links = topology.global_links_per_group
        #: Partial arrays, one per router, indexed by group-local link offset.
        self.partial: Dict[int, List[int]] = {
            rid: [0] * links for rid in range(topology.num_routers)
        }
        #: Combined arrays, one per group (shared by the group's routers).
        self.combined: Dict[int, List[int]] = {
            g: [0] * links for g in range(topology.num_regions)
        }
        self._first_global_port = min(topology.global_ports)
        self._h = topology.config.h
        # Group-local offset of the link between two groups (the topology's
        # table, which the SoA core reads too).
        self._link_offsets = topology.group_link_offsets
        self._num_groups = topology.num_regions
        self.contention_threshold = params.ectn_local_contention_threshold
        self.combined_threshold = params.ectn_combined_threshold

    # ------------------------------------------------------------- link ids
    def link_offset_for_destination(self, group: int, dst_group: int) -> int:
        """Group-local offset of the global link from ``group`` to ``dst_group``."""
        return self._link_offsets[group * self._num_groups + dst_group]

    def combined_view(self, router_id: int, dst_group: int) -> Tuple[List[int], int, int]:
        """What the combined signal reads at ``router_id``: its group's
        combined counters, the offset of the group's link to ``dst_group`` and
        the base that a global port of the router adds to for its link's."""
        group, position = divmod(router_id, self._routers_per_group)
        return (
            self.combined[group],
            self.link_offset_for_destination(group, dst_group),
            position * self._h - self._first_global_port,
        )

    # -------------------------------------------------------------- tracking
    def _maybe_count_partial(self, router: "Router", packet: Packet) -> None:
        if packet.ectn_offset is not None:
            return
        group = self.topology.router_region(router.router_id)
        dst_group = self.topology.node_region(packet.dst)
        if dst_group == group:
            return
        offset = self.link_offset_for_destination(group, dst_group)
        self.partial[router.router_id][offset] += 1
        packet.ectn_offset = offset

    def on_packet_arrival(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        super().on_packet_arrival(router, port, vc, packet, cycle)
        if self.topology.port_kinds[port] is PortKind.GLOBAL:
            self._maybe_count_partial(router, packet)

    def on_packet_head(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        super().on_packet_head(router, port, vc, packet, cycle)
        if self.topology.port_kinds[port] is PortKind.INJECTION:
            self._maybe_count_partial(router, packet)

    def on_packet_leave_input(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        super().on_packet_leave_input(router, port, vc, packet, cycle)
        if packet.ectn_offset is not None:
            counts = self.partial[router.router_id]
            if counts[packet.ectn_offset] <= 0:
                raise RuntimeError("ECtN partial counter underflow")
            counts[packet.ectn_offset] -= 1
            packet.ectn_offset = None

    # -------------------------------------------------------------- broadcast
    def post_cycle(self, network: "Network", cycle: int) -> None:
        if cycle % self.params.ectn_update_period != 0:
            return
        topo = self.topology
        links = topo.global_links_per_group
        for group in range(topo.num_regions):
            combined = [0] * links
            for rid in topo.region_routers(group):
                partial = self.partial[rid]
                for i in range(links):
                    combined[i] += partial[i]
            self.combined[group] = combined

    def post_cycle_horizon(self, cycle: int, fabric_idle: bool) -> Optional[int]:
        """ECtN only acts on broadcast cycles: the next update-period multiple.

        Between broadcasts ``post_cycle`` is a no-op, so the time-warp engine
        only needs to land on every multiple of ``ectn_update_period`` — the
        broadcast there recomputes the combined arrays from the (possibly
        stale) partial counters exactly as the cycle-by-cycle engine would.
        """
        period = self.params.ectn_update_period
        remainder = cycle % period
        if remainder == 0:
            return cycle
        return cycle + (period - remainder)
