"""Packet model.

The simulator works at packet granularity with phit-accurate accounting:
a packet occupies ``size_phits`` phits of buffer space and serializes over a
link at one phit per cycle.  Besides the usual identity fields, a packet
carries the routing state needed by the adaptive mechanisms: hop counters
(for virtual-channel assignment), the Valiant intermediate router of a
source-routed nonminimal path (the packet is on its Valiant leg exactly
while it has one), and flags recording whether the packet has been
misrouted globally or locally (used both by the routing restrictions and by
the metrics).  An in-transit global misroute needs no target of its own:
the group its global link enters is the intermediate group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Packet"]


@dataclass(slots=True)
class Packet:
    """A network packet and its routing/measurement state."""

    pid: int
    src: int
    dst: int
    size_phits: int
    creation_cycle: int

    # --- measurement -------------------------------------------------------
    injection_cycle: Optional[int] = None   # entered the router injection buffer
    delivered_cycle: Optional[int] = None   # tail left the ejection port

    # --- routing state -----------------------------------------------------
    #: Valiant intermediate router (VAL/UGAL/PB) until the packet reaches it.
    valiant_router: Optional[int] = None
    global_hops: int = 0
    local_hops_in_group: int = 0   # local hops taken inside the current group
    # --- dateline VC state (ring topologies; see repro.topology.torus) ------
    #: Valiant leg for the dateline schedule: 0 until the packet passes its
    #: Valiant intermediate router, 1 afterwards (minimal-only packets stay 0).
    vc_leg: int = 0
    #: Ring dimension of the packet's current traversal (-1 before any hop
    #: and right after a leg change).
    ring_dim: int = -1
    #: Whether the current ring traversal has reached its dateline (the
    #: wrap-around link); bumps the dateline buffer class.
    ring_crossed: bool = False
    #: Direction (+1 / -1) of the current ring traversal, 0 before any ring
    #: hop.  The ring-escape policy commits a traversal to one direction —
    #: minimal or the contention-triggered long way — and holds it there
    #: until the dimension is corrected, so a traversal crosses its
    #: dateline at most once.
    ring_dir: int = 0
    globally_misrouted: bool = False
    locally_misrouted: bool = False
    current_vc: int = 0

    # --- contention-counter bookkeeping (Section III) -----------------------
    #: Output port whose contention counter this packet is currently holding
    #: incremented (set when it reaches the head of an input buffer).
    contention_port: Optional[int] = None
    #: Group-local global-link offset this packet currently contributes to in
    #: the router's ECtN partial array.
    ectn_offset: Optional[int] = None
    #: Set when the packet took a local "proxy" hop of an MM+L global
    #: misroute: its next hop must leave the group through a global link.
    must_misroute_global: bool = False

    # --- fault handling (see repro.topology.faults) --------------------------
    #: Sticky flag: the packet hit a failed link and now follows the
    #: surviving-path BFS tree to its destination (cleared never; the flag
    #: also feeds the rerouted-due-to-fault delivery counter).
    fault_mode: bool = False

    # --- bookkeeping -------------------------------------------------------
    hops: int = 0

    @property
    def delivered(self) -> bool:
        return self.delivered_cycle is not None

    @property
    def misrouted(self) -> bool:
        """Whether the packet took any nonminimal (global or local) hop."""
        return self.globally_misrouted or self.locally_misrouted

    def record_hop(self, *, is_global: bool) -> None:
        """Update hop counters when the packet is forwarded through a port."""
        self.hops += 1
        if is_global:
            self.global_hops += 1
            self.local_hops_in_group = 0
        else:
            self.local_hops_in_group += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packet(pid={self.pid}, {self.src}->{self.dst}, size={self.size_phits}, "
            f"via={self.valiant_router}, hops={self.hops}, "
            f"gm={self.globally_misrouted}, lm={self.locally_misrouted})"
        )
