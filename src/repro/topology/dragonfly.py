"""Canonical Dragonfly topology (Kim et al., ISCA 2008; Camarero et al. 2014).

The canonical Dragonfly used in the paper connects ``a`` routers per group as
a complete graph (one *local* link between every pair of routers in the
group) and the ``a*h + 1`` groups as a complete graph (exactly one *global*
link between every pair of groups).  Each router additionally attaches ``p``
compute nodes through injection/ejection ports.

Port layout (identical on every router)::

    [0, p)              injection / ejection ports (node index within router)
    [p, p + a - 1)      local ports (one per other router of the group)
    [p + a - 1, radix)  global ports (h of them)

Global-link arrangements
------------------------
Within a group the ``a*h`` global links are distributed among routers; the
*arrangement* decides which router owns the link towards which remote group.
Two arrangements are provided:

``consecutive``
    The global link with group-local offset ``o = i*h + k`` (router ``i``,
    global port ``k``) connects group ``g`` to group ``(g + o + 1) mod N``.

``palmtree``
    The link with offset ``o`` connects group ``g`` to group
    ``(g - o - 1) mod N`` (links fan out "backwards"), the arrangement used
    for the PERCS/Table I configuration in the paper.

Both arrangements are *consistent*: each pair of groups is joined by exactly
one bidirectional link, and the reverse side resolves to the same link.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config.parameters import DragonflyConfig
from repro.topology.base import PathModel, PortKind, Topology

__all__ = ["DragonflyTopology"]

#: Hop-kind shapes of the (unique) Dragonfly minimal paths: up to one local
#: hop to the gateway, the single global link, up to one local hop in the
#: destination group.
_MINIMAL_HOP_KINDS = (
    ("local",),
    ("global",),
    ("local", "global"),
    ("global", "local"),
    ("local", "global", "local"),
)

#: Worst-case hop shapes of the in-transit adaptive (MM+L) paths: an
#: intra-group local detour, a direct global misroute with a local detour in
#: the intermediate group, and the full local-proxy + global-misroute path.
#: Every realizable adaptive path visits a counter-consistent prefix/suffix
#: of one of these, and each shape must walk strictly increasing buffer
#: classes under the nonminimal VC budget (checked at mechanism
#: construction by :func:`repro.routing.deadlock.validate_path_model`).
_ADAPTIVE_HOP_KINDS = (
    ("local", "local"),
    ("global", "local", "local", "global", "local"),
    ("local", "global", "local", "local", "global", "local"),
)

class DragonflyTopology(Topology):
    """Canonical (complete-graph / complete-graph) Dragonfly."""

    def __init__(self, config: DragonflyConfig):
        super().__init__(
            config.num_groups * config.a,
            config.p,
            config.router_radix,
            config.num_groups,
            PathModel.from_minimal_paths(
                "dragonfly",
                _MINIMAL_HOP_KINDS,
                supports_in_transit_adaptive=True,
                adaptive_hop_kinds=_ADAPTIVE_HOP_KINDS,
            ),
        )
        self.config = config
        self._h = config.h
        a, G = self._routers_per_region, self._num_regions
        self._first_global_port = self._p + a - 1
        # Precomputed tables -------------------------------------------------
        # For each group-local offset o in [0, a*h): the remote group reached.
        self._offset_to_group: List[List[int]] = [
            [self._global_offset_target(g, o) for o in range(a * self._h)] for g in range(G)
        ]
        # For each (group, remote group): the (router position, global port)
        # within `group` owning the link towards `remote group`.
        self._group_route: List[Dict[int, Tuple[int, int]]] = []
        for g in range(G):
            table: Dict[int, Tuple[int, int]] = {}
            for o, dst in enumerate(self._offset_to_group[g]):
                pos, k = divmod(o, self._h)
                table[dst] = (pos, self._first_global_port + k)
            self._group_route.append(table)
        # Port index -> kind, so the per-packet hot paths avoid re-deriving
        # the kind from the range boundaries.  Public: routing hot loops index
        # it directly instead of paying a method call per lookup.
        self.port_kinds: Tuple[PortKind, ...] = tuple(
            PortKind.INJECTION
            if port < self._p
            else (PortKind.LOCAL if port < self._first_global_port else PortKind.GLOBAL)
            for port in range(self._radix)
        )
        #: Group-local offset of the global link from group ``g`` to group
        #: ``d`` at ``[g * G + d]`` for ``G`` groups (-1 on the diagonal): the link's
        #: owner is router ``o // h`` of ``g``, its port ``o % h`` past the
        #: first global port.  Public, like ``port_kinds``: ECtN's counters
        #: and PB's flags are indexed by it on their hot paths, and the SoA
        #: core reads it.
        self.group_link_offsets: List[int] = [
            -1 if g == d else self._global_offset_from(g, d)
            for g in range(G)
            for d in range(G)
        ]

    @property
    def hard_adversarial_offset(self) -> int:
        """ADV+h: the offset that concentrates load on one gateway router."""
        return self._h

    @property
    def global_links_per_group(self) -> int:
        return self._routers_per_region * self._h

    # -------------------------------------------------------------- addressing
    def router_id(self, group: int, position: int) -> int:
        """Router id from ``(group, position)``."""
        if not (0 <= group < self._num_regions):
            raise ValueError(f"group {group} out of range [0, {self._num_regions})")
        if not (0 <= position < self._routers_per_region):
            raise ValueError(
                f"position {position} out of range [0, {self._routers_per_region})"
            )
        return group * self._routers_per_region + position

    # ------------------------------------------------------------------- ports
    @property
    def local_ports(self) -> range:
        return range(self._p, self._first_global_port)

    @property
    def global_ports(self) -> range:
        return range(self._first_global_port, self._radix)

    def local_port_to(self, position: int, peer_position: int) -> int:
        """Local port of the router at ``position`` leading to ``peer_position``."""
        if position == peer_position:
            raise ValueError("a router has no local port to itself")
        idx = peer_position if peer_position < position else peer_position - 1
        return self._p + idx

    def local_port_peer(self, position: int, port: int) -> int:
        """Group position of the router reached through local ``port``."""
        if self.port_kind(port) is not PortKind.LOCAL:
            raise ValueError(f"port {port} is not a local port")
        idx = port - self._p
        peer = idx if idx < position else idx + 1
        return peer

    # ----------------------------------------------------- global arrangement
    def _global_offset_target(self, group: int, offset: int) -> int:
        """Remote group reached by the global link with ``offset`` in ``group``."""
        n = self._num_regions
        if self.config.global_arrangement == "palmtree":
            return (group - offset - 1) % n
        return (group + offset + 1) % n

    def _global_offset_from(self, group: int, remote_group: int) -> int:
        """Group-local offset of the global link from ``group`` to ``remote_group``."""
        n = self._num_regions
        if group == remote_group:
            raise ValueError("no global link joins a group with itself")
        if self.config.global_arrangement == "palmtree":
            return (group - remote_group - 1) % n
        return (remote_group - group - 1) % n

    def global_link_endpoint(self, group: int, dst_group: int) -> Tuple[int, int]:
        """Return ``(router, global_port)`` in ``group`` owning the link to ``dst_group``."""
        pos, port = self._group_route[group][dst_group]
        return self.router_id(group, pos), port

    # --------------------------------------------------------------- neighbors
    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        kind = self.port_kind(port)
        if kind is PortKind.INJECTION:
            return None
        group = self.router_region(router)
        pos = self.router_position(router)
        if kind is PortKind.LOCAL:
            peer_pos = self.local_port_peer(pos, port)
            peer = self.router_id(group, peer_pos)
            return peer, self.local_port_to(peer_pos, pos)
        # Global port: the link with offset ``pos * h + k`` of the group.
        dst_group = self._offset_to_group[group][
            pos * self._h + port - self._first_global_port
        ]
        peer_router, peer_port = self.global_link_endpoint(dst_group, group)
        return peer_router, peer_port

    # ----------------------------------------------------------------- routing
    def _route_port(self, router: int, dst_router: int) -> int:
        """What the route table caches: the first hop of the minimal path
        between two distinct routers."""
        group = self.router_region(router)
        dst_group = self.router_region(dst_router)
        pos = self.router_position(router)
        if group == dst_group:
            return self.local_port_to(pos, self.router_position(dst_router))
        gw_router, gw_port = self.global_link_endpoint(group, dst_group)
        if gw_router == router:
            return gw_port
        return self.local_port_to(pos, self.router_position(gw_router))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DragonflyTopology(p={self._p}, a={self._routers_per_region}, h={self._h}, "
            f"groups={self._num_regions}, nodes={self.num_nodes})"
        )
