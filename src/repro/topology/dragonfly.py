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

#: "Not computed yet" in the byte-sized route memos.
_UNSET = 0xFF


class DragonflyTopology(Topology):
    """Canonical (complete-graph / complete-graph) Dragonfly."""

    def __init__(self, config: DragonflyConfig):
        self.config = config
        self._p = config.p
        self._a = config.a
        self._h = config.h
        self._num_groups = config.num_groups
        self._num_routers = config.num_groups * config.a
        self._radix = config.router_radix
        # Port-range boundaries.
        self._first_local_port = self._p
        self._first_global_port = self._p + self._a - 1
        # Precomputed tables -------------------------------------------------
        # For each group-local offset o in [0, a*h): the remote group reached.
        self._offset_to_group: List[List[int]] = [
            [self._global_offset_target(g, o) for o in range(self._a * self._h)]
            for g in range(self._num_groups)
        ]
        # For each (group, remote group): the (router position, global port)
        # within `group` owning the link towards `remote group`.
        self._group_route: List[Dict[int, Tuple[int, int]]] = []
        for g in range(self._num_groups):
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
            if port < self._first_local_port
            else (PortKind.LOCAL if port < self._first_global_port else PortKind.GLOBAL)
            for port in range(self._radix)
        )
        #: Group-local offset of the global link from group ``g`` to group
        #: ``d`` at ``[g * G + d]`` for ``G`` groups (-1 on the diagonal): the link's
        #: owner is router ``o // h`` of ``g``, its port ``o % h`` past the
        #: first global port.  Public, like ``port_kinds``: ECtN's counters
        #: and PB's flags are indexed by it on their hot paths, and the SoA
        #: core reads it.
        G = self._num_groups
        self.group_link_offsets: List[int] = [
            -1 if g == d else self._global_offset_from(g, d)
            for g in range(G)
            for d in range(G)
        ]
        # (router, dst_router) -> first port of the minimal path: one memo
        # for ``minimal_output_port`` and ``minimal_route_to_router``, which
        # answer the same question.  A dense byte table rather than a dict:
        # indexing is faster than hashing on the hot path and the footprint
        # is bounded at num_routers^2 bytes (~4 MB at the paper scale, a port
        # index fits a byte).  ``_UNSET`` marks an entry not computed yet.
        if self._radix >= _UNSET:
            raise ValueError(
                f"router radix {self._radix} does not fit the byte-sized route "
                f"memo (at most {_UNSET - 1} ports)"
            )
        self._route_table = bytearray([_UNSET]) * (self._num_routers * self._num_routers)
        self._path_model = PathModel.from_minimal_paths(
            "dragonfly",
            _MINIMAL_HOP_KINDS,
            supports_in_transit_adaptive=True,
            adaptive_hop_kinds=_ADAPTIVE_HOP_KINDS,
        )

    # ------------------------------------------------------------------ sizes
    # Regions of a Dragonfly are its groups.
    @property
    def num_regions(self) -> int:
        return self._num_groups

    @property
    def routers_per_region(self) -> int:
        return self._a

    @property
    def path_model(self) -> PathModel:
        return self._path_model

    @property
    def hard_adversarial_offset(self) -> int:
        """ADV+h: the offset that concentrates load on one gateway router."""
        return self._h

    @property
    def num_routers(self) -> int:
        return self._num_routers

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self._p

    @property
    def router_radix(self) -> int:
        return self._radix

    @property
    def nodes_per_router(self) -> int:
        return self._p

    @property
    def global_links_per_group(self) -> int:
        return self._a * self._h

    # -------------------------------------------------------------- addressing
    # The region queries are arithmetic without sub-calls: the SoA core
    # answers them in C while an instance resolves to these functions.
    def router_region(self, router: int) -> int:
        return router // self._a

    def node_region(self, node: int) -> int:
        return node // (self._p * self._a)

    def router_position(self, router: int) -> int:
        """Position of ``router`` within its group (``0 <= pos < a``)."""
        return router % self._a

    def router_id(self, group: int, position: int) -> int:
        """Router id from ``(group, position)``."""
        if not (0 <= group < self._num_groups):
            raise ValueError(f"group {group} out of range [0, {self._num_groups})")
        if not (0 <= position < self._a):
            raise ValueError(f"position {position} out of range [0, {self._a})")
        return group * self._a + position

    def node_router(self, node: int) -> int:
        return node // self._p

    def node_port(self, node: int) -> int:
        return node % self._p

    def router_nodes(self, router: int) -> List[int]:
        base = router * self._p
        return list(range(base, base + self._p))

    # ------------------------------------------------------------------- ports
    def port_kind(self, port: int) -> PortKind:
        if 0 <= port < self._radix:
            return self.port_kinds[port]
        raise ValueError(f"port {port} out of range [0, {self._radix})")

    @property
    def injection_ports(self) -> range:
        return range(0, self._p)

    @property
    def local_ports(self) -> range:
        return range(self._first_local_port, self._first_global_port)

    @property
    def global_ports(self) -> range:
        return range(self._first_global_port, self._radix)

    def local_port_to(self, position: int, peer_position: int) -> int:
        """Local port of the router at ``position`` leading to ``peer_position``."""
        if position == peer_position:
            raise ValueError("a router has no local port to itself")
        idx = peer_position if peer_position < position else peer_position - 1
        return self._first_local_port + idx

    def local_port_peer(self, position: int, port: int) -> int:
        """Group position of the router reached through local ``port``."""
        if self.port_kind(port) is not PortKind.LOCAL:
            raise ValueError(f"port {port} is not a local port")
        idx = port - self._first_local_port
        peer = idx if idx < position else idx + 1
        return peer

    # ----------------------------------------------------- global arrangement
    def _global_offset_target(self, group: int, offset: int) -> int:
        """Remote group reached by the global link with ``offset`` in ``group``."""
        n = self._num_groups
        if self.config.global_arrangement == "palmtree":
            return (group - offset - 1) % n
        return (group + offset + 1) % n

    def _global_offset_from(self, group: int, remote_group: int) -> int:
        """Group-local offset of the global link from ``group`` to ``remote_group``."""
        n = self._num_groups
        if group == remote_group:
            raise ValueError("no global link joins a group with itself")
        if self.config.global_arrangement == "palmtree":
            return (group - remote_group - 1) % n
        return (remote_group - group - 1) % n

    def global_link_endpoint(self, group: int, dst_group: int) -> Tuple[int, int]:
        """Return ``(router, global_port)`` in ``group`` owning the link to ``dst_group``."""
        pos, port = self._group_route[group][dst_group]
        return self.router_id(group, pos), port

    def region_gateway(self, router: int, target_region: int) -> Tuple[int, bool]:
        """Next hop towards ``target_region``: the group's single global link
        to the target group, behind at most one local hop to its owner."""
        group = self.router_region(router)
        if group == target_region:
            raise ValueError("router is already inside the target region")
        gw_router, gw_port = self.global_link_endpoint(group, target_region)
        if gw_router == router:
            return gw_port, True
        return (
            self.local_port_to(
                self.router_position(router), self.router_position(gw_router)
            ),
            False,
        )

    def port_target_region(self, router: int, port: int) -> int:
        """Region (group) reached through ``port``: the router's own group over
        a local port, the global link's remote group from ``_offset_to_group``
        over a global one; arithmetic without sub-calls, no neighbor walk."""
        kind = self.port_kinds[port]
        if kind is PortKind.INJECTION:
            raise ValueError(f"port {port} is an injection port")
        group, position = divmod(router, self._a)
        if kind is PortKind.LOCAL:
            return group
        return self._offset_to_group[group][
            position * self._h + port - self._first_global_port
        ]

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
        # Global port.
        dst_group = self.port_target_region(router, port)
        peer_router, peer_port = self.global_link_endpoint(dst_group, group)
        return peer_router, peer_port

    # ----------------------------------------------------------------- routing
    def minimal_output_port(self, router: int, dst_node: int) -> int:
        """Output port on the (unique) minimal path from ``router`` to ``dst_node``.

        The canonical Dragonfly has a single minimal path between any pair of
        routers: up to one local hop in the source group, the single global
        link joining the two groups, and up to one local hop in the
        destination group.
        """
        dst_router = dst_node // self._p
        if router == dst_router:
            return dst_node % self._p
        key = router * self._num_routers + dst_router
        port = self._route_table[key]
        if port == _UNSET:
            port = self._route_table[key] = self._route_port(router, dst_router)
        return port

    def minimal_route_to_router(self, router: int, dst_router: int) -> int:
        """Output port on the minimal path from ``router`` towards ``dst_router``.

        Unlike :meth:`minimal_output_port` the destination is a *router*;
        used by Valiant routing to reach the intermediate router.  Raises if
        ``router == dst_router`` (there is no hop to take).
        """
        if router == dst_router:
            raise ValueError("already at the destination router")
        key = router * self._num_routers + dst_router
        port = self._route_table[key]
        if port == _UNSET:
            port = self._route_table[key] = self._route_port(router, dst_router)
        return port

    def router_hops(self, src_router: int, dst_router: int) -> int:
        """Hops of the minimal path between two routers: at most one local
        hop to the owner of the link between their groups, the link, at most
        one local hop from where it lands (arithmetic over
        ``group_link_offsets``; the SoA core transcribes it)."""
        if src_router == dst_router:
            return 0
        a = self._a
        group, dst_group = src_router // a, dst_router // a
        if group == dst_group:
            return 1
        offsets = self.group_link_offsets
        G, h = self._num_groups, self._h
        gateway = group * a + offsets[group * G + dst_group] // h
        landing = dst_group * a + offsets[dst_group * G + group] // h
        return 1 + (src_router != gateway) + (landing != dst_router)

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

    def minimal_path_length(self, src_node: int, dst_node: int) -> int:
        src_router = self.node_router(src_node)
        dst_router = self.node_router(dst_node)
        if src_router == dst_router:
            return 0
        hops = 0
        r = src_router
        # Bounded by the diameter (3 router-to-router hops).
        while r != dst_router:
            port = self.minimal_output_port(r, dst_node)
            nbr = self.neighbor(r, port)
            assert nbr is not None
            r = nbr[0]
            hops += 1
            if hops > 3:  # pragma: no cover - structural safety net
                raise RuntimeError("minimal path longer than the Dragonfly diameter")
        return hops

    def minimal_router_path(self, src_router: int, dst_router: int) -> List[int]:
        """Sequence of routers (inclusive) on the minimal path between routers."""
        path = [src_router]
        r = src_router
        if src_router == dst_router:
            return path
        dst_node_proxy = dst_router * self._p  # any node of the destination router
        while r != dst_router:
            port = self.minimal_output_port(r, dst_node_proxy)
            nbr = self.neighbor(r, port)
            assert nbr is not None
            r = nbr[0]
            path.append(r)
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DragonflyTopology(p={self._p}, a={self._a}, h={self._h}, "
            f"groups={self._num_groups}, nodes={self.num_nodes})"
        )
