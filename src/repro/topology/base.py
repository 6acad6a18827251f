"""Abstract topology interface and the per-topology *path model*.

A :class:`Topology` describes the static structure of the interconnection
network: how many routers and nodes exist, how router ports are classified
(injection / local / global), which router+port each port connects to, and
how minimal paths are computed.  The cycle-level network model
(:mod:`repro.network`) and the routing algorithms (:mod:`repro.routing`) are
written against this interface so that alternative topologies can be plugged
in; besides the canonical Dragonfly of :mod:`repro.topology.dragonfly` the
library ships a 2-D flattened butterfly, a full mesh, and a k-ary n-cube
torus (see :mod:`repro.topology.registry`).

Two topology-wide contracts keep the routing layer topology-agnostic:

**Dense, uniform addressing.**  Routers are identified by integers in
``[0, num_routers)`` and compute nodes by integers in ``[0, num_nodes)``;
a router attaches ``nodes_per_router`` consecutive nodes or none, as one
node -> router table says (``node_router(n) == n // nodes_per_router``
unless the topology passes its own map, as the fat tree does for its
leaves), and every *region* (see below) covers ``routers_per_region``
consecutive router ids and ``num_nodes // num_regions`` consecutive node
ids.  :class:`Topology` writes all of this once; a concrete topology
passes its numbers to :meth:`Topology.__init__` and defines its wiring.

**Regions.**  Every topology partitions its routers into equal, contiguous
*regions* — the generalization of Dragonfly groups.  For the Dragonfly a
region is a group; for the flattened butterfly it is a row (the routers
joined all-to-all by first-dimension links); for the full mesh every router
is its own region.  Regions drive the adversarial traffic patterns (region
``r`` targets region ``r + i``), the Valiant intermediate choice (outside
the source region, which keeps Valiant paths inside the deadlock-free VC
schedule), and the contention-counter "destination region" bookkeeping.

The :class:`PathModel` published by each topology describes the *hop
classes* of its paths — which port kinds exist, the canonical hop-kind
sequences of minimal and Valiant paths, the VC schedule the topology's
paths are proven deadlock-free under, and capability flags — and is what
parameterizes the VC assignment check in :mod:`repro.routing.deadlock` and
the capability gates of the routing mechanisms.

Three VC schedules exist (:attr:`PathModel.vc_schedule`):

``"path_stage"``
    The Dragonfly-style assignment: every hop's ``(kind, vc)`` buffer class
    is derived from the packet's hop counters and must walk the strictly
    increasing global class order (dragonfly, flattened butterfly, full
    mesh).

``"dateline"``
    The torus-style assignment for ring links: each ring dimension has a
    *dateline* (its wrap-around link), crossing it bumps the buffer class,
    and dimension-order legs visit ``(leg, dimension, crossed)`` classes in
    lexicographically increasing order.  Topologies declaring this schedule
    implement :meth:`Topology.ring_vc` / :meth:`Topology.commit_ring_hop`,
    which the routing layer calls instead of the path-stage formula.

``"up_down"``
    The fat-tree assignment: the VC is a pure function of the output
    port's *direction* — up hops ride VC 0, down hops VC 1 — published as
    the port-indexed table :attr:`Topology.updown_port_vcs`.  Paths climb
    to an ancestor and descend exactly once (a single turn); because every
    ``(direction, link level)`` buffer class is visited in strictly
    ascending rank order (up hops on ascending link levels, down hops on
    descending levels but *ascending* class rank), the channel dependency
    graph is acyclic with no dateline machinery.  Checked by
    :func:`repro.routing.deadlock.validate_updown_shapes`.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import draws

__all__ = ["PortKind", "PathModel", "Topology"]

#: "Not computed yet" in the byte-sized router-pair tables.
_UNSET = 0xFF
#: The peer table's "not read yet" and "no link" entries.
_PEER_UNSET, _NO_LINK = -1, -2


class PortKind(enum.Enum):
    """Classification of a router port."""

    INJECTION = "injection"
    LOCAL = "local"
    GLOBAL = "global"


def _concat_paths(
    firsts: Tuple[Tuple[str, ...], ...],
    seconds: Tuple[Tuple[str, ...], ...],
) -> Tuple[Tuple[str, ...], ...]:
    """Valiant shapes: every first leg alone (intermediate == destination
    router) plus every first+second concatenation."""
    seen: List[Tuple[str, ...]] = []
    for first in firsts:
        if first and first not in seen:
            seen.append(first)
        for second in seconds:
            combined = first + second
            if combined and combined not in seen:
                seen.append(combined)
    return tuple(seen)


@dataclass(frozen=True)
class PathModel:
    """Hop-class description of a topology's paths.

    The hop-kind sequences (tuples of ``"local"`` / ``"global"`` strings in
    path order) enumerate the canonical shapes of router-to-router paths:
    ``minimal_hop_kinds`` covers every minimal path, ``valiant_hop_kinds``
    every Valiant path (minimal to the intermediate router, then minimal to
    the destination).  :func:`repro.routing.deadlock.validate_hop_sequences`
    checks that the path-stage VC assignment walks strictly increasing
    buffer classes along each of them within a given VC budget, which is the
    topology-generic deadlock-freedom argument.
    """

    #: Topology registry name (``"dragonfly"``, ``"flattened_butterfly"``...).
    topology: str
    #: Whether the topology has GLOBAL-kind ports at all (the full mesh
    #: does not; its entire radix is injection + local).
    has_global_ports: bool
    #: Maximum router-to-router hops on any minimal path.
    max_minimal_hops: int
    #: Maximum router-to-router hops on any Valiant path.
    max_valiant_hops: int
    #: Canonical hop-kind sequences of minimal paths (excluding the empty
    #: same-router path).
    minimal_hop_kinds: Tuple[Tuple[str, ...], ...]
    #: Canonical hop-kind sequences of Valiant paths.
    valiant_hop_kinds: Tuple[Tuple[str, ...], ...] = field(default=())
    #: Whether an in-transit adaptive policy is defined for this topology;
    #: :attr:`vc_schedule` picks which, the one proven deadlock-free under
    #: it (see :mod:`repro.routing.adaptive`): the MM+L group policy on
    #: ``path_stage`` (Dragonfly, flattened butterfly), the ring escape on
    #: ``dateline`` (torus) and the uplink multipath on ``up_down`` (fat
    #: tree).  Mechanisms that need one fail loudly at construction without.
    supports_in_transit_adaptive: bool = False
    #: Canonical hop-kind sequences of the group-style in-transit adaptive
    #: paths (MM+L global misroute, local proxy hop, local detours) on
    #: path-stage topologies.  Validated at construction for every
    #: in-transit adaptive mechanism, on top of the MIN/Valiant shapes.
    adaptive_hop_kinds: Tuple[Tuple[str, ...], ...] = field(default=())
    #: Which VC schedule the topology's paths are deadlock-free under:
    #: ``"path_stage"`` (strictly increasing buffer classes derived from hop
    #: counters) or ``"dateline"`` (ring topologies; dateline crossings bump
    #: the class, see :func:`repro.routing.deadlock.validate_dateline_shapes`).
    vc_schedule: str = "path_stage"
    #: For the dateline schedule only: canonical class sequences of minimal
    #: paths.  Each shape is a tuple of ``(leg, dimension, crossed)`` buffer
    #: classes in path order; consecutive hops may stay in the same class
    #: (a packet traversing a ring occupies one class until the dateline),
    #: so the declared classes are the *distinct* classes in visit order.
    dateline_minimal_shapes: Tuple[Tuple[Tuple[int, int, int], ...], ...] = field(
        default=()
    )
    #: For the dateline schedule only: canonical class sequences of Valiant
    #: paths (first leg to the intermediate router, second leg to the
    #: destination — the second leg uses the disjoint higher class block).
    dateline_valiant_shapes: Tuple[Tuple[Tuple[int, int, int], ...], ...] = field(
        default=()
    )
    #: For the dateline schedule only: canonical class sequences of the
    #: ring-escape in-transit adaptive paths.  An escape changes only the
    #: *length* of a ring traversal (up to ``k - 1`` links instead of
    #: ``k // 2``), not its class structure, so on the torus these equal the
    #: minimal shapes; the extended dateline validator re-checks them with
    #: the longer traversal bound against :attr:`ring_lengths`.
    dateline_adaptive_shapes: Tuple[Tuple[Tuple[int, int, int], ...], ...] = field(
        default=()
    )
    #: For the dateline schedule only: the ring length of every dimension,
    #: so the validator can prove the declared worst-case traversals never
    #: cover a whole ring and close its dependency cycle.
    ring_lengths: Tuple[int, ...] = field(default=())
    #: For the dateline schedule only: per-dimension worst-case links one
    #: *minimal-direction* traversal covers (``k // 2`` under shortest-way
    #: dimension-order routing).  A declaration of the routing policy's
    #: runtime behavior, checked against :attr:`ring_lengths` — not derived
    #: from it — so a policy whose traversals could wrap a whole ring fails
    #: loudly at construction instead of shipping the deadlock.
    dateline_max_ring_hops: Tuple[int, ...] = field(default=())
    #: For the dateline schedule only: per-dimension worst-case links one
    #: *escaped* traversal covers (``k - 1`` for the committed
    #: single-direction long way).  Same contract as
    #: :attr:`dateline_max_ring_hops`; an escape variant allowed to flip
    #: direction mid-ring would have to declare ``k`` or more and be
    #: rejected.
    dateline_adaptive_max_ring_hops: Tuple[int, ...] = field(default=())
    #: For the up/down schedule only: number of *link levels* (``levels-1``
    #: for a k-ary n-tree; link level ``l`` joins router levels ``l`` and
    #: ``l + 1``).
    updown_link_levels: int = 0
    #: For the up/down schedule only: canonical class sequences of minimal
    #: paths.  Each shape is a tuple of ``(direction, link_level)`` classes
    #: in path order (direction 0 = up, 1 = down); the validator requires
    #: strictly ascending class ranks (up level ``l`` has rank ``l``, down
    #: level ``l`` rank ``2 * L - l - 1``), which forces ascending up legs,
    #: a single turn, and descending down legs.
    updown_minimal_shapes: Tuple[Tuple[Tuple[int, int], ...], ...] = field(
        default=()
    )
    #: For the up/down schedule only: canonical class sequences of Valiant
    #: paths.  The intermediate is a root, so these are the full-height
    #: minimal shapes — Valiant changes which ancestor is reached, never
    #: the up-then-down structure, so no extra VCs are needed.
    updown_valiant_shapes: Tuple[Tuple[Tuple[int, int], ...], ...] = field(
        default=()
    )
    #: For the up/down schedule only: canonical class sequences of the
    #: uplink-multipath adaptive paths.  A diverted up hop is equal-cost,
    #: so these equal the minimal shapes.
    updown_adaptive_shapes: Tuple[Tuple[Tuple[int, int], ...], ...] = field(
        default=()
    )

    @classmethod
    def from_minimal_paths(
        cls,
        topology: str,
        minimal_hop_kinds: Tuple[Tuple[str, ...], ...],
        *,
        valiant_first_legs: Optional[Tuple[Tuple[str, ...], ...]] = None,
        supports_in_transit_adaptive: bool = False,
        adaptive_hop_kinds: Tuple[Tuple[str, ...], ...] = (),
        vc_schedule: str = "path_stage",
        dateline_minimal_shapes: Tuple[
            Tuple[Tuple[int, int, int], ...], ...
        ] = (),
        dateline_valiant_shapes: Tuple[
            Tuple[Tuple[int, int, int], ...], ...
        ] = (),
        dateline_adaptive_shapes: Tuple[
            Tuple[Tuple[int, int, int], ...], ...
        ] = (),
        ring_lengths: Tuple[int, ...] = (),
        dateline_max_ring_hops: Tuple[int, ...] = (),
        dateline_adaptive_max_ring_hops: Tuple[int, ...] = (),
    ) -> "PathModel":
        """Derive the full model from the minimal path shapes.

        Valiant paths are the concatenations of a *first leg* (source to
        intermediate router) and a minimal second leg.  Because the Valiant
        intermediate is drawn outside the source region, the first leg is
        never a pure intra-region (all-local) path on topologies with more
        than one router per region; ``valiant_first_legs`` defaults to the
        minimal shapes with pure-local sequences removed whenever a mixed
        shape exists.
        """
        if valiant_first_legs is None:
            non_local = tuple(
                seq for seq in minimal_hop_kinds if "global" in seq
            )
            valiant_first_legs = non_local if non_local else minimal_hop_kinds
        valiant = _concat_paths(valiant_first_legs, minimal_hop_kinds)
        has_global = any("global" in seq for seq in minimal_hop_kinds)
        return cls(
            topology=topology,
            has_global_ports=has_global,
            max_minimal_hops=max((len(s) for s in minimal_hop_kinds), default=0),
            max_valiant_hops=max((len(s) for s in valiant), default=0),
            minimal_hop_kinds=minimal_hop_kinds,
            valiant_hop_kinds=valiant,
            supports_in_transit_adaptive=supports_in_transit_adaptive,
            adaptive_hop_kinds=adaptive_hop_kinds,
            vc_schedule=vc_schedule,
            dateline_minimal_shapes=dateline_minimal_shapes,
            dateline_valiant_shapes=dateline_valiant_shapes,
            dateline_adaptive_shapes=dateline_adaptive_shapes,
            ring_lengths=ring_lengths,
            dateline_max_ring_hops=dateline_max_ring_hops,
            dateline_adaptive_max_ring_hops=dateline_adaptive_max_ring_hops,
        )


class Topology(ABC):
    """Static description of an interconnection network.

    Routers are identified by integers in ``[0, num_routers)`` and compute
    nodes by integers in ``[0, num_nodes)``.  Every router exposes
    ``router_radix`` ports identified by integers in ``[0, router_radix)``.

    **What a topology writes.**  The sizes, the port classification, the
    node map, the regions and the route table are this class's: a concrete
    topology sets :attr:`port_kinds` — a tuple mapping port index to
    :class:`PortKind`, identical on every router, which the routing hot
    paths index directly instead of calling :meth:`port_kind` — and calls
    :meth:`__init__` with its numbers, then defines its wiring
    (:meth:`neighbor`) and the first hop between two routers
    (:meth:`_route_port`).

    **One node map.**  ``_node_rid[n]`` is the router of node ``n``: by
    default ``n // nodes_per_router`` (every router attaches
    ``nodes_per_router`` nodes in id order); a topology whose nodes sit on
    some routers only (the fat tree's leaves) passes its own map.  Either
    way a router attaches ``nodes_per_router`` consecutive nodes or none,
    and node ``n`` sits on port ``n % nodes_per_router``.  The routing
    layer and the SoA core read the same tuple.

    **One body per query, from tables.**  :meth:`minimal_output_port`
    reads one dense ``num_routers ** 2`` byte route table, filled on a miss
    by the topology's :meth:`_route_port` (a port index fits a byte;
    :data:`_UNSET` marks an entry not computed yet).
    :meth:`minimal_route_to_router` and :meth:`minimal_router_path` read a
    router-target table of the same shape: the route table itself, or where
    the topology's route rule aims at nodes only (the fat tree funnels
    towards a leaf) a table of its own whose misses fill the target's whole
    column by one breadth-first search over the links.
    :meth:`port_target_region` and those walks read the router behind each
    port from an ``R x radix`` signed column filled on a miss by
    :meth:`neighbor`; :meth:`router_hops` memoises the length of the walk.
    :meth:`valiant_intermediate_router` draws once over
    a declared window of region positions.  No topology overrides these;
    the SoA core reads the same tables while an instance resolves the names
    to the functions below.
    """

    #: Port index -> kind table (set by concrete topologies in ``__init__``).
    port_kinds: Tuple[PortKind, ...]

    def __init__(
        self,
        num_routers: int,
        nodes_per_router: int,
        radix: int,
        num_regions: int,
        path_model: PathModel,
        node_routers: Optional[Sequence[int]] = None,
        valiant_window: Optional[Tuple[int, int]] = None,
        router_targets_by_bfs: bool = False,
    ) -> None:
        """Set the sizes, the node map and the tables.

        ``node_routers`` is the router of every node in node order; without
        it every router attaches ``nodes_per_router`` nodes in id order.
        Regions are ``num_regions`` equal blocks of consecutive router ids
        and of consecutive node ids.  ``valiant_window`` ``(first, width)``
        restricts Valiant intermediates to the positions
        ``[first, first + width)`` of every region, the source's included;
        without it they are every position of every other region.  With
        ``router_targets_by_bfs`` router targets get their own table, filled
        by breadth-first search instead of :meth:`_route_port`.  The hop
        memo stays unallocated until :meth:`router_hops` first runs.
        """
        if radix >= _UNSET:
            raise ValueError(
                f"router radix {radix} does not fit the byte-sized "
                f"route memo (at most {_UNSET - 1} ports)"
            )
        if path_model.max_minimal_hops >= _UNSET:
            raise ValueError(
                f"minimal paths of {path_model.max_minimal_hops} hops do "
                f"not fit the byte-sized hop memo (at most {_UNSET - 1})"
            )
        self._num_routers = num_routers
        self._p = nodes_per_router
        self._radix = radix
        self._num_regions = num_regions
        self._routers_per_region = num_routers // num_regions
        self._path_model = path_model
        if node_routers is None:
            node_routers = (
                node // nodes_per_router
                for node in range(num_routers * nodes_per_router)
            )
        self._node_rid: Tuple[int, ...] = tuple(node_routers)
        self._num_nodes = len(self._node_rid)
        self._route_table = bytearray([_UNSET]) * (num_routers * num_routers)
        self._target_table = (
            bytearray(self._route_table) if router_targets_by_bfs else self._route_table
        )
        self._peer_table = array("q", [_PEER_UNSET]) * (num_routers * radix)
        self._hop_table: Optional[bytearray] = None
        #: ``(first position, width, whether the source region is skipped)``.
        self._valiant_window = (
            (0, self._routers_per_region, True)
            if valiant_window is None
            else (*valiant_window, False)
        )

    # -- Sizes --------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        """Total number of routers."""
        return self._num_routers

    @property
    def num_nodes(self) -> int:
        """Total number of compute nodes."""
        return self._num_nodes

    @property
    def router_radix(self) -> int:
        """Number of ports per router."""
        return self._radix

    @property
    def nodes_per_router(self) -> int:
        """Compute nodes attached to each router that has any."""
        return self._p

    # -- Regions ------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        """Number of regions (Dragonfly groups, butterfly rows, ...)."""
        return self._num_regions

    @property
    def routers_per_region(self) -> int:
        """Routers per region (uniform; regions cover contiguous ids)."""
        return self._routers_per_region

    @property
    def path_model(self) -> PathModel:
        """The hop-class path model of this topology."""
        return self._path_model

    def router_region(self, router: int) -> int:
        """Region of ``router`` (regions are contiguous id blocks)."""
        return router // self.routers_per_region

    def router_position(self, router: int) -> int:
        """Position of ``router`` within its region."""
        return router % self._routers_per_region

    def node_region(self, node: int) -> int:
        """Region of the router that ``node`` attaches to (regions cover
        contiguous, equal node ranges)."""
        return node // (self.num_nodes // self.num_regions)

    def region_routers(self, region: int) -> List[int]:
        """Routers of ``region`` in ascending id order."""
        base = region * self.routers_per_region
        return list(range(base, base + self.routers_per_region))

    def region_node_range(self, region: int) -> Tuple[int, int]:
        """Half-open node-id range ``[low, high)`` of ``region``."""
        nodes_per_region = self.num_nodes // self.num_regions
        low = region * nodes_per_region
        return low, low + nodes_per_region

    def region_nodes(self, region: int) -> List[int]:
        low, high = self.region_node_range(region)
        return list(range(low, high))

    #: Offset used by the ``ADV+h`` pattern name (the paper's hardest
    #: adversarial shift).  Topologies without a distinguished offset keep 1.
    @property
    def hard_adversarial_offset(self) -> int:
        return 1

    # -- Node / router mapping ----------------------------------------------
    def node_router(self, node: int) -> int:
        """Router to which ``node`` is attached."""
        return self._node_rid[node]

    def node_port(self, node: int) -> int:
        """Injection/ejection port index of ``node`` at its router."""
        return node % self._p

    def router_nodes(self, router: int) -> List[int]:
        """Compute nodes attached to ``router``: ``nodes_per_router``
        consecutive ids, or none."""
        try:
            first = self._node_rid.index(router)
        except ValueError:
            return []
        return list(range(first, first + self._p))

    # -- Ports --------------------------------------------------------------
    def port_kind(self, port: int) -> PortKind:
        """Classify port ``port`` (same layout on every router)."""
        if 0 <= port < self._radix:
            return self.port_kinds[port]
        raise ValueError(f"port {port} out of range [0, {self._radix})")

    @property
    def injection_ports(self) -> range:
        """The ports nodes attach to: ``[0, nodes_per_router)``."""
        return range(0, self._p)

    @abstractmethod
    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        """Return ``(neighbor_router, neighbor_port)`` reached through ``port``.

        Returns ``None`` for injection/ejection ports (they connect to a
        node, not to another router), and for unconnected ports (see
        :meth:`port_connected`).
        """

    def port_connected(self, router: int, port: int) -> bool:
        """Whether non-injection port ``port`` of ``router`` has a link.

        Flat topologies wire every non-injection port, so the default is
        True.  Topologies with a uniform port layout but position-dependent
        wiring (the fat tree: leaf switches have no children, roots no
        parents) override this; :meth:`neighbor` returns ``None`` exactly
        where this returns False, and validation plus the fault machinery
        skip such ports instead of flagging a broken link.
        """
        return True

    def _link_peer(self, router: int, port: int) -> int:
        """Router that ``port`` of ``router`` links to (:data:`_NO_LINK`
        where it has none), from the peer table, filled on a miss by
        :meth:`neighbor`."""
        if not 0 <= port < self._radix:
            raise ValueError(f"port {port} out of range [0, {self._radix})")
        key = router * self._radix + port
        peer = self._peer_table[key]
        if peer == _PEER_UNSET:
            nbr = self.neighbor(router, port)
            peer = self._peer_table[key] = _NO_LINK if nbr is None else nbr[0]
        return peer

    def port_target_region(self, router: int, port: int) -> int:
        """Region of the router reached through ``port`` of ``router`` (the
        Valiant leg and the MM+L misroute ask it of every global port)."""
        peer = self._link_peer(router, port)
        if peer == _NO_LINK:
            raise ValueError(
                f"port {port} of router {router} is an injection port or has no link"
            )
        return peer // self._routers_per_region

    # -- Routing helpers ----------------------------------------------------
    def minimal_output_port(self, router: int, dst_node: int) -> int:
        """Output port of ``router`` on the minimal path towards ``dst_node``:
        its ejection port at the node's own router, else the route table's
        entry for the node's router."""
        dst_router = self._node_rid[dst_node]
        if router == dst_router:
            return dst_node % self._p
        key = router * self._num_routers + dst_router
        port = self._route_table[key]
        if port == _UNSET:
            port = self._route_table[key] = self._route_port(router, dst_router)
        return port

    @abstractmethod
    def _route_port(self, router: int, dst_router: int) -> int:
        """What the route table caches: the first hop of the minimal path
        between two distinct routers."""

    def minimal_route_to_router(self, router: int, dst_router: int) -> int:
        """Output port on the minimal path from ``router`` towards ``dst_router``.

        Unlike :meth:`minimal_output_port` the destination is a *router*;
        used by Valiant routing to reach the intermediate router.  Raises if
        ``router == dst_router`` (there is no hop to take).
        """
        if router == dst_router:
            raise ValueError("already at the destination router")
        key = router * self._num_routers + dst_router
        table = self._target_table
        port = table[key]
        if port == _UNSET:
            fill = self._route_port if table is self._route_table else self._target_port
            port = table[key] = fill(router, dst_router)
        return port

    def _target_port(self, router: int, target: int) -> int:
        """What a router-target table of its own caches: fills its column
        ``target`` from one breadth-first search over the links — every
        router's entry is its smallest port one hop closer to ``target`` —
        and returns the entry of ``router``."""
        R = self._num_routers
        links = [
            [
                (port, peer)
                for port in range(self._p, self._radix)
                if (peer := self._link_peer(r, port)) != _NO_LINK
            ]
            for r in range(R)
        ]
        dist = [-1] * R
        dist[target] = 0
        frontier = [target]
        while frontier:
            reached = []
            for r in frontier:
                for _, peer in links[r]:
                    if dist[peer] < 0:
                        dist[peer] = dist[r] + 1
                        reached.append(peer)
            frontier = reached
        for r in range(R):
            if r == target:
                continue
            for port, peer in links[r]:
                if dist[peer] == dist[r] - 1:
                    self._target_table[r * R + target] = port
                    break
            else:
                raise ValueError(f"no link path joins router {r} to router {target}")
        return self._target_table[router * R + target]

    def minimal_router_path(self, src_router: int, dst_router: int) -> List[int]:
        """Sequence of routers (inclusive) on the minimal path between
        routers, walked over the router-target and peer tables."""
        path = [src_router]
        r = src_router
        while r != dst_router:
            r = self._link_peer(r, self.minimal_route_to_router(r, dst_router))
            path.append(r)
            if r == _NO_LINK or len(path) > self._path_model.max_minimal_hops + 1:
                raise RuntimeError(
                    f"no minimal path of at most {self._path_model.max_minimal_hops} "
                    f"hops joins router {src_router} to router {dst_router}"
                )
        return path

    def router_hops(self, src_router: int, dst_router: int) -> int:
        """Router-to-router hops of the minimal path between two routers,
        ``len(minimal_router_path(src, dst)) - 1``, memoised in a byte table
        allocated on the first call."""
        R = self._num_routers
        table = self._hop_table
        if table is None:
            table = self._hop_table = bytearray([_UNSET]) * (R * R)
        key = src_router * R + dst_router
        hops = table[key]
        if hops == _UNSET:
            hops = table[key] = len(self.minimal_router_path(src_router, dst_router)) - 1
        return hops

    def valiant_intermediate_router(self, source_router: int, rng) -> int:
        """Uniformly random Valiant intermediate router for ``source_router``.

        Draws uniformly over the declared window (see :meth:`__init__`): by
        default the routers *outside* the source region — on path-stage and
        dateline topologies the VC schedules prove exactly the
        source->intermediate->destination shapes that such a choice
        produces.  A topology whose deadlock argument needs a structurally
        constrained intermediate declares a narrower window (the fat tree's
        is its *roots*, so both Valiant legs keep the up-then-down shape).

        Consumes exactly one draw from ``rng``; the draw count and order
        are part of the determinism contract.
        """
        first, width, skip_source = self._valiant_window
        rpr = self._routers_per_region
        choice = draws.integers(rng, 0, (self._num_regions - skip_source) * width)
        region, position = divmod(choice, width)
        if skip_source and region >= source_router // rpr:
            region += 1
        return region * rpr + first + position

    # -- Dateline VC schedule (ring topologies only) -------------------------
    def ring_vc(self, packet, router: int, port: int) -> int:
        """Virtual channel for ``packet``'s next hop through ring ``port``.

        Only meaningful on topologies whose path model declares
        ``vc_schedule == "dateline"`` (the torus): the VC encodes the
        packet's Valiant leg and whether its current ring traversal has
        crossed the dimension's dateline.  The routing layer calls this
        instead of the path-stage formula whenever the schedule is declared.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare the dateline VC schedule"
        )

    def commit_ring_hop(self, packet, router: int, port: int) -> None:
        """Update ``packet``'s ring/dateline state after a granted hop.

        Called exactly once per granted non-ejection hop on dateline
        topologies (from :meth:`repro.routing.base.RoutingAlgorithm.on_grant`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare the dateline VC schedule"
        )

    # -- Up/down VC schedule (fat tree only) ---------------------------------
    @property
    def updown_port_vcs(self) -> Tuple[int, ...]:
        """Port-indexed VC table of the up/down schedule.

        Only meaningful on topologies whose path model declares
        ``vc_schedule == "up_down"`` (the fat tree): entry ``port`` is the
        VC every packet must ride when leaving through ``port`` (injection
        and up ports 0, down ports 1).  The routing layer indexes this
        table instead of the path-stage formula whenever the schedule is
        declared.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare the up/down VC schedule"
        )

    @property
    def uplink_ports(self) -> Tuple[int, ...]:
        """Ports that climb towards the roots (uniform across routers).

        Only meaningful for the uplink multipath
        (:attr:`PathModel.supports_in_transit_adaptive` on ``up_down``): the
        adaptive candidate set at a router whose minimal port is one of
        these is the *rest* of them (see
        :func:`repro.routing.misrouting.compute_uplink_candidates`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not declare uplink ports (required "
            "for the uplink-multipath adaptive policy only)"
        )

    # -- Validation ---------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants (bidirectional links, port kinds).

        Raises ``AssertionError`` on an inconsistent topology.  Intended for
        tests and for validating new topology implementations.
        """
        assert len(self.port_kinds) == self.router_radix
        assert self.num_routers == self.num_regions * self.routers_per_region
        assert self.num_nodes % self.num_regions == 0
        assert self.num_nodes == sum(
            len(self.router_nodes(r)) for r in range(self.num_routers)
        )
        for r in range(self.num_routers):
            for port in range(self.router_radix):
                kind = self.port_kind(port)
                assert self.port_kinds[port] is kind
                nbr = self.neighbor(r, port)
                if kind is PortKind.INJECTION:
                    assert nbr is None, (
                        f"injection port {port} of router {r} must not have a "
                        f"router neighbor, got {nbr}"
                    )
                    continue
                if not self.port_connected(r, port):
                    assert nbr is None, (
                        f"port {port} of router {r} is declared unconnected "
                        f"but has a neighbor {nbr}"
                    )
                    continue
                assert nbr is not None, (
                    f"non-injection port {port} of router {r} has no neighbor"
                )
                nr, nport = nbr
                assert 0 <= nr < self.num_routers
                assert self.port_kind(nport) is kind, (
                    f"link {r}:{port} -> {nr}:{nport} joins ports of different kinds"
                )
                back = self.neighbor(nr, nport)
                assert back == (r, port), (
                    f"link {r}:{port} -> {nr}:{nport} is not bidirectional "
                    f"(reverse resolves to {back})"
                )
                assert self.port_target_region(r, port) == self.router_region(nr)
        for n in range(self.num_nodes):
            r = self.node_router(n)
            assert 0 <= r < self.num_routers
            assert n in self.router_nodes(r)
            assert self.port_kind(self.node_port(n)) is PortKind.INJECTION
            assert self.node_region(n) == self.router_region(r)
