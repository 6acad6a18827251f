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
every router attaches exactly ``nodes_per_router`` nodes in id order
(``node_router(n) == n // nodes_per_router``), and every *region* (see
below) covers ``routers_per_region`` consecutive router ids.

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
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import draws

__all__ = ["PortKind", "PathModel", "Topology"]


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
    #: level ``l`` rank ``2 * L - 1 - l``), which forces ascending up legs,
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
    Implementations must also set :attr:`port_kinds` — a tuple mapping port
    index to :class:`PortKind`, identical on every router — which the
    routing hot paths index directly instead of calling :meth:`port_kind`.
    """

    #: Port index -> kind table (set by concrete topologies in ``__init__``).
    port_kinds: Tuple[PortKind, ...]

    #: Whether node ids are dense across routers (``node_router(n) ==
    #: n // nodes_per_router`` with ``num_nodes == num_routers * p``).
    #: True for every flat topology; the fat tree attaches nodes to its
    #: *leaf* switches only and sets this False, which relaxes the dense
    #: addressing checks in :meth:`validate` (the routing layer resolves
    #: node -> router through :meth:`node_router` either way).
    dense_node_map: bool = True

    # -- Sizes --------------------------------------------------------------
    @property
    @abstractmethod
    def num_routers(self) -> int:
        """Total number of routers."""

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Total number of compute nodes."""

    @property
    @abstractmethod
    def router_radix(self) -> int:
        """Number of ports per router."""

    @property
    @abstractmethod
    def nodes_per_router(self) -> int:
        """Compute nodes attached to each router (uniform across routers)."""

    # -- Regions ------------------------------------------------------------
    @property
    @abstractmethod
    def num_regions(self) -> int:
        """Number of regions (Dragonfly groups, butterfly rows, ...)."""

    @property
    @abstractmethod
    def routers_per_region(self) -> int:
        """Routers per region (uniform; regions cover contiguous ids)."""

    @property
    @abstractmethod
    def path_model(self) -> PathModel:
        """The hop-class path model of this topology."""

    def router_region(self, router: int) -> int:
        """Region of ``router`` (regions are contiguous id blocks)."""
        return router // self.routers_per_region

    def router_position(self, router: int) -> int:
        """Position of ``router`` within its region."""
        return router % self.routers_per_region

    def node_region(self, node: int) -> int:
        """Region of the router that ``node`` attaches to."""
        return self.router_region(self.node_router(node))

    def region_routers(self, region: int) -> List[int]:
        """Routers of ``region`` in ascending id order."""
        base = region * self.routers_per_region
        return list(range(base, base + self.routers_per_region))

    def region_node_range(self, region: int) -> Tuple[int, int]:
        """Half-open node-id range ``[low, high)`` of ``region``."""
        nodes_per_region = self.routers_per_region * self.nodes_per_router
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
    @abstractmethod
    def node_router(self, node: int) -> int:
        """Router to which ``node`` is attached."""

    @abstractmethod
    def node_port(self, node: int) -> int:
        """Injection/ejection port index of ``node`` at its router."""

    @abstractmethod
    def router_nodes(self, router: int) -> List[int]:
        """Compute nodes attached to ``router``."""

    # -- Ports --------------------------------------------------------------
    @abstractmethod
    def port_kind(self, port: int) -> PortKind:
        """Classify port ``port`` (same layout on every router)."""

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

    def port_target_region(self, router: int, port: int) -> int:
        """Region of the router reached through ``port`` of ``router``.

        Topologies may override this with arithmetic faster than the
        generic neighbor lookup (the Valiant hot path calls it for every
        global-port decision).
        """
        nbr = self.neighbor(router, port)
        if nbr is None:
            raise ValueError(f"port {port} is an injection port")
        return self.router_region(nbr[0])

    # -- Routing helpers ----------------------------------------------------
    @abstractmethod
    def minimal_output_port(self, router: int, dst_node: int) -> int:
        """Output port of ``router`` on the minimal path towards ``dst_node``."""

    @abstractmethod
    def minimal_path_length(self, src_node: int, dst_node: int) -> int:
        """Number of router-to-router hops on the minimal path."""

    def minimal_route_to_router(self, router: int, dst_router: int) -> int:
        """Output port on the minimal path from ``router`` towards ``dst_router``.

        Unlike :meth:`minimal_output_port` the destination is a *router*;
        used by Valiant routing to reach the intermediate router.  Raises if
        ``router == dst_router`` (there is no hop to take).
        """
        if router == dst_router:
            raise ValueError("already at the destination router")
        return self.minimal_output_port(router, dst_router * self.nodes_per_router)

    def region_gateway(self, router: int, target_region: int) -> Tuple[int, bool]:
        """Next hop ``(output_port, is_global)`` from ``router`` into
        ``target_region`` along a shortest inter-region route.

        This is what lets the group-style in-transit adaptive policy head
        for the *region* chosen by a global misroute without caring how the
        topology wires regions together: on the Dragonfly the gateway is
        the group's single global link towards the target (possibly behind
        one local hop), on the flattened butterfly it is the router's own
        column link to the target row.  Only required by the group policy
        (:attr:`PathModel.supports_in_transit_adaptive` on ``path_stage``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a region gateway (required "
            "for group-style in-transit adaptive routing only)"
        )

    def minimal_router_path(self, src_router: int, dst_router: int) -> List[int]:
        """Sequence of routers (inclusive) on the minimal path between routers."""
        path = [src_router]
        r = src_router
        if src_router == dst_router:
            return path
        dst_node_proxy = dst_router * self.nodes_per_router
        while r != dst_router:
            port = self.minimal_output_port(r, dst_node_proxy)
            nbr = self.neighbor(r, port)
            assert nbr is not None
            r = nbr[0]
            path.append(r)
            if len(path) > self.path_model.max_minimal_hops + 1:
                raise RuntimeError(
                    "minimal path exceeds the topology's declared diameter"
                )
        return path

    def router_hops(self, src_router: int, dst_router: int) -> int:
        """Router-to-router hops of the minimal path between two routers,
        ``len(minimal_router_path(src, dst)) - 1``; a topology may answer it
        without walking the path (the Dragonfly does)."""
        return len(self.minimal_router_path(src_router, dst_router)) - 1

    def valiant_intermediate_router(self, source_router: int, rng) -> int:
        """Uniformly random Valiant intermediate router for ``source_router``.

        The default draws uniformly over the routers *outside* the source
        region — on path-stage and dateline topologies the VC schedules
        prove exactly the source->intermediate->destination shapes that
        such a choice produces.  Topologies whose deadlock argument needs a
        structurally constrained intermediate override this (the fat tree
        draws a *root*, so both Valiant legs keep the up-then-down shape).

        Consumes exactly one draw from ``rng``; the draw count and order
        are part of the determinism contract.
        """
        rpr = self.routers_per_region
        src_region = self.router_region(source_router)
        choice = draws.integers(rng, 0, self.num_routers - rpr)
        region, position = divmod(choice, rpr)
        if region >= src_region:
            region += 1
        return region * rpr + position

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

    # -- Convenience --------------------------------------------------------
    def is_injection_port(self, port: int) -> bool:
        return self.port_kind(port) is PortKind.INJECTION

    def is_local_port(self, port: int) -> bool:
        return self.port_kind(port) is PortKind.LOCAL

    def is_global_port(self, port: int) -> bool:
        return self.port_kind(port) is PortKind.GLOBAL

    def validate(self) -> None:
        """Check structural invariants (bidirectional links, port kinds).

        Raises ``AssertionError`` on an inconsistent topology.  Intended for
        tests and for validating new topology implementations.
        """
        assert len(self.port_kinds) == self.router_radix
        assert self.num_routers == self.num_regions * self.routers_per_region
        if self.dense_node_map:
            assert self.num_nodes == self.num_routers * self.nodes_per_router
        else:
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
            if self.dense_node_map:
                assert r == n // self.nodes_per_router, (
                    "node ids must be dense per router (node_router(n) == n // p)"
                )
            assert n in self.router_nodes(r)
            assert self.port_kind(self.node_port(n)) is PortKind.INJECTION
            assert self.node_region(n) == self.router_region(r)
