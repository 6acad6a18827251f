"""k-ary n-cube (torus) topology with dateline virtual channels.

Routers sit on an ``n``-dimensional grid (``n`` in {2, 3}) with wrap-around
links: dimension ``d`` joins routers into rings of length ``dims[d]``.
Router ids are row-major with dimension 0 fastest::

    id = x0 + dims[0] * (x1 + dims[1] * x2)

Port layout (identical on every router)::

    [0, p)           injection / ejection ports
    p + 2*d          ring port of dimension d, plus direction  (coord + 1)
    p + 2*d + 1      ring port of dimension d, minus direction (coord - 1)

All ring ports carry the LOCAL kind — a torus is a direct network with no
global links (like the full mesh, its entire radix is injection + local).

Regions are *slabs of the last dimension*: all routers sharing the last
coordinate.  With row-major ids a slab is a contiguous router-id block, as
the region contract requires; ``ADV+i`` therefore shifts traffic ``i`` slabs
along the last ring, and ``ADV+h`` resolves to the tornado offset
``dims[-1] // 2`` (the classical worst case for rings: minimal routing
funnels every packet the same way around).

Minimal routing is dimension-ordered (dimension 0 first); within a ring the
shorter direction wins and ties break towards plus.  A packet therefore
takes at most ``dims[d] // 2`` hops per ring, in one fixed direction per
traversal.

Dateline VC schedule
--------------------
The strictly-increasing buffer-class argument of the other topologies
cannot cover rings: a ring's channels form a cycle, so some VC must be
reused around it.  The torus instead declares the classical *dateline*
schedule (Dally & Towles, ch. 14):

* every ring's wrap-around link (coordinate ``k-1 -> 0`` in the plus
  direction, ``0 -> k-1`` in the minus direction) is its **dateline**;
* a packet's hop uses buffer class ``(leg, dim, crossed)`` where ``leg`` is
  its Valiant leg (0 before the intermediate router, 1 after), ``dim`` the
  ring dimension, and ``crossed`` whether the current ring traversal has
  reached the dateline — the wrap hop itself and every later hop in the
  ring use ``crossed = 1``;
* the VC index is ``2 * leg + crossed`` (MIN and UGAL-minimal packets stay
  on leg 0, so plain minimal routing needs only 2 ring VCs and the Valiant
  mechanisms need 4 — the ordinary oblivious local-VC budget).

Along any allowed path the ``(leg, dim, crossed)`` classes are
lexicographically non-decreasing, each class's channels are confined to one
ring where the dateline cut prevents a cycle (a traversal covers at most
``k // 2 < k`` links, so post-dateline channels never wrap back), and
distinct classes are visited in a fixed global order — the channel
dependency graph is acyclic.  :func:`repro.routing.deadlock.validate_dateline_shapes`
re-proves this at construction time for every shape the path model declares.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config.parameters import TorusConfig
from repro.topology.base import PathModel, PortKind, Topology

__all__ = ["TorusTopology"]


def _dateline_shapes(num_dims: int) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """Canonical (leg, dim, crossed) class sequences of torus paths.

    One maximal shape per leg structure: dimension-order legs visit each
    dimension's ``crossed = 0`` then ``crossed = 1`` class.  Every real path
    visits a subsequence of a maximal shape (skipping dimensions that need
    no correction and datelines that are not crossed), and the dateline
    validator's conditions are closed under subsequences.
    """
    minimal = tuple(
        (0, dim, crossed) for dim in range(num_dims) for crossed in (0, 1)
    )
    valiant = minimal + tuple(
        (1, dim, crossed) for dim in range(num_dims) for crossed in (0, 1)
    )
    return (minimal,), (valiant,)


class TorusTopology(Topology):
    """k-ary n-cube with dimension-order minimal routing and dateline VCs."""

    def __init__(self, config: TorusConfig):
        dims = config.dims
        diameter = sum(k // 2 for k in dims)
        minimal_kinds = tuple(("local",) * m for m in range(1, diameter + 1))
        dateline_min, dateline_val = _dateline_shapes(len(dims))
        # The nonminimal ring escape (contention-triggered direction choice,
        # see repro.routing.adaptive) changes only how many links a traversal
        # covers, never its (leg, dim, crossed) class structure — so the
        # escape shapes equal the minimal ones.  The max-ring-hops tuples
        # declare the two policies' runtime worst cases (shortest-way
        # dimension-order routing: k // 2; a committed single-direction
        # escape: the k - 1 long way), which the extended dateline validator
        # checks against the ring lengths at construction.  Regions of a
        # torus are the slabs of its last dimension.
        super().__init__(
            config.num_routers,
            config.p,
            config.router_radix,
            dims[-1],
            PathModel.from_minimal_paths(
                "torus",
                minimal_kinds,
                supports_in_transit_adaptive=True,
                vc_schedule="dateline",
                dateline_minimal_shapes=dateline_min,
                dateline_valiant_shapes=dateline_val,
                dateline_adaptive_shapes=dateline_min,
                ring_lengths=dims,
                dateline_max_ring_hops=tuple(k // 2 for k in dims),
                dateline_adaptive_max_ring_hops=tuple(k - 1 for k in dims),
            ),
        )
        self.config = config
        self._dims = dims
        self._n = len(dims)
        # Row-major strides, dimension 0 fastest.
        strides = []
        stride = 1
        for k in self._dims:
            strides.append(stride)
            stride *= k
        self._strides = tuple(strides)
        self.port_kinds: Tuple[PortKind, ...] = tuple(
            PortKind.INJECTION if port < self._p else PortKind.LOCAL
            for port in range(self._radix)
        )
        # Ring port -> (dimension, direction); direction is +1 or -1.
        self._port_ring: Dict[int, Tuple[int, int]] = {
            self._p + 2 * d + i: (d, +1 if i == 0 else -1)
            for d in range(self._n)
            for i in (0, 1)
        }
        # Port-indexed hot-path table (None for injection ports): the
        # dateline state machine runs once per routed hop, so resolve
        # (dim, stride, ring length, dateline coordinate, direction) in a
        # single list lookup instead of chained dict gets and divmods.  The
        # dateline coordinate is the one whose outgoing hop wraps: k-1 in
        # the plus direction, 0 in the minus direction.
        self._ring_info: List[Optional[Tuple[int, int, int, int, int]]] = [
            None
        ] * self._radix
        for port, (d, direction) in self._port_ring.items():
            wrap_coord = self._dims[d] - 1 if direction == +1 else 0
            self._ring_info[port] = (
                d,
                self._strides[d],
                self._dims[d],
                wrap_coord,
                direction,
            )

    @property
    def hard_adversarial_offset(self) -> int:
        """ADV+h: the tornado offset ``dims[-1] // 2`` of the last ring."""
        return self._dims[-1] // 2

    # -------------------------------------------------------------- addressing
    @property
    def dims(self) -> Tuple[int, ...]:
        """Ring length of each dimension."""
        return self._dims

    def router_coords(self, router: int) -> Tuple[int, ...]:
        """Grid coordinates of ``router`` (dimension 0 first)."""
        coords = []
        for k in self._dims:
            router, c = divmod(router, k)
            coords.append(c)
        return tuple(coords)

    def router_id(self, coords: Tuple[int, ...]) -> int:
        if len(coords) != self._n:
            raise ValueError(f"expected {self._n} coordinates, got {coords}")
        rid = 0
        for c, k, stride in zip(coords, self._dims, self._strides):
            if not 0 <= c < k:
                raise ValueError(f"coordinate {c} out of range [0, {k})")
            rid += c * stride
        return rid

    # ------------------------------------------------------------------- ports
    @property
    def ring_ports(self) -> range:
        return range(self._p, self._radix)

    # Dragonfly-vocabulary aliases used by topology-generic helpers.
    local_ports = ring_ports

    @property
    def global_ports(self) -> range:
        return range(0)

    def ring_port(self, dim: int, direction: int) -> int:
        """Ring port of dimension ``dim`` in ``direction`` (+1 / -1)."""
        if not 0 <= dim < self._n:
            raise ValueError(f"dimension {dim} out of range [0, {self._n})")
        if direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        return self._p + 2 * dim + (0 if direction == +1 else 1)

    def port_dimension(self, port: int) -> Tuple[int, int]:
        """``(dimension, direction)`` of ring ``port``."""
        ring = self._port_ring.get(port)
        if ring is None:
            raise ValueError(f"port {port} is not a ring port")
        return ring

    def opposite_ring_port(self, port: int) -> int:
        """The same dimension's port in the other direction.

        This is the nonminimal ring-escape candidate: diverting a packet
        through it sends it the long way (up to ``k - 1`` links) around the
        ring instead of the shorter minimal direction.
        """
        dim, direction = self.port_dimension(port)
        return self.ring_port(dim, -direction)

    # --------------------------------------------------------------- neighbors
    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        ring = self._port_ring.get(port)
        if ring is None:
            return None
        dim, direction = ring
        k = self._dims[dim]
        stride = self._strides[dim]
        coord = (router // stride) % k
        peer_coord = (coord + direction) % k
        peer = router + (peer_coord - coord) * stride
        # The reverse side of a plus link is the peer's minus port (and
        # vice versa), also in dimension ``dim``.
        return peer, self.ring_port(dim, -direction)

    # ----------------------------------------------------------------- routing
    def ring_direction(self, coord: int, dst_coord: int, k: int) -> int:
        """Shortest ring direction from ``coord`` to ``dst_coord`` (tie: +1)."""
        forward = (dst_coord - coord) % k
        backward = (coord - dst_coord) % k
        return +1 if forward <= backward else -1

    def _route_port(self, router: int, dst_router: int) -> int:
        """Dimension-ordered minimal output port towards ``dst_router``.

        Corrects the lowest differing dimension first, taking the shorter
        way around its ring (ties towards plus).
        """
        r, d = router, dst_router
        for dim, k in enumerate(self._dims):
            r, coord = divmod(r, k)
            d, dst_coord = divmod(d, k)
            if coord != dst_coord:
                return self.ring_port(dim, self.ring_direction(coord, dst_coord, k))
        raise AssertionError("distinct routers must differ in some dimension")

    # ----------------------------------------------------- dateline VC schedule
    def ring_vc(self, packet, router: int, port: int) -> int:
        """Dateline VC for ``packet``'s next hop: ``2 * leg + crossed``.

        ``crossed`` covers the hop itself: the wrap hop and everything after
        it in the current ring traversal use the bumped class.
        """
        dim, stride, k, wrap_coord, _ = self._ring_info[port]
        if (router // stride) % k == wrap_coord or (
            packet.ring_dim == dim and packet.ring_crossed
        ):
            return 2 * packet.vc_leg + 1
        return 2 * packet.vc_leg

    def commit_ring_hop(self, packet, router: int, port: int) -> None:
        """Track the packet's ring traversal state once a hop is granted.

        Entering a new dimension starts a fresh traversal (the dateline
        state of the previous ring does not carry over); the Valiant leg
        bump and its state reset happen on arrival at the intermediate
        router (:meth:`repro.routing.valiant.ValiantRouting.on_packet_arrival`).
        The traversal's direction is recorded on the packet so the
        ring-escape policy can hold a nonminimal traversal to its committed
        direction (re-evaluating it mid-ring could cross the dateline twice
        and void the deadlock argument).
        """
        info = self._ring_info[port]
        if info is None:
            return  # ejection: no ring state to track
        dim, stride, k, wrap_coord, direction = info
        wrap = (router // stride) % k == wrap_coord
        if packet.ring_dim != dim:
            packet.ring_dim = dim
            packet.ring_crossed = wrap
        elif wrap:
            packet.ring_crossed = True
        packet.ring_dir = direction

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(k) for k in self._dims)
        return f"TorusTopology(p={self._p}, dims={dims}, nodes={self.num_nodes})"
