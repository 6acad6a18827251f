"""k-ary n-tree (fat tree) topology with up/down virtual channels.

A k-ary n-tree has ``levels`` router levels of ``m = k**(levels-1)``
switches each: level 0 holds the *leaf* switches (the only ones with
compute nodes, ``p`` per leaf), level ``levels-1`` the *roots*.  A switch
is addressed ``<level, w>`` where ``w`` in ``[0, m)`` is written in base-k
digits ``w = (d_{levels-2}, ..., d_1, d_0)``; up port ``j`` of ``<l, w>``
connects to ``<l+1, w[l := j]>`` (an up hop rewrites digit ``l``), so
``<l, w>`` is an ancestor of exactly the leaves sharing its digits at
positions ``>= l`` — a contiguous block of ``k**l`` leaves.

Port layout (identical on every switch)::

    [0, p)            injection / ejection ports
    [p, p + k)        down ports (child j), unconnected on the leaf level
    [p + k, p + 2k)   up ports (parent j), unconnected on the root level

All tree ports carry the LOCAL kind — a fat tree is an indirect network
with no global links.  The radix is uniform but the wiring is not: leaf
down ports and root up ports have no link (:meth:`FatTreeTopology.port_connected`).

Router ids are *region-major*: the ``k`` most-significant-digit subtrees
are the topology's regions (the fat-tree analogue of Dragonfly groups),
and each region's ``levels * k**(levels-2)`` switches occupy one
contiguous id block, level by level, as the region contract requires.
``ADV+i`` therefore shifts every node's traffic ``i`` subtrees over; under
destination-funneled minimal routing that concentrates each leaf's load on
a single uplink (the subtree hotspot), which is exactly the pattern the
adaptive uplink multipath is measured against, so ``ADV+h`` keeps the
default offset 1.

Only the leaves carry nodes (node ``n`` on leaf ``n // p``): the tree
hands that node map to :class:`~repro.topology.base.Topology`, whose node
queries, region node ranges and route-table reads then serve it like any
other topology's.

Minimal routing is destination-funneled up/down: a switch that is not an
ancestor of the destination leaf climbs through up port
``digit_level(dst_leaf)``; an ancestor descends through down port
``digit_{level-1}(dst_leaf)`` (forced — the down path is unique); the leaf
ejects.  Every uplink of a switch below the destination's nearest common
ancestor is *equal-cost* (an up hop rewrites a digit the descent will
rewrite again), which is what the uplink-multipath adaptive policy
(:mod:`repro.routing.adaptive`, the ``up_down`` port table) exploits:
the candidate set at an up hop is simply *the other uplinks*, derived from
the port layout, not coordinates.

The destination-digit rule is the fat tree's ``_route_port``: it fills
the router-pair route table of :class:`~repro.topology.base.Topology` for
leaf destinations, which is all :meth:`minimal_output_port` asks for.
Router-to-router targets (Valiant steering, UGAL path estimates) cannot
reuse the digit rule — it funnels towards a leaf — so the tree asks the
base for a router-target table of its own, filled per target by a BFS over
the tree links (smallest-port tie-break).  The Valiant window is the
*roots* (the last ``k**(levels-2)`` positions of every region): every root
is an ancestor of every leaf, so both Valiant legs keep the up-then-down
shape and need no extra VCs.

Up/down VC schedule
-------------------
Tree paths climb to an ancestor and descend exactly once, so the VC is a
pure function of the output port — up hops ride VC 0, down hops VC 1
(:attr:`FatTreeTopology.updown_port_vcs`).  Each hop occupies the buffer
class ``(direction, link_level)``; ranking up link level ``l`` as ``l``
and down link level ``l`` as ``2L - 1 - l`` makes every legal path visit
strictly ascending ranks (up legs climb, the single turn happens where
every down rank exceeds every up rank, down legs descend levels in
ascending rank), so the channel dependency graph is acyclic with no
dateline machinery.  :func:`repro.routing.deadlock.validate_updown_shapes`
re-proves this at construction time for every shape the path model declares.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config.parameters import FatTreeConfig
from repro.topology.base import PathModel, PortKind, Topology

__all__ = ["FatTreeTopology"]


def _updown_shapes(link_levels: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Canonical (direction, link_level) class sequences of tree paths.

    One shape per turn height ``h``: up through link levels ``0..h-1``,
    then down through ``h-1..0``.  Every real path is exactly one of these
    (minimal and Valiant paths differ only in which ancestor they turn at).
    """
    return tuple(
        tuple((0, lvl) for lvl in range(h))
        + tuple((1, lvl) for lvl in reversed(range(h)))
        for h in range(1, link_levels + 1)
    )


class FatTreeTopology(Topology):
    """k-ary n-tree with destination-funneled up/down minimal routing."""

    def __init__(self, config: FatTreeConfig):
        self.config = config
        self._k = config.k
        self._levels = config.levels
        self._m = config.switches_per_level
        # Region geometry: the k most-significant-digit subtrees, each a
        # contiguous id block of ``levels * B`` switches (B leaves apiece).
        self._B = self._k ** (self._levels - 2)
        self._pow_k = tuple(self._k ** i for i in range(self._levels))
        link_levels = self._levels - 1
        shapes = _updown_shapes(link_levels)
        # Leaf-to-leaf minimal paths have even lengths (h up, h down), but
        # router-anchored walks (router targets, Valiant legs) also expose
        # the partial all-up / all-down prefixes, so every length up to the
        # diameter is a declared hop-kind sequence.
        minimal_kinds = tuple(
            ("local",) * n for n in range(1, 2 * link_levels + 1)
        )
        # Valiant turns at a root, so its shapes are the full-height
        # minimal shape; a granted uplink divert is equal-cost, so the
        # adaptive shapes equal the minimal ones.  Only the leaves carry
        # nodes: node ``n`` sits on leaf ``n // p``.  The roots close every
        # region's id block.
        leaves = [self._rid_of(0, w) for w in range(self._m)]
        super().__init__(
            config.num_routers,
            config.p,
            config.router_radix,
            self._k,
            PathModel(
                topology="fat_tree",
                has_global_ports=False,
                max_minimal_hops=2 * link_levels,
                max_valiant_hops=2 * link_levels,
                minimal_hop_kinds=minimal_kinds,
                valiant_hop_kinds=minimal_kinds,
                supports_in_transit_adaptive=True,
                vc_schedule="up_down",
                updown_link_levels=link_levels,
                updown_minimal_shapes=shapes,
                updown_valiant_shapes=(shapes[-1],),
                updown_adaptive_shapes=shapes,
            ),
            node_routers=[rid for rid in leaves for _ in range(config.p)],
            valiant_window=((self._levels - 1) * self._B, self._B),
            router_targets_by_bfs=True,
        )
        self._first_up_port = self._p + self._k
        self.port_kinds: Tuple[PortKind, ...] = tuple(
            PortKind.INJECTION if port < self._p else PortKind.LOCAL
            for port in range(self._radix)
        )
        # rid <-> <level, w> tables (hot paths index these instead of
        # re-deriving the region-major encoding).
        self._rid_level: List[int] = [0] * self._num_routers
        self._rid_label: List[int] = [0] * self._num_routers
        for level in range(self._levels):
            for w in range(self._m):
                rid = self._rid_of(level, w)
                self._rid_level[rid] = level
                self._rid_label[rid] = w
        # Up/down VC table: injection and up ports ride VC 0, down ports
        # VC 1 (pure function of the output port; see module docstring).
        self._updown_port_vcs: Tuple[int, ...] = tuple(
            1 if self._p <= port < self._first_up_port else 0
            for port in range(self._radix)
        )

    # -------------------------------------------------------------- addressing
    def _rid_of(self, level: int, w: int) -> int:
        """Region-major router id of switch ``<level, w>``."""
        region, t = divmod(w, self._B)
        return (region * self._levels + level) * self._B + t

    # ------------------------------------------------------------------- ports
    @property
    def downlink_ports(self) -> range:
        return range(self._p, self._first_up_port)

    @property
    def uplink_ports(self) -> range:
        return range(self._first_up_port, self._radix)

    @property
    def local_ports(self) -> range:
        return range(self._p, self._radix)

    @property
    def global_ports(self) -> range:
        return range(0)

    @property
    def updown_port_vcs(self) -> Tuple[int, ...]:
        return self._updown_port_vcs

    def port_connected(self, router: int, port: int) -> bool:
        """Leaf down ports and root up ports exist but carry no link."""
        level = self._rid_level[router]
        if self._p <= port < self._first_up_port:
            return level > 0
        if self._first_up_port <= port < self._radix:
            return level < self._levels - 1
        return True

    # --------------------------------------------------------------- neighbors
    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        level = self._rid_level[router]
        w = self._rid_label[router]
        if self._first_up_port <= port < self._radix:
            if level == self._levels - 1:
                return None  # roots have no parents
            j = port - self._first_up_port
            pk = self._pow_k[level]
            digit = (w // pk) % self._k
            parent = w + (j - digit) * pk
            # The parent's down port back to us is our digit at its level.
            return self._rid_of(level + 1, parent), self._p + digit
        if self._p <= port < self._first_up_port:
            if level == 0:
                return None  # leaves have no children
            j = port - self._p
            pk = self._pow_k[level - 1]
            digit = (w // pk) % self._k
            child = w + (j - digit) * pk
            # The child's up port back to us is our digit at its level - 1.
            return self._rid_of(level - 1, child), self._first_up_port + digit
        return None

    # ----------------------------------------------------------------- routing
    def _route_port(self, router: int, dst_router: int) -> int:
        """Destination-funneled up/down output port towards leaf ``dst_router``
        (the router of the node :meth:`minimal_output_port` was asked for;
        router targets go through :meth:`minimal_route_to_router`)."""
        level = self._rid_level[router]
        w = self._rid_label[router]
        wd = self._rid_label[dst_router]
        pk = self._pow_k[level]
        if w // pk == wd // pk:
            # Ancestor of the destination leaf: descend, digit by digit —
            # the down path is unique.
            return self._p + (wd // self._pow_k[level - 1]) % self._k
        # Not an ancestor: climb.  Funnel through the destination's digit
        # at this level (any uplink would be equal-cost; the deterministic
        # funnel is what the adaptive multipath spreads out).
        return self._first_up_port + (wd // pk) % self._k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FatTreeTopology(p={self._p}, k={self._k}, "
            f"levels={self._levels}, nodes={self.num_nodes})"
        )
