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

Router-to-router targets (Valiant steering, UGAL path estimates) cannot
reuse the node-proxy arithmetic of the dense topologies — nodes live on
leaves only — so they resolve through per-target BFS next-hop tables over
the tree links (smallest-port tie-break).  The Valiant intermediate is
drawn uniformly over the *roots*: every root is an ancestor of every leaf,
so both Valiant legs keep the up-then-down shape and need no extra VCs.

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

from typing import Dict, List, Optional, Tuple

from repro import draws
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

    dense_node_map = False

    def __init__(self, config: FatTreeConfig):
        self.config = config
        self._p = config.p
        self._k = config.k
        self._levels = config.levels
        self._m = config.switches_per_level
        self._num_routers = config.num_routers
        self._num_nodes = config.num_nodes
        self._radix = config.router_radix
        self._first_down_port = self._p
        self._first_up_port = self._p + self._k
        # Region geometry: the k most-significant-digit subtrees, each a
        # contiguous id block of ``levels * B`` switches (B leaves apiece).
        self._B = self._k ** (self._levels - 2)
        self._pow_k = tuple(self._k ** i for i in range(self._levels))
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
        self._leaf_rid: Tuple[int, ...] = tuple(
            self._rid_of(0, w) for w in range(self._m)
        )
        # Level -> connected link ports (leaves have no children, roots no
        # parents); used by the BFS router-target tables.
        down = tuple(range(self._first_down_port, self._first_up_port))
        up = tuple(range(self._first_up_port, self._radix))
        self._level_link_ports: Tuple[Tuple[int, ...], ...] = tuple(
            (up if level == 0 else down + up)
            if level < self._levels - 1
            else down
            for level in range(self._levels)
        )
        # Up/down VC table: injection and up ports ride VC 0, down ports
        # VC 1 (pure function of the output port; see module docstring).
        self._updown_port_vcs: Tuple[int, ...] = tuple(
            1 if self._first_down_port <= port < self._first_up_port else 0
            for port in range(self._radix)
        )
        # Lazy per-target BFS next-hop tables for router-proxy destinations.
        self._router_tables: Dict[int, List[int]] = {}
        link_levels = self._levels - 1
        shapes = _updown_shapes(link_levels)
        # Leaf-to-leaf minimal paths have even lengths (h up, h down), but
        # router-anchored walks (router proxies, Valiant legs) also expose
        # the partial all-up / all-down prefixes, so every length up to the
        # diameter is a declared hop-kind sequence.
        minimal_kinds = tuple(
            ("local",) * n for n in range(1, 2 * link_levels + 1)
        )
        # Valiant turns at a root, so its shapes are the full-height
        # minimal shape; a granted uplink divert is equal-cost, so the
        # adaptive shapes equal the minimal ones.
        self._path_model = PathModel(
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
        )

    # -------------------------------------------------------------- addressing
    def _rid_of(self, level: int, w: int) -> int:
        """Region-major router id of switch ``<level, w>``."""
        region, t = divmod(w, self._B)
        return (region * self._levels + level) * self._B + t

    def router_level(self, router: int) -> int:
        """Level of ``router`` (0 = leaves, ``levels - 1`` = roots)."""
        return self._rid_level[router]

    def router_label(self, router: int) -> int:
        """Base-k switch label ``w`` of ``router`` within its level."""
        return self._rid_label[router]

    def leaf_router(self, leaf: int) -> int:
        """Router id of leaf switch ``<0, leaf>``."""
        return self._leaf_rid[leaf]

    # ------------------------------------------------------------------ sizes
    @property
    def num_routers(self) -> int:
        return self._num_routers

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def router_radix(self) -> int:
        return self._radix

    @property
    def nodes_per_router(self) -> int:
        return self._p

    # Regions of a fat tree are its k most-significant-digit subtrees.
    @property
    def num_regions(self) -> int:
        return self._k

    @property
    def routers_per_region(self) -> int:
        return self._levels * self._B

    @property
    def path_model(self) -> PathModel:
        return self._path_model

    def region_node_range(self, region: int) -> Tuple[int, int]:
        """Nodes of a subtree: its ``B`` leaves times ``p`` nodes each.

        Overrides the dense default (``routers_per_region * p``), which
        would over-count — only the leaf level carries nodes.
        """
        nodes_per_region = self._B * self._p
        low = region * nodes_per_region
        return low, low + nodes_per_region

    # -------------------------------------------------------- node attachment
    def node_router(self, node: int) -> int:
        return self._leaf_rid[node // self._p]

    def node_port(self, node: int) -> int:
        return node % self._p

    def router_nodes(self, router: int) -> List[int]:
        if self._rid_level[router] != 0:
            return []
        base = self._rid_label[router] * self._p
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
    def downlink_ports(self) -> range:
        return range(self._first_down_port, self._first_up_port)

    @property
    def uplink_ports(self) -> range:
        return range(self._first_up_port, self._radix)

    @property
    def local_ports(self) -> range:
        return range(self._first_down_port, self._radix)

    @property
    def global_ports(self) -> range:
        return range(0)

    @property
    def updown_port_vcs(self) -> Tuple[int, ...]:
        return self._updown_port_vcs

    def port_connected(self, router: int, port: int) -> bool:
        """Leaf down ports and root up ports exist but carry no link."""
        level = self._rid_level[router]
        if self._first_down_port <= port < self._first_up_port:
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
            return self._rid_of(level + 1, parent), self._first_down_port + digit
        if self._first_down_port <= port < self._first_up_port:
            if level == 0:
                return None  # leaves have no children
            j = port - self._first_down_port
            pk = self._pow_k[level - 1]
            digit = (w // pk) % self._k
            child = w + (j - digit) * pk
            # The child's up port back to us is our digit at its level - 1.
            return self._rid_of(level - 1, child), self._first_up_port + digit
        return None

    # ----------------------------------------------------------------- routing
    def minimal_output_port(self, router: int, dst_node: int) -> int:
        """Destination-funneled up/down output port towards ``dst_node``.

        ``dst_node`` ids at or above ``num_nodes`` address *router*
        ``dst_node - num_nodes`` (the router-proxy convention of
        :meth:`minimal_route_to_router`) and resolve through the BFS
        next-hop tables; real node ids use digit arithmetic.
        """
        if dst_node >= self._num_nodes:
            return self._router_step(router, dst_node - self._num_nodes)
        level = self._rid_level[router]
        w = self._rid_label[router]
        wd = dst_node // self._p
        pk = self._pow_k[level]
        if w // pk == wd // pk:
            # Ancestor of (or at) the destination leaf: descend, digit by
            # digit — the down path is unique.
            if level == 0:
                return dst_node % self._p
            return self._first_down_port + (wd // self._pow_k[level - 1]) % self._k
        # Not an ancestor: climb.  Funnel through the destination's digit
        # at this level (any uplink would be equal-cost; the deterministic
        # funnel is what the adaptive multipath spreads out).
        return self._first_up_port + (wd // pk) % self._k

    def minimal_path_length(self, src_node: int, dst_node: int) -> int:
        w1 = src_node // self._p
        w2 = dst_node // self._p
        if w1 == w2:
            return 0
        h = 1
        while w1 // self._pow_k[h] != w2 // self._pow_k[h]:
            h += 1
        return 2 * h

    def minimal_route_to_router(self, router: int, dst_router: int) -> int:
        if router == dst_router:
            raise ValueError("already at the destination router")
        return self._router_step(router, dst_router)

    def minimal_router_path(self, src_router: int, dst_router: int) -> List[int]:
        path = [src_router]
        r = src_router
        while r != dst_router:
            nbr = self.neighbor(r, self._router_step(r, dst_router))
            assert nbr is not None
            r = nbr[0]
            path.append(r)
            if len(path) > 2 * (self._levels - 1) + 1:
                raise RuntimeError(
                    "router path exceeds the fat-tree router diameter"
                )
        return path

    def _router_step(self, router: int, dst_router: int) -> int:
        """Next-hop port from ``router`` towards router ``dst_router``."""
        table = self._router_tables.get(dst_router)
        if table is None:
            table = self._build_router_table(dst_router)
            self._router_tables[dst_router] = table
        port = table[router]
        if port < 0:
            raise ValueError("already at the destination router")
        return port

    def _build_router_table(self, target: int) -> List[int]:
        """BFS next-hop table towards ``target`` (smallest-port tie-break).

        Needed because router-to-router shortest paths are not always
        up-then-down (root to root descends first; some same-level pairs
        zigzag), so the node digit rule cannot serve router targets.  Used
        for steering metadata only — Valiant intermediates are roots, whose
        tables degenerate to the unique all-up paths.
        """
        dist = [-1] * self._num_routers
        dist[target] = 0
        frontier = [target]
        while frontier:
            nxt: List[int] = []
            for r in frontier:
                for port in self._level_link_ports[self._rid_level[r]]:
                    nbr = self.neighbor(r, port)
                    assert nbr is not None
                    if dist[nbr[0]] < 0:
                        dist[nbr[0]] = dist[r] + 1
                        nxt.append(nbr[0])
            frontier = nxt
        next_port = [-1] * self._num_routers
        for r in range(self._num_routers):
            if r == target:
                continue
            for port in self._level_link_ports[self._rid_level[r]]:
                nbr = self.neighbor(r, port)
                assert nbr is not None
                if dist[nbr[0]] == dist[r] - 1:
                    next_port[r] = port
                    break
        return next_port

    def valiant_intermediate_router(self, source_router: int, rng) -> int:
        """Draw a uniformly random *root* as the Valiant intermediate.

        Every root is an ancestor of every leaf, so both Valiant legs keep
        the up-then-down shape the up/down schedule proves deadlock-free —
        an arbitrary intermediate (the dense default) could force an
        up-down-up zigzag and a second turn.  Consumes exactly one draw,
        like the default.
        """
        choice = draws.integers(rng, 0, self._m)
        return self._rid_of(self._levels - 1, choice)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FatTreeTopology(p={self._p}, k={self._k}, "
            f"levels={self._levels}, nodes={self.num_nodes})"
        )
