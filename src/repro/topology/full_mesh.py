"""Full-mesh topology: every router directly linked to every other router.

The full mesh is the single-group limit of the Dragonfly (Cano et al., HOTI
2025 study the same adaptive-vs-oblivious trade-off on full-mesh networks):
``a`` routers form a complete graph of LOCAL links, each attaching ``p``
compute nodes, and there are no GLOBAL ports at all.

Port layout (identical on every router)::

    [0, p)          injection / ejection ports
    [p, p + a - 1)  mesh ports, LOCAL kind (one per other router)

Minimal paths have exactly one hop; Valiant paths take two LOCAL hops
through an intermediate router, occupying local VCs 0 and 1 of the
path-stage assignment — so the mesh is deadlock-free inside the ordinary
Dragonfly VC budget without any extra virtual channels.

Every router is its own *region*: the adversarial pattern ``ADV+i`` sends
all nodes of router ``r`` to router ``r + i``, saturating the single direct
link at ``1/p`` of the injection bandwidth under minimal routing, while
Valiant spreads the same traffic over all two-hop paths.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config.parameters import FullMeshConfig
from repro.topology.base import PathModel, PortKind, Topology

__all__ = ["FullMeshTopology"]

_MINIMAL_HOP_KINDS = (("local",),)


class FullMeshTopology(Topology):
    """Complete graph of routers (the single-group Dragonfly limit)."""

    def __init__(self, config: FullMeshConfig):
        self.config = config
        self._p = config.p
        self._a = config.a
        self._radix = config.router_radix
        self._first_mesh_port = self._p
        self.port_kinds: Tuple[PortKind, ...] = tuple(
            PortKind.INJECTION if port < self._p else PortKind.LOCAL
            for port in range(self._radix)
        )
        self._path_model = PathModel.from_minimal_paths(
            "full_mesh", _MINIMAL_HOP_KINDS
        )

    # ------------------------------------------------------------------ sizes
    @property
    def num_routers(self) -> int:
        return self._a

    @property
    def num_nodes(self) -> int:
        return self._a * self._p

    @property
    def router_radix(self) -> int:
        return self._radix

    @property
    def nodes_per_router(self) -> int:
        return self._p

    # Every router is its own region.
    @property
    def num_regions(self) -> int:
        return self._a

    @property
    def routers_per_region(self) -> int:
        return 1

    @property
    def path_model(self) -> PathModel:
        return self._path_model

    # -------------------------------------------------------------- addressing
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
    def mesh_ports(self) -> range:
        return range(self._first_mesh_port, self._radix)

    # Dragonfly-vocabulary aliases used by topology-generic helpers.
    local_ports = mesh_ports

    @property
    def global_ports(self) -> range:
        return range(0)

    def mesh_port_to(self, router: int, peer_router: int) -> int:
        """Mesh port of ``router`` leading directly to ``peer_router``."""
        if router == peer_router:
            raise ValueError("a router has no mesh port to itself")
        idx = peer_router if peer_router < router else peer_router - 1
        return self._first_mesh_port + idx

    def _mesh_port_peer(self, router: int, port: int) -> int:
        idx = port - self._first_mesh_port
        return idx if idx < router else idx + 1

    def port_target_region(self, router: int, port: int) -> int:
        if self.port_kinds[port] is PortKind.INJECTION:
            raise ValueError(f"port {port} is an injection port")
        return self._mesh_port_peer(router, port)

    # --------------------------------------------------------------- neighbors
    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        if self.port_kinds[port] is PortKind.INJECTION:
            return None
        peer = self._mesh_port_peer(router, port)
        return peer, self.mesh_port_to(peer, router)

    # ----------------------------------------------------------------- routing
    def minimal_output_port(self, router: int, dst_node: int) -> int:
        dst_router = dst_node // self._p
        if router == dst_router:
            return dst_node % self._p
        return self.mesh_port_to(router, dst_router)

    def minimal_path_length(self, src_node: int, dst_node: int) -> int:
        return 0 if self.node_router(src_node) == self.node_router(dst_node) else 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FullMeshTopology(p={self._p}, a={self._a}, nodes={self.num_nodes})"
