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

from typing import Optional, Tuple

from repro.config.parameters import FullMeshConfig
from repro.topology.base import PathModel, PortKind, Topology

__all__ = ["FullMeshTopology"]

_MINIMAL_HOP_KINDS = (("local",),)


class FullMeshTopology(Topology):
    """Complete graph of routers (the single-group Dragonfly limit)."""

    def __init__(self, config: FullMeshConfig):
        # Every router is its own region.
        super().__init__(
            config.a,
            config.p,
            config.router_radix,
            config.a,
            PathModel.from_minimal_paths("full_mesh", _MINIMAL_HOP_KINDS),
        )
        self.config = config
        self.port_kinds: Tuple[PortKind, ...] = tuple(
            PortKind.INJECTION if port < self._p else PortKind.LOCAL
            for port in range(self._radix)
        )

    # ------------------------------------------------------------------- ports
    @property
    def mesh_ports(self) -> range:
        return range(self._p, self._radix)

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
        return self._p + idx

    def _mesh_port_peer(self, router: int, port: int) -> int:
        idx = port - self._p
        return idx if idx < router else idx + 1

    # --------------------------------------------------------------- neighbors
    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        if self.port_kinds[port] is PortKind.INJECTION:
            return None
        peer = self._mesh_port_peer(router, port)
        return peer, self.mesh_port_to(peer, router)

    # ----------------------------------------------------------------- routing
    def _route_port(self, router: int, dst_router: int) -> int:
        return self.mesh_port_to(router, dst_router)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FullMeshTopology(p={self._p}, a={self._num_routers}, nodes={self.num_nodes})"
