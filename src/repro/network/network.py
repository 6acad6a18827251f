"""The assembled network: compute nodes and — on demand — routers.

:class:`Network` instantiates one :class:`~repro.network.node.ComputeNode` per
compute node and owns the backlogged-node set the cycle driver walks.  The
object router graph — one :class:`~repro.network.router.Router` per topology
router, wired so credit returns and link arrivals reach the destination port
objects directly — is what the ``object`` backend steps and nothing else
needs: it is built by :meth:`Network.materialize_routers`, which the object
engine calls when it is constructed and :attr:`Network.routers` calls on
first access.  The ``soa`` backend derives its flat state from the same
:func:`~repro.network.specs.port_specs` rows and never builds it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.config.parameters import SimulationParameters
from repro.network.node import ComputeNode
from repro.network.router import Router
from repro.network.specs import port_specs
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.base import RoutingAlgorithm

__all__ = ["Network"]


class Network:
    """All routers and nodes of one simulated system."""

    __slots__ = (
        "topology",
        "params",
        "routing",
        "faults",
        "_routers",
        "nodes",
        "_active_nodes",
        "_nodes_unsorted",
        "__weakref__",
    )

    def __init__(
        self,
        topology: Topology,
        params: SimulationParameters,
        routing: "RoutingAlgorithm",
        faults=None,
    ):
        self.topology = topology
        self.params = params
        self.routing = routing
        #: Shared fault state (``None`` on a healthy network); see
        #: :mod:`repro.topology.faults`.
        self.faults = faults
        self._routers: Optional[List[Router]] = None
        self.nodes: List[ComputeNode] = [
            ComputeNode(nid, self, topology) for nid in range(topology.num_nodes)
        ]
        # Nodes with a source-queue backlog (shared by every backend): a node
        # registers itself when traffic is generated for it and the engine
        # retires it once its queue is empty.  Activations append and set the
        # dirty flag; the engine sorts the set only when the flag is set (its
        # own filtering pass preserves the order).
        self._active_nodes: List[ComputeNode] = []
        self._nodes_unsorted = False

    # ----------------------------------------------------------------- routers
    @property
    def routers(self) -> List[Router]:
        """The object router graph, built on first access."""
        return self.materialize_routers()

    def materialize_routers(self) -> List[Router]:
        """Build the object router graph (once) and attach the nodes to it."""
        if self._routers is not None:
            return self._routers
        topology = self.topology
        routers = [
            Router(rid, topology, self.params, self.routing, specs, faults=self.faults)
            for rid, specs in enumerate(
                port_specs(topology, self.params, self.routing, self.faults)
            )
        ]
        # Resolve the per-port upstream/downstream references now that every
        # router exists, so the credit-return and link-transmission hot paths
        # reach their peer objects with plain attribute reads.
        for router in routers:
            router.network = self
            for ip in router.input_ports:
                if ip.upstream is not None:
                    up_router, up_port = ip.upstream
                    ip.upstream_router = routers[up_router]
                    ip.upstream_port = up_port
                    ip.upstream_latency = (
                        ip.upstream_router.output_ports[up_port].link_latency
                    )
            for op in router.output_ports:
                if op.neighbor is not None:
                    down_router, down_port = op.neighbor
                    op.downstream_router = routers[down_router]
                    op.downstream_port = down_port
        for node in self.nodes:
            node.router = routers[node.router_id]
        self._routers = routers
        return routers

    # ---------------------------------------------------------- backlogged nodes
    def activate_node(self, node: ComputeNode) -> None:
        """Add ``node`` to the backlogged-node set (no-op if registered)."""
        if not node.active:
            node.active = True
            self._active_nodes.append(node)
            self._nodes_unsorted = True

    # ------------------------------------------------------------------ access
    def router(self, router_id: int) -> Router:
        return self.routers[router_id]

    def node(self, node_id: int) -> ComputeNode:
        return self.nodes[node_id]

    def region_routers(self, region: int) -> List[Router]:
        routers = self.routers
        return [routers[r] for r in self.topology.region_routers(region)]

    # ------------------------------------------------------------------ state
    def total_buffered_packets(self) -> int:
        """Packets currently inside the object router graph (buffers,
        pipelines, links).

        This describes the object model only: on the ``soa`` backend the
        graph is never stepped and the answer is always 0 — ask
        ``engine.total_buffered_packets()``, which every backend answers.
        """
        routers = self._routers
        if routers is None:  # never built, so nothing can be inside
            return 0
        in_routers = sum(r.total_buffered_packets() for r in routers)
        in_flight = sum(len(ip.arrivals) for r in routers for ip in r.input_ports)
        return in_routers + in_flight

    def total_source_queued(self) -> int:
        return sum(n.source_queue_length for n in self.nodes)

    def occupancy_summary(self) -> Dict[str, int]:
        """Aggregate occupancy (useful for debugging and tests).

        ``buffered_packets`` is :meth:`total_buffered_packets`: the object
        model only.  The source queues belong to the nodes, on every backend.
        """
        return {
            "buffered_packets": self.total_buffered_packets(),
            "source_queued": self.total_source_queued(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(routers={self.topology.num_routers}, nodes={len(self.nodes)}, "
            f"routing={self.routing.name})"
        )
