"""What every router port is built from: one derivation, two consumers.

:func:`port_specs` turns a topology, the simulation parameters, the routing
mechanism's VC policy and the fault state into one :class:`PortSpec` per
``(router, port)`` — every capacity, VC count, latency, degradation factor
and link endpoint a port has at cycle 0.  The object model
(:meth:`repro.network.router.Router._build_ports`) instantiates its port
objects from these rows and the SoA backend
(:class:`repro.simulation.soa.state.SoAState`) fills its flat arrays from
them, so both start from the same numbers without either reading the other.

The rows are produced router by router and never held as a whole: at paper
scale there are 64 k of them, and each consumer needs one router's at a time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, NamedTuple, Optional, Tuple

from repro.config.parameters import SimulationParameters
from repro.topology.base import PortKind, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.base import RoutingAlgorithm

__all__ = ["PortSpec", "port_specs", "UNBOUNDED_PHITS"]

#: Capacity of the single downstream VC modelled behind an ejection (or
#: unconnected) port: the attached node consumes whatever arrives.
UNBOUNDED_PHITS = 2**30


class PortSpec(NamedTuple):
    """Construction-time description of one router port, both directions."""

    kind: PortKind
    #: VCs of the input side (with the fault-run escape VC where provisioned).
    num_vcs: int
    #: Capacity of each input VC buffer.
    vc_capacity_phits: int
    #: Capacity of the output buffer.
    output_buffer_phits: int
    #: Credit counters of the output side: the VCs of the input port it feeds.
    downstream_vcs: int
    downstream_vc_capacity_phits: int
    #: Of the outgoing link, degradation applied.
    link_latency: int
    #: Serialization-time multiplier of the outgoing link (1 = healthy).
    serialize_factor: int
    #: Static credit-occupied bias of a degraded link (0 = healthy): it reads
    #: as persistently congested to the occupancy-based triggers.
    credit_bias_phits: int
    #: ``(router, port)`` at the far end of the link — the downstream input
    #: port of the output side and, links being symmetric, the upstream output
    #: port of the input side; ``None`` on injection/ejection and unconnected
    #: ports.
    neighbor: Optional[Tuple[int, int]]


def _link_latency(params: SimulationParameters, kind: PortKind) -> int:
    if kind is PortKind.GLOBAL:
        return params.global_link_latency
    if kind is PortKind.LOCAL:
        return params.local_link_latency
    return 1  # injection/ejection: the node sits next to the router


def port_specs(
    topology: Topology,
    params: SimulationParameters,
    routing: "RoutingAlgorithm",
    faults=None,
) -> Iterator[List[PortSpec]]:
    """Yield, for each router in id order, the specs of its ports in port order."""
    output_buffer = params.output_buffer_phits
    packet_size = params.packet_size_phits
    # What a port index has on every router (the port layout is uniform).
    per_port = [
        (kind, routing.num_vcs(kind), params.input_buffer_phits(kind.value),
         _link_latency(params, kind))
        for kind in topology.port_kinds
    ]
    for rid in range(topology.num_routers):
        specs = []
        for port, (kind, num_vcs, vc_capacity, latency) in enumerate(per_port):
            nbr = topology.neighbor(rid, port)
            serialize_factor = 1
            credit_bias = 0
            if faults is not None:
                if kind is not PortKind.INJECTION and nbr is not None:
                    # Fault injection provisions one extra *escape* VC on every
                    # router-to-router link, used exclusively by fault-mode
                    # packets routed on the surviving spanning tree (see
                    # RoutingAlgorithm.fault_decision).  Healthy runs never
                    # allocate it, so disabling faults keeps buffers, credits,
                    # and goldens bit-identical.
                    num_vcs += 1
                degradation = faults.degradation(rid, port)
                if degradation is not None:
                    # The bandwidth multiplier stretches every serialization
                    # on this link; the bias is the degraded-as-high-contention
                    # signal of OLM/UGAL/Hybrid.
                    latency *= degradation.latency_factor
                    serialize_factor = degradation.bandwidth_factor
                    credit_bias = degradation.bias_packets * packet_size
            if nbr is None:
                # Ejection: a single, effectively unbounded downstream VC.
                downstream_vcs, downstream_capacity = 1, UNBOUNDED_PHITS
            else:
                downstream_vcs, downstream_capacity = num_vcs, vc_capacity
            specs.append(
                PortSpec(
                    kind, num_vcs, vc_capacity, output_buffer,
                    downstream_vcs, downstream_capacity,
                    latency, serialize_factor, credit_bias, nbr,
                )
            )
        yield specs
