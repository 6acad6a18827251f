"""Router ports: input ports with per-VC buffers, output ports with credits.

An :class:`InputPort` owns one :class:`~repro.network.buffer.VCBuffer` per
virtual channel plus the list of packets currently in flight on its incoming
link (they become visible in the buffer only when the tail arrives).

An :class:`OutputPort` owns the output buffer, the per-downstream-VC credit
counters, the router-pipeline delay line of granted packets, and the state of
the outgoing link (serialization/busy time and in-flight credit returns).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.network.buffer import OutputBuffer, VCBuffer
from repro.network.packet import Packet
from repro.topology.base import PortKind

__all__ = ["InputVC", "InputPort", "OutputPort"]


class InputVC:
    """One virtual channel of an input port."""

    __slots__ = ("buffer", "head_seen")

    def __init__(self, capacity_phits: int):
        self.buffer = VCBuffer(capacity_phits)
        #: Whether the current head packet has already been reported to the
        #: routing algorithm (contention counters are incremented exactly once
        #: per packet when it reaches the head of its buffer).
        self.head_seen = False


class InputPort:
    """Input side of a router port."""

    __slots__ = (
        "router_id",
        "port",
        "kind",
        "vcs",
        "arrivals",
        "upstream",
        "upstream_router",
        "upstream_port",
        "upstream_latency",
    )

    def __init__(
        self,
        router_id: int,
        port: int,
        kind: PortKind,
        num_vcs: int,
        vc_capacity_phits: int,
        upstream: Optional[Tuple[int, int]] = None,
    ):
        self.router_id = router_id
        self.port = port
        self.kind = kind
        self.vcs: List[InputVC] = [InputVC(vc_capacity_phits) for _ in range(num_vcs)]
        #: Packets in flight on the incoming link: (arrival_complete_cycle, vc, packet),
        #: kept in arrival order (the link serializes transmissions).
        self.arrivals: Deque[Tuple[int, int, Packet]] = deque()
        #: ``(upstream_router_id, upstream_port)`` feeding this input port, or
        #: ``None`` for injection ports (fed by a compute node).
        self.upstream = upstream
        #: Direct references resolved by :class:`~repro.network.network.Network`
        #: once the routers exist, so the credit-return hot path needs no
        #: router-table indexing: the upstream Router object, its output port
        #: index, and that link's latency.
        self.upstream_router = None
        self.upstream_port = -1
        self.upstream_latency = 1

    @property
    def num_vcs(self) -> int:
        return len(self.vcs)

    def schedule_arrival(self, complete_cycle: int, vc: int, packet: Packet) -> None:
        """Register a packet that will have fully arrived at ``complete_cycle``."""
        self.arrivals.append((complete_cycle, vc, packet))

    def pop_arrivals(self, cycle: int) -> List[Tuple[int, Packet]]:
        """Return ``(vc, packet)`` for every packet fully arrived by ``cycle``."""
        out: List[Tuple[int, Packet]] = []
        while self.arrivals and self.arrivals[0][0] <= cycle:
            _, vc, packet = self.arrivals.popleft()
            out.append((vc, packet))
        return out

    def occupancy_phits(self) -> int:
        """Total phits buffered across all VCs of this input port."""
        return sum(vc.buffer.occupied_phits for vc in self.vcs)

    def total_packets(self) -> int:
        return sum(vc.buffer.num_packets for vc in self.vcs)


class OutputPort:
    """Output side of a router port."""

    __slots__ = (
        "router_id",
        "port",
        "kind",
        "neighbor",
        "link_latency",
        "serialize_factor",
        "buffer",
        "credits",
        "max_credits",
        "pipeline",
        "link_busy_until",
        "pending_credits",
        "credit_occupied",
        "downstream_router",
        "downstream_port",
    )

    def __init__(
        self,
        router_id: int,
        port: int,
        kind: PortKind,
        buffer_capacity_phits: int,
        downstream_vcs: int,
        downstream_vc_capacity_phits: int,
        link_latency: int,
        neighbor: Optional[Tuple[int, int]] = None,
    ):
        self.router_id = router_id
        self.port = port
        self.kind = kind
        #: ``(downstream_router_id, downstream_port)``, or ``None`` for
        #: ejection ports (the packet is consumed by the attached node).
        self.neighbor = neighbor
        self.link_latency = link_latency
        #: Serialization-time multiplier of the outgoing link (1 = healthy;
        #: a degraded link sets >1, halving/quartering its bandwidth).
        self.serialize_factor = 1
        self.buffer = OutputBuffer(buffer_capacity_phits)
        if neighbor is None:
            # Ejection: model a single, effectively unbounded downstream VC.
            self.max_credits = [2**30]
        else:
            self.max_credits = [downstream_vc_capacity_phits] * downstream_vcs
        self.credits: List[int] = list(self.max_credits)
        #: Router-pipeline delay line: (ready_cycle, packet), FIFO ordered.
        self.pipeline: Deque[Tuple[int, Packet]] = deque()
        #: Cycle until which the outgoing link is serializing a packet.
        self.link_busy_until = 0
        #: Credits returned by the downstream router, in flight on the
        #: reverse channel: (arrival_cycle, vc, phits).
        self.pending_credits: Deque[Tuple[int, int, int]] = deque()
        #: Aggregate of ``max_credits - credits`` over all VCs, maintained by
        #: ``consume_credits``/``apply_credit_returns`` so the adaptive
        #: mechanisms' occupancy estimate is an attribute read instead of a
        #: per-VC sum.
        self.credit_occupied = 0
        #: Direct reference to the downstream Router object (resolved by the
        #: Network) and its input-port index; ``None`` for ejection ports.
        self.downstream_router = None
        self.downstream_port = -1

    # -- credits --------------------------------------------------------------
    # ``credits`` must only be mutated through ``consume_credits`` and the
    # ``schedule_credit_return``/``apply_credit_returns`` pair, which keep the
    # ``credit_occupied`` aggregate consistent.
    def credit_occupancy(self, vc: Optional[int] = None) -> int:
        """Estimated downstream occupancy (max credits minus available credits).

        With in-flight packets and credits this is exactly the paper's
        credit-count congestion estimate, including its inherent uncertainty
        (Section II-B).
        """
        if vc is None:
            return self.credit_occupied
        return self.max_credits[vc] - self.credits[vc]

    def consume_credits(self, vc: int, size_phits: int) -> None:
        if self.credits[vc] < size_phits:
            raise RuntimeError(
                f"credit underflow on router {self.router_id} port {self.port} vc {vc}"
            )
        self.credits[vc] -= size_phits
        self.credit_occupied += size_phits

    def schedule_credit_return(self, arrival_cycle: int, vc: int, phits: int) -> None:
        self.pending_credits.append((arrival_cycle, vc, phits))

    def apply_credit_returns(self, cycle: int) -> int:
        """Apply credits that arrived by ``cycle``; return how many were applied."""
        applied = 0
        while self.pending_credits and self.pending_credits[0][0] <= cycle:
            _, vc, phits = self.pending_credits.popleft()
            applied += 1
            self.credits[vc] += phits
            self.credit_occupied -= phits
            if self.credits[vc] > self.max_credits[vc]:
                raise RuntimeError(
                    f"credit overflow on router {self.router_id} port {self.port} vc {vc}"
                )
        return applied

    # -- occupancy estimates used by adaptive routing --------------------------
    def total_occupancy(self) -> int:
        """Local output-buffer commitment plus estimated downstream occupancy."""
        return self.buffer.committed_phits + self.credit_occupied

    # -- pipeline ---------------------------------------------------------------
    def push_pipeline(self, ready_cycle: int, packet: Packet) -> None:
        self.pipeline.append((ready_cycle, packet))

    def drain_pipeline(self, cycle: int) -> None:
        """Move pipeline packets whose router traversal completed into the buffer."""
        while self.pipeline and self.pipeline[0][0] <= cycle:
            _, packet = self.pipeline.popleft()
            self.buffer.enqueue(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutputPort(router={self.router_id}, port={self.port}, kind={self.kind.value}, "
            f"buffer={self.buffer.committed_phits}/{self.buffer.capacity_phits}, "
            f"credits={self.credits})"
        )
