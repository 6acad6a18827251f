"""Cycle-level input/output-buffered virtual cut-through router.

The model follows the simple (non-tiled) high-radix router of the paper's
methodology (Section IV-B): per-VC input buffers with credit-based flow
control, a separable batch allocator with configurable internal speedup, a
fixed router pipeline latency, and per-port output buffers feeding the links.

Per-cycle operation (driven by :class:`repro.simulation.engine.Engine`):

1. ``begin_cycle`` — apply in-flight credit returns and store packets whose
   link transmission completed into the input VC buffers.
2. ``allocate`` — report new input-VC heads to the routing algorithm
   (contention counters), gather routing decisions for every head, run
   ``internal_speedup`` rounds of separable allocation, and move winners into
   the router pipeline towards their output port (returning credits
   upstream).
3. ``transmit`` — move pipeline-completed packets into the output buffers and
   start link transmissions (or deliver to the attached node on ejection
   ports) whenever the link is free and downstream credits allow.

This is the reference model: every phase scans the ports in port-major order
and all state lives in the port objects (:mod:`repro.network.ports`).  The
fast implementation of the same semantics is the ``soa`` backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from repro.config.parameters import SimulationParameters
from repro.network.allocator import AllocationRequest, SeparableAllocator
from repro.network.packet import Packet
from repro.network.ports import InputPort, InputVC, OutputPort
from repro.network.specs import PortSpec
from repro.topology.base import PortKind, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network
    from repro.routing.base import RoutingAlgorithm

__all__ = ["Router"]


#: Sentinel for "no scheduled event" (larger than any simulated cycle).
_NO_EVENT = 2**62


class Router:
    """One router of the network."""

    __slots__ = (
        "router_id",
        "topology",
        "params",
        "routing",
        "network",
        "_speedup",
        "_router_latency",
        "input_ports",
        "output_ports",
        "allocator",
        "delivered",
        "dropped",
        "_faults",
        "_pure_decisions",
        "_notify_arrival",
        "_notify_head",
        "_notify_leave",
    )

    def __init__(
        self,
        router_id: int,
        topology: Topology,
        params: SimulationParameters,
        routing: "RoutingAlgorithm",
        specs: Sequence[PortSpec],
        faults=None,
    ):
        self.router_id = router_id
        self.topology = topology
        self.params = params
        self.routing = routing
        self.network: Optional["Network"] = None  # set by Network
        self._speedup = params.internal_speedup
        self._router_latency = params.router_latency
        #: Fault state shared across the network (``None`` = healthy run;
        #: every fault check in the phases is then one ``is None`` test).
        self._faults = faults
        self._pure_decisions = routing.decision_is_pure

        self.input_ports: List[InputPort] = []
        self.output_ports: List[OutputPort] = []
        self._build_ports(specs)

        max_vcs = max(len(ip.vcs) for ip in self.input_ports)
        self.allocator = SeparableAllocator(topology.router_radix, max_vcs)

        # Delivered packets of the current cycle (drained by the engine).
        self.delivered: List[Packet] = []
        # Packets dropped this cycle because their destination is unreachable
        # on the surviving graph (fault runs only; drained by the engine).
        self.dropped: List[Packet] = []

        # Skip no-op routing hooks (MIN/VAL/OLM do not track heads; MIN does
        # not watch arrivals).
        (
            self._notify_arrival,
            self._notify_head,
            self._notify_leave,
        ) = routing.overridden_hooks()

    # ------------------------------------------------------------------ build
    def _build_ports(self, specs: Sequence[PortSpec]) -> None:
        """Instantiate the port objects of this router from its spec rows
        (:func:`repro.network.specs.port_specs` — every number is decided
        there)."""
        for port, spec in enumerate(specs):
            self.input_ports.append(
                InputPort(
                    router_id=self.router_id,
                    port=port,
                    kind=spec.kind,
                    num_vcs=spec.num_vcs,
                    vc_capacity_phits=spec.vc_capacity_phits,
                    upstream=spec.neighbor,
                )
            )
            op = OutputPort(
                router_id=self.router_id,
                port=port,
                kind=spec.kind,
                buffer_capacity_phits=spec.output_buffer_phits,
                downstream_vcs=spec.downstream_vcs,
                downstream_vc_capacity_phits=spec.downstream_vc_capacity_phits,
                link_latency=spec.link_latency,
                neighbor=spec.neighbor,
            )
            op.serialize_factor = spec.serialize_factor
            op.credit_occupied = spec.credit_bias_phits
            self.output_ports.append(op)

    # ----------------------------------------------------------------- events
    def occupied_vcs(self) -> List[Tuple[int, int, InputVC]]:
        """``(port, vc, InputVC)`` of every input VC holding a packet, in
        port-major, VC-minor order."""
        return [
            (ip.port, vc, ivc)
            for ip in self.input_ports
            for vc, ivc in enumerate(ip.vcs)
            if ivc.buffer.head_packet is not None
        ]

    def next_event_cycle(self) -> int:
        """Earliest cycle at which this router can make progress.

        An occupied input VC means "right now" (``-1``: allocation must be
        retried every cycle); otherwise the answer is the earliest entry of
        the port queues — a link arrival, an in-flight credit return, a
        pipeline exit, or the link-free time of a queued output head.
        Returns the huge ``_NO_EVENT`` sentinel when nothing is scheduled.
        """
        event = _NO_EVENT
        for ip in self.input_ports:
            for ivc in ip.vcs:
                if ivc.buffer.head_packet is not None:
                    return -1
            if ip.arrivals and ip.arrivals[0][0] < event:
                event = ip.arrivals[0][0]
        for out in self.output_ports:
            if out.pending_credits and out.pending_credits[0][0] < event:
                event = out.pending_credits[0][0]
            if out.pipeline and out.pipeline[0][0] < event:
                event = out.pipeline[0][0]
            if out.buffer.head_packet is not None and out.link_busy_until < event:
                event = out.link_busy_until
        return event

    def receive_arrival(
        self, port: int, complete_cycle: int, vc: int, packet: Packet
    ) -> None:
        """A neighbour started transmitting ``packet`` towards input ``port``."""
        self.input_ports[port].schedule_arrival(complete_cycle, vc, packet)

    def receive_credit_return(
        self, port: int, arrival_cycle: int, vc: int, phits: int
    ) -> None:
        """The downstream router freed buffer space fed by output ``port``."""
        self.output_ports[port].schedule_credit_return(arrival_cycle, vc, phits)

    # ------------------------------------------------------------------ phases
    def begin_cycle(self, cycle: int) -> None:
        """Apply credit returns and receive packets whose transmission finished."""
        for out in self.output_ports:
            out.apply_credit_returns(cycle)
        for ip in self.input_ports:
            for vc, packet in ip.pop_arrivals(cycle):
                ip.vcs[vc].buffer.push(packet)
                if self._notify_arrival:
                    self.routing.on_packet_arrival(self, ip.port, vc, packet, cycle)

    def allocate(self, cycle: int) -> int:
        """Report new heads, route them and run the separable allocation rounds.

        Returns the number of input VCs that held a packet (0: nothing to do).
        """
        routing = self.routing
        # No buffer is pushed into during allocation, so the list is fixed
        # for the cycle.
        occupied = self.occupied_vcs()
        if not occupied:
            return 0

        # --- new-head detection (contention counters) -------------------------
        # A packet is reported exactly once, when it reaches the head of its
        # buffer (``head_seen`` is cleared when the head leaves).
        if self._notify_head:
            for port, vc, ivc in occupied:
                if not ivc.head_seen:
                    routing.on_packet_head(self, port, vc, ivc.buffer.head_packet, cycle)
                    ivc.head_seen = True

        # --- allocation rounds (internal speedup) ------------------------------
        # A VC granted once is skipped for the rest of the cycle.  A
        # ``decision_is_pure`` mechanism (MIN/VAL/UGAL/PB) is asked once per VC
        # and cycle; later rounds reuse round 1's raw decision.  On a healthy
        # run that is the decision a second call would give.  On a fault run
        # it is not (the VC's next head inherits a dropped head's decision, a
        # packet whose Valiant leg ``fault_decision`` abandoned keeps the old
        # one; both still pass ``_resolve_faults``): a known wart, pinned by
        # the ``fault`` digest of tests/obs/test_trace_bytes.py, so removing
        # the memo is a result change of its own (ROADMAP open items).
        decision_memo = {} if self._pure_decisions else None
        granted_vcs: Set[Tuple[int, int]] = set()
        for round_index in range(self._speedup):
            requests: List[AllocationRequest] = []
            for port, vc, ivc in occupied:
                head = ivc.buffer.head_packet
                if head is None or (port, vc) in granted_vcs:
                    continue
                if decision_memo is None or round_index == 0:
                    decision = routing.select_output(self, port, vc, head, cycle)
                    if decision_memo is not None:
                        decision_memo[port, vc] = decision
                else:
                    decision = decision_memo[port, vc]
                if self._faults is not None:
                    decision = self._resolve_faults(port, vc, head, decision, cycle)
                if decision is None:
                    continue
                out = self.output_ports[decision.output_port]
                size = head.size_phits
                if out.buffer.free_phits < size:
                    continue
                # Virtual cut-through: the downstream VC must have room for
                # the whole packet before it may leave the input buffer.
                # Credits are reserved at grant time, which guarantees that
                # the output stage always drains (no deadlock through the
                # shared output buffers).
                if out.credits[decision.vc] < size:
                    continue
                requests.append(
                    AllocationRequest(port, vc, decision.output_port, size, decision)
                )
            if not requests:
                break
            for grant in self.allocator.allocate(requests):
                self._commit_grant(grant.input_port, grant.input_vc, grant.payload, cycle)
                granted_vcs.add((grant.input_port, grant.input_vc))
        return len(occupied)

    def _resolve_faults(self, port: int, vc: int, head, decision, cycle: int):
        """Resolve a routing decision against the live fault state.

        A packet in fault mode, or one whose chosen output port is dead, is
        re-steered through the routing algorithm's fault fallback; a packet
        whose destination is unreachable is dropped here (and ``None`` is
        returned so the caller skips the head).  The failure boundary is the
        allocation stage: packets already granted keep their reserved
        credits and complete their transmission, which preserves the credit
        and output-buffer invariants across a mid-run fault event.
        """
        if head.fault_mode:
            pass  # sticky: always re-steered by the fault fallback
        elif decision is None or decision.output_port not in self._faults.failed_ports[self.router_id]:
            return decision
        resolved = self.routing.fault_decision(self, head, cycle, port, vc)
        if resolved is None:
            self._drop_head(port, vc, cycle)
        return resolved

    def _drop_head(self, port: int, vc: int, cycle: int) -> None:
        """Drop the head of input VC ``(port, vc)`` (unreachable destination).

        Mirrors the input-side bookkeeping of ``_commit_grant`` — upstream
        credit return, contention-counter release — without any output-side
        forwarding.  The engine drains ``dropped`` and counts the drop as
        watchdog progress.
        """
        ip = self.input_ports[port]
        ivc = ip.vcs[vc]
        packet = ivc.buffer.pop()
        ivc.head_seen = False
        upstream = ip.upstream_router
        if upstream is not None:
            upstream.receive_credit_return(
                ip.upstream_port,
                cycle + ip.upstream_latency,
                vc,
                packet.size_phits,
            )
        if self._notify_leave:
            self.routing.on_packet_leave_input(self, port, vc, packet, cycle)
        self._faults.dropped_packets += 1
        self.dropped.append(packet)

    def _commit_grant(self, input_port: int, input_vc: int, decision, cycle: int) -> None:
        ip = self.input_ports[input_port]
        ivc = ip.vcs[input_vc]
        packet = ivc.buffer.pop()
        ivc.head_seen = False

        # Credit return to the upstream router (not for injection ports).
        upstream = ip.upstream_router
        if upstream is not None:
            upstream.receive_credit_return(
                ip.upstream_port,
                cycle + ip.upstream_latency,
                input_vc,
                packet.size_phits,
            )

        if self._notify_leave:
            self.routing.on_packet_leave_input(self, input_port, input_vc, packet, cycle)
        self.routing.on_grant(self, input_port, input_vc, packet, decision, cycle)

        out = self.output_ports[decision.output_port]
        if out.kind is not PortKind.INJECTION:
            packet.record_hop(is_global=out.kind is PortKind.GLOBAL)
        packet.current_vc = decision.vc
        out.buffer.commit(packet.size_phits)
        out.consume_credits(decision.vc, packet.size_phits)
        out.push_pipeline(cycle + self._router_latency, packet)

    def transmit(self, cycle: int) -> None:
        """Start link transmissions / node deliveries on the free output links."""
        for out in self.output_ports:
            out.drain_pipeline(cycle)
            if out.buffer.head_packet is None or out.link_busy_until > cycle:
                continue
            packet = out.buffer.pop()
            # Degraded links stretch the serialization (factor 1 when
            # healthy, so the healthy arithmetic is bit-identical).
            size = packet.size_phits * out.serialize_factor
            out.link_busy_until = cycle + size
            downstream = out.downstream_router
            if downstream is None:
                packet.delivered_cycle = cycle + size
                self.delivered.append(packet)
            else:
                # Downstream credits were reserved at grant time, so the
                # head of the output buffer can always be transmitted
                # once the link frees.
                downstream.receive_arrival(
                    out.downstream_port,
                    cycle + out.link_latency + size,
                    packet.current_vc,
                    packet,
                )

    # ------------------------------------------------------------- inspection
    @property
    def group(self) -> int:
        """Region (Dragonfly group, butterfly row, ...) of this router."""
        return self.topology.router_region(self.router_id)

    @property
    def position(self) -> int:
        return self.topology.router_position(self.router_id)

    def output_occupancy(self, port: int) -> int:
        """Output-buffer commitment plus credit-estimated downstream occupancy."""
        return self.output_ports[port].total_occupancy()

    def input_occupancy(self, port: int) -> int:
        return self.input_ports[port].occupancy_phits()

    def total_buffered_packets(self) -> int:
        n = sum(ip.total_packets() for ip in self.input_ports)
        n += sum(len(op.buffer) + len(op.pipeline) for op in self.output_ports)
        return n

    def drain_delivered(self) -> List[Packet]:
        """Return and clear the packets delivered to local nodes this cycle."""
        delivered, self.delivered = self.delivered, []
        return delivered

    def drain_dropped(self) -> List[Packet]:
        """Return and clear the packets dropped as unreachable this cycle."""
        dropped, self.dropped = self.dropped, []
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Router(id={self.router_id}, group={self.group}, pos={self.position})"
