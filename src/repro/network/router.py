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

Activity tracking
-----------------
The router maintains aggregate work counters (in-flight arrivals, buffered
input packets, in-flight credit returns, pipeline/output-buffer packets) and
a set of occupied input VCs.  Every phase early-outs when its counter is
zero, ``allocate`` only visits occupied VCs instead of re-scanning all
``radix x num_vcs`` channels per speedup round, and the engine only steps
routers registered in the network's active set — an idle router costs
nothing per cycle.  The counters are updated at the few places packets and
credits enter or leave the router, so activation/deactivation is O(1).
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from repro.config.parameters import SimulationParameters
from repro.network.allocator import AllocationRequest, SeparableAllocator
from repro.network.packet import Packet
from repro.network.ports import InputPort, OutputPort
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
        "_pure_decisions",
        "input_ports",
        "output_ports",
        "allocator",
        "_vc_map",
        "delivered",
        "dropped",
        "_faults",
        "active",
        "_occupied_vcs",
        "_new_heads",
        "_arrival_ports",
        "_credit_ports",
        "_busy_out_ports",
        "_next_begin_event",
        "_next_transmit_event",
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
        self._pure_decisions = routing.decision_is_pure
        #: Fault state shared across the network (``None`` = healthy run;
        #: every fault check in the phases is then one ``is None`` test).
        self._faults = faults

        self.input_ports: List[InputPort] = []
        self.output_ports: List[OutputPort] = []
        self._build_ports(specs)

        max_vcs = max(len(ip.vcs) for ip in self.input_ports)
        self.allocator = SeparableAllocator(topology.router_radix, max_vcs)

        # (port, vc) -> InputVC, so the allocation loop reaches a head with a
        # single dict lookup instead of chained list indexing.
        self._vc_map = {
            (ip.port, vc): ivc
            for ip in self.input_ports
            for vc, ivc in enumerate(ip.vcs)
        }

        # Delivered packets of the current cycle (drained by the engine).
        self.delivered: List[Packet] = []
        # Packets dropped this cycle because their destination is unreachable
        # on the surviving graph (fault runs only; drained by the engine).
        self.dropped: List[Packet] = []

        # -- activity tracking ------------------------------------------------
        # The work lists below are kept sorted (insort on insert), so the
        # phases can iterate them directly in the port-major order of a full
        # scan without re-sorting every cycle.  They are small (bounded by
        # radix x VCs), so the O(n) inserts/removes are cheap.
        #: Whether this router is registered in the network's active set.
        self.active = False
        #: ``(port, vc)`` of every non-empty input VC buffer.
        self._occupied_vcs: List[Tuple[int, int]] = []
        #: Input VCs whose head changed since the last new-head report
        #: (buffer went empty -> non-empty, or a grant exposed the next
        #: packet).  Only maintained for mechanisms with a head hook.
        self._new_heads: List[Tuple[int, int]] = []
        #: Input ports with packets in flight on their incoming link.
        self._arrival_ports: List[int] = []
        #: Output ports with credit returns in flight on the reverse channel.
        self._credit_ports: List[int] = []
        #: Output ports with packets in the pipeline or the output buffer.
        self._busy_out_ports: List[int] = []
        #: Exact earliest cycle at which ``begin_cycle`` has something to do
        #: (a link arrival or credit return matures) and at which ``transmit``
        #: has something to do (a pipeline exit or a free link with a queued
        #: head).  Maintained at the scheduling sites and recomputed by the
        #: phases themselves, so the engine can skip a phase call — and
        #: compute the router's time-warp horizon — with one comparison.
        self._next_begin_event = _NO_EVENT
        self._next_transmit_event = _NO_EVENT

        # Skip no-op routing hooks in the hot loops (MIN/VAL/OLM do not track
        # heads; MIN does not watch arrivals).
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

    # -------------------------------------------------------- activity tracking
    def activate(self) -> None:
        """Register this router in the network's active set."""
        if not self.active and self.network is not None:
            self.network.activate_router(self)

    def has_work(self) -> bool:
        """Whether any phase of the next cycles can do something."""
        return bool(
            self._occupied_vcs
            or self._arrival_ports
            or self._credit_ports
            or self._busy_out_ports
        )

    def next_event_cycle(self) -> int:
        """Earliest cycle at which this router can make progress.

        Used by the time-warp engine: an occupied input VC means "right now"
        (allocation must be retried every cycle), otherwise the answer is the
        min over the cached begin/transmit event times (scheduled link
        arrivals, in-flight credit returns, pipeline completions and
        link-free times).  Returns the huge ``_NO_EVENT`` sentinel when
        nothing is scheduled (the router is about to be retired).
        """
        if self._occupied_vcs:
            return -1
        begin = self._next_begin_event
        transmit = self._next_transmit_event
        return begin if begin < transmit else transmit

    def receive_arrival(
        self, port: int, complete_cycle: int, vc: int, packet: Packet
    ) -> None:
        """A neighbour started transmitting ``packet`` towards input ``port``."""
        ip = self.input_ports[port]
        if not ip.arrivals:
            insort(self._arrival_ports, port)
        ip.schedule_arrival(complete_cycle, vc, packet)
        if complete_cycle < self._next_begin_event:
            self._next_begin_event = complete_cycle
        if not self.active and self.network is not None:
            self.network.activate_router(self)

    def receive_credit_return(
        self, port: int, arrival_cycle: int, vc: int, phits: int
    ) -> None:
        """The downstream router freed buffer space fed by output ``port``."""
        op = self.output_ports[port]
        if not op.pending_credits:
            insort(self._credit_ports, port)
        op.schedule_credit_return(arrival_cycle, vc, phits)
        if arrival_cycle < self._next_begin_event:
            self._next_begin_event = arrival_cycle
        if not self.active and self.network is not None:
            self.network.activate_router(self)

    def note_input_push(self, port: int, vc: int) -> None:
        """Bookkeeping after a packet was pushed into input VC ``(port, vc)``."""
        if self.input_ports[port].vcs[vc].buffer.num_packets == 1:
            insort(self._occupied_vcs, (port, vc))
            if self._notify_head:
                self._new_heads.append((port, vc))
        if not self.active and self.network is not None:
            self.network.activate_router(self)

    # ------------------------------------------------------------------ phases
    def begin_cycle(self, cycle: int) -> None:
        """Apply credit returns and receive packets whose transmission finished."""
        nxt = _NO_EVENT
        credit_ports = self._credit_ports
        if credit_ports:
            remaining = []
            for port in credit_ports:
                op = self.output_ports[port]
                pending = op.pending_credits
                if pending[0][0] <= cycle:
                    op.apply_credit_returns(cycle)
                if pending:
                    remaining.append(port)
                    c = pending[0][0]
                    if c < nxt:
                        nxt = c
            self._credit_ports = remaining
        arrival_ports = self._arrival_ports
        if arrival_ports:
            occupied = self._occupied_vcs
            routing = self.routing
            notify = self._notify_arrival
            notify_head = self._notify_head
            new_heads = self._new_heads
            input_ports = self.input_ports
            remaining = []
            for port in arrival_ports:
                ip = input_ports[port]
                arrivals = ip.arrivals
                if arrivals[0][0] <= cycle:
                    vcs = ip.vcs
                    while arrivals and arrivals[0][0] <= cycle:
                        _, vc, packet = arrivals.popleft()
                        buf = vcs[vc].buffer
                        if buf.head_packet is None:
                            insort(occupied, (port, vc))
                            if notify_head:
                                new_heads.append((port, vc))
                        buf.push(packet)
                        if notify:
                            routing.on_packet_arrival(self, port, vc, packet, cycle)
                if arrivals:
                    remaining.append(port)
                    c = arrivals[0][0]
                    if c < nxt:
                        nxt = c
            self._arrival_ports = remaining
        self._next_begin_event = nxt

    def allocate(self, cycle: int) -> None:
        """Report new heads, route them and run the separable allocation rounds."""
        if not self._occupied_vcs:
            return
        routing = self.routing
        output_ports = self.output_ports
        vc_map = self._vc_map

        # --- new-head detection (contention counters) -------------------------
        # Only VCs whose head actually changed since the last report are
        # visited; sorting restores the port-major order of a full scan.
        if self._notify_head and self._new_heads:
            new_heads = self._new_heads
            if len(new_heads) > 1:
                new_heads.sort()
            for key in new_heads:
                ivc = vc_map[key]
                if ivc.head_seen:
                    continue
                port, vc_idx = key
                routing.on_packet_head(self, port, vc_idx, ivc.buffer.head_packet, cycle)
                ivc.head_seen = True
            self._new_heads = []

        # --- single-head fast path ---------------------------------------------
        # With exactly one occupied VC the round machinery degenerates: the
        # first round either grants that head (a one-request allocation always
        # succeeds, only the arbiter pointers rotate) or produces no request
        # at all, and in both cases every later round is a no-op (the VC is in
        # ``granted_vcs`` or the request list stays empty).  So exactly one
        # ``select_output`` call happens per cycle — identical to a full run.
        if len(self._occupied_vcs) == 1:
            key = self._occupied_vcs[0]
            head = vc_map[key].buffer.head_packet
            port, vc_idx = key
            decision = routing.select_output(self, port, vc_idx, head, cycle)
            if self._faults is not None:
                decision = self._resolve_faults(port, vc_idx, head, decision, cycle)
            if decision is None:
                return
            out = output_ports[decision.output_port]
            size = head.size_phits
            if out.buffer.free_phits < size or out.credits[decision.vc] < size:
                return
            self.allocator.grant_single(port, vc_idx, decision.output_port)
            self._commit_grant(port, vc_idx, decision, cycle)
            return

        # --- allocation rounds (internal speedup) ------------------------------
        # The occupied list holds exactly the non-empty input VCs in
        # port-major, VC-minor order, reproducing the visit order of a full
        # scan.  Grants remove entries from the live list, so iterate a copy.
        # For mechanisms with pure decisions (MIN/VAL/PB) the first round's
        # routing decision is reused by the later rounds of this cycle: a VC
        # granted once is skipped for the rest of the cycle, so the head — and
        # therefore its decision — cannot change between rounds.
        occupied = self._occupied_vcs[:]
        decision_memo = {} if self._pure_decisions else None
        granted_vcs: Set[Tuple[int, int]] = set()
        faults = self._faults
        for round_index in range(self._speedup):
            requests: List[AllocationRequest] = []
            for key in occupied:
                if key in granted_vcs:
                    continue
                head = vc_map[key].buffer.head_packet
                if head is None:
                    continue
                port, vc_idx = key
                if decision_memo is None or round_index == 0:
                    decision = routing.select_output(self, port, vc_idx, head, cycle)
                    if decision_memo is not None:
                        decision_memo[key] = decision
                else:
                    decision = decision_memo[key]
                if faults is not None:
                    # The memo holds the raw policy decision; the fault
                    # resolution is deterministic (BFS tables, no RNG), so
                    # re-resolving per round is round-stable.
                    decision = self._resolve_faults(port, vc_idx, head, decision, cycle)
                if decision is None:
                    continue
                out_port = decision.output_port
                out = output_ports[out_port]
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
                    AllocationRequest(port, vc_idx, out_port, size, decision)
                )
            if not requests:
                break
            for grant in self.allocator.allocate(requests):
                self._commit_grant(grant.input_port, grant.input_vc, grant.payload, cycle)
                granted_vcs.add((grant.input_port, grant.input_vc))

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
        credit return, contention-counter release, occupied-VC tracking —
        without any output-side forwarding.  The engine drains ``dropped``
        and counts the drop as watchdog progress.
        """
        ip = self.input_ports[port]
        ivc = ip.vcs[vc]
        packet = ivc.buffer.pop()
        ivc.head_seen = False
        if ivc.buffer.head_packet is None:
            self._occupied_vcs.remove((port, vc))
        elif self._notify_head:
            self._new_heads.append((port, vc))
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
        packet.dropped_cycle = cycle
        self._faults.dropped_packets += 1
        self.dropped.append(packet)

    def _commit_grant(self, input_port: int, input_vc: int, decision, cycle: int) -> None:
        ip = self.input_ports[input_port]
        ivc = ip.vcs[input_vc]
        packet = ivc.buffer.pop()
        ivc.head_seen = False
        if ivc.buffer.head_packet is None:
            self._occupied_vcs.remove((input_port, input_vc))
        elif self._notify_head:
            self._new_heads.append((input_port, input_vc))

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
        if not out.pipeline and out.buffer.head_packet is None:
            insort(self._busy_out_ports, decision.output_port)
        out.buffer.commit(packet.size_phits)
        out.consume_credits(decision.vc, packet.size_phits)
        ready = cycle + self._router_latency
        out.pipeline.append((ready, packet))
        if ready < self._next_transmit_event:
            self._next_transmit_event = ready

    def transmit(self, cycle: int) -> None:
        """Start link transmissions / node deliveries on the busy output ports."""
        busy = self._busy_out_ports
        if not busy:
            self._next_transmit_event = _NO_EVENT
            return
        output_ports = self.output_ports
        remaining = []
        nxt = _NO_EVENT
        for port in busy:
            out = output_ports[port]
            buf = out.buffer
            pipeline = out.pipeline
            if pipeline:
                while pipeline and pipeline[0][0] <= cycle:
                    _, ready = pipeline.popleft()
                    buf.enqueue(ready)
            if buf.head_packet is not None and out.link_busy_until <= cycle:
                packet = buf.pop()
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
            keep = False
            if pipeline:
                keep = True
                c = pipeline[0][0]
                if c < nxt:
                    nxt = c
            if buf.head_packet is not None:
                keep = True
                c = out.link_busy_until
                if c < nxt:
                    nxt = c
            if keep:
                remaining.append(port)
        self._busy_out_ports = remaining
        self._next_transmit_event = nxt

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
