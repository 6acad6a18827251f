"""Synchronous cycle-driven simulation engine with a time-warp fast path.

:class:`Engine` is the one cycle driver of every backend, and at the same
time the ``object`` backend.  ``step`` advances the whole network one cycle:

0. apply the fault events scheduled for this cycle;
1. generate traffic (pre-sampled Bernoulli arrivals) into the node source
   queues;
2. inject packets from the source queues into the router injection buffers
   (only nodes with a backlog are visited);
3. run the router phase: credit returns and link arrivals, routing +
   separable allocation, link serialization and node deliveries;
4. the routing algorithm's ``post_cycle`` hook (PB / ECtN broadcasts),
   invoked only for mechanisms that override it;
5. progress accounting, warp hints, ``obs.on_cycle``, the stall watchdog.

A backend supplies the router state it steps (built once, when the engine is
constructed: here the ``Router`` graph of the network, in ``SoAEngine`` the
flat arrays), step 2's per-node injection, step 3, the router half of the
work horizon, the buffered-packet count and the stall census through the
methods marked "backend seam"; ``SoAEngine`` overrides exactly those.

In the object model the three router phases (``begin_cycle``, ``allocate``,
``transmit``) run back to back per router, in router-id order: every
cross-router interaction inside a cycle (link arrivals, credit returns) is
scheduled strictly in the future and all phase reads are router-local, so
this equals three network-wide sweeps.  A router whose
``next_event_cycle()`` lies in the future is skipped.

Time warp
---------
``run`` does not blindly call ``step`` once per cycle.  Every event in the
model is scheduled (pre-sampled traffic arrivals, node injection spacing,
link arrival/credit completions, pipeline exits, link-free times, routing
broadcast periods), so when no component has work *this* cycle the engine
computes the **work horizon** — the min over all scheduled event cycles —
and advances ``cycle`` directly to it.  The node part of the horizon is left
behind by the previous ``step`` (a "hint"), the router part too where the
backend has it for free; the object model walks its routers.  A warped-over
cycle is, by construction, one in which ``step`` would have been a complete
no-op, so results are bit-identical with the warp on or off (asserted by
``tests/simulation/test_time_warp.py``); only wall-clock time changes.  The
number of cycles skipped this way is reported in
:attr:`Engine.cycles_skipped`.

A stall watchdog aborts the simulation with a clear error if packets are
buffered in the network but none is delivered for a long stretch of cycles —
this turns a (theoretically possible) routing deadlock or a wiring bug into a
diagnosable failure rather than an endless run.  Warp jumps never overshoot
the watchdog deadline, so a genuine stall is detected at exactly the cycle
the cycle-by-cycle engine would detect it, even when every remaining "event"
lies in the far future.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Optional, Tuple

from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.network.router import _NO_EVENT
from repro.traffic.bernoulli import BernoulliTrafficGenerator

__all__ = ["Engine", "SimulationStallError"]

_node_id = attrgetter("node_id")


class SimulationStallError(RuntimeError):
    """Raised when the network stops making forward progress.

    The message carries a diagnostic snapshot — per-router occupied-VC
    counts and the oldest in-flight packet's identity, route state and age —
    so a stall (a routing deadlock, a wiring bug, or an unhandled fault
    scenario) is debuggable from the exception alone.
    """


class Engine:
    """Drives a :class:`~repro.network.network.Network` cycle by cycle."""

    __slots__ = (
        "network",
        "traffic",
        "metrics",
        "obs",
        "faults",
        "stall_watchdog_cycles",
        "time_warp",
        "cycle",
        "delivered_packets",
        "dropped_packets",
        "cycles_skipped",
        "_last_progress_cycle",
        "_post_cycle",
        "_hint_valid",
        "_hint_router_event",
        "_hint_node_injection",
    )

    def __init__(
        self,
        network: Network,
        traffic: BernoulliTrafficGenerator,
        metrics: Optional[MetricsCollector] = None,
        stall_watchdog_cycles: Optional[int] = 20_000,
        time_warp: bool = True,
        faults=None,
    ):
        self.network = network
        self.traffic = traffic
        self.metrics = metrics
        #: Observation hub (:mod:`repro.obs`) or ``None``.  Every
        #: instrumentation site is gated on a single ``is None`` check of
        #: this slot — the same zero-overhead idiom as ``metrics``.
        self.obs = None
        #: Fault state driving scheduled fail/repair events (``None`` on a
        #: healthy run).  A scheduled fault is a *work event*: both horizon
        #: computations below refuse to warp past ``pending_event_cycle``.
        self.faults = faults
        self.stall_watchdog_cycles = stall_watchdog_cycles
        #: Whether ``run`` may jump over provably idle cycles.  Results are
        #: bit-identical either way; disable only for debugging/validation.
        self.time_warp = time_warp
        self.cycle = 0
        self.delivered_packets = 0
        #: Packets dropped because a fault left their destination unreachable.
        self.dropped_packets = 0
        #: Cycles ``run`` advanced without executing (the warped-over ones).
        self.cycles_skipped = 0
        self._last_progress_cycle = 0
        # The network-wide hook is a bound-method cache: ``None`` unless the
        # mechanism overrides post_cycle (PB, ECtN), so MIN/VAL/OLM/Base/Hybrid
        # pay nothing per cycle for it.  (Set on every backend:
        # ``SoAEngine.__init__`` runs this constructor first.)
        routing = network.routing
        from repro.routing.base import RoutingAlgorithm as _Base

        overrides = type(routing).post_cycle is not _Base.post_cycle
        self._post_cycle = routing.post_cycle if overrides else None
        # Work-horizon hints, filled in by ``step``: the earliest scheduled
        # router event (``None``: the backend left none, ask
        # ``_router_horizon``) and the earliest pending node injection.
        # Invalidated at ``run`` entry because callers may mutate network
        # state between runs (tests enqueue packets by hand).
        self._hint_valid = False
        self._hint_router_event = _NO_EVENT
        self._hint_node_injection = _NO_EVENT
        self._build_router_state(network)

    def _build_router_state(self, network: Network) -> None:
        """Backend seam: build the router state this engine steps.

        The object model steps the ``Router`` graph, materialised here — once,
        at construction, so no timed ``step`` ever builds a router."""
        network.materialize_routers()

    def run(self, cycles: int, until: Optional[Callable[[], bool]] = None) -> None:
        """Advance the simulation by ``cycles`` cycles (warping over idle ones).

        ``until`` ends the run early: it is asked before every step or warp
        jump, and the run returns as soon as it answers true — at once when
        it already holds on entry.  It must be a function of what executed
        steps change (deliveries, drops), so that the stop cycle is the same
        with the warp on or off and on every backend.
        """
        end = self.cycle + cycles
        self._hint_valid = False
        if not self.time_warp:
            while self.cycle < end:
                if until is not None and until():
                    break
                self.step()
            return
        traffic = self.traffic
        while self.cycle < end:
            if until is not None and until():
                break
            cycle = self.cycle
            if self._hint_valid:
                horizon = self._hint_router_event
                if horizon is None:
                    horizon = self._router_horizon(cycle)
                router_horizon = horizon
                node_hint = self._hint_node_injection
                if node_hint < horizon:
                    horizon = node_hint
                if self.faults is not None:
                    # A scheduled fail/repair event is work: never warp
                    # past it (the topology changes at that cycle).
                    fault_event = self.faults.pending_event_cycle
                    if fault_event < horizon:
                        horizon = fault_event
                if horizon > cycle:
                    # Routers and nodes are quiet: consult the (cheap)
                    # routing-broadcast and pre-sampled-arrival horizons.
                    if self._post_cycle is not None:
                        hook = self._post_cycle_horizon(cycle, router_horizon)
                        if hook is not None and hook < horizon:
                            horizon = hook
                    arrival = traffic.next_arrival_cycle(cycle, end)
                    if arrival is not None and arrival < horizon:
                        horizon = arrival
            else:
                horizon = self._work_horizon(cycle, end)
            if horizon <= cycle:
                self.step()
                continue
            target = horizon if horizon < end else end
            watchdog = self.stall_watchdog_cycles
            if watchdog is not None:
                deadline = self._last_progress_cycle + watchdog
                if target > deadline:
                    if deadline <= cycle:
                        # The deadline passed without a delivery: either
                        # the network is empty (marker resets, warp goes
                        # on) or this is a genuine stall (raises).
                        self._check_watchdog(cycle)
                        continue
                    target = deadline
            if self.obs is not None:
                self.obs.on_warp(cycle, target)
            self.cycles_skipped += target - cycle
            self.cycle = target

    # -- time warp ----------------------------------------------------------------
    def _post_cycle_horizon(self, cycle: int, router_horizon: int) -> Optional[int]:
        """Next cycle the routing broadcast hook has work (``None``: never).

        ``router_horizon`` is ``_router_horizon(cycle)`` as the caller already
        has it: the routing class is told whether the fabric is idle (no
        router of this backend holds or awaits anything), so it reads no
        engine state.  Consulted only when ``_post_cycle`` is set.
        """
        return self.network.routing.post_cycle_horizon(cycle, router_horizon >= _NO_EVENT)

    def _router_horizon(self, cycle: int) -> int:
        """Backend seam: the router half of :meth:`_work_horizon` (``cycle``
        when a router has work now, ``_NO_EVENT`` when none has any)."""
        horizon = _NO_EVENT
        for router in self.network.routers:
            event = router.next_event_cycle()
            if event <= cycle:
                return cycle
            if event < horizon:
                horizon = event
        return horizon

    def _work_horizon(self, cycle: int, end: int) -> int:
        """Earliest cycle at which any component can do something.

        Full scan, used only when the per-step hints are not available (first
        iteration of a ``run`` call).  Returns ``cycle`` itself (or less)
        when there is immediate work; the caller then executes a normal
        ``step``.
        """
        horizon = router_horizon = self._router_horizon(cycle)
        if horizon <= cycle:
            return cycle
        if end < horizon:
            horizon = end
        for node in self.network._active_nodes:
            injection = node.next_injection_cycle
            if injection <= cycle:
                return cycle
            if injection < horizon:
                horizon = injection
        if self._post_cycle is not None:
            hook = self._post_cycle_horizon(cycle, router_horizon)
            if hook is not None:
                if hook <= cycle:
                    return cycle
                if hook < horizon:
                    horizon = hook
        arrival = self.traffic.next_arrival_cycle(cycle, end)
        if arrival is not None:
            if arrival <= cycle:
                return cycle
            if arrival < horizon:
                horizon = arrival
        if self.faults is not None:
            fault_event = self.faults.pending_event_cycle
            if fault_event <= cycle:
                return cycle
            if fault_event < horizon:
                horizon = fault_event
        return horizon

    def step(self) -> None:
        """Advance the simulation by one cycle (every backend; see module doc)."""
        cycle = self.cycle
        network = self.network
        metrics = self.metrics

        # 0. scheduled topology changes.  Applied before any router phase so
        # the whole cycle sees one consistent fault epoch; the warp horizon
        # guarantees we never jump past a due event.
        faults = self.faults
        if faults is not None and faults.pending_event_cycle <= cycle:
            if faults.apply_due(cycle) and metrics is not None:
                metrics.on_fault_epoch(cycle)

        # 1. traffic generation (activates the source nodes)
        nodes = network.nodes
        for src, packet in self.traffic.generate(cycle):
            nodes[src].enqueue(packet)
            if metrics is not None:
                metrics.record_generated(packet)

        # 2. injection from the backlogged source queues, in node-id order
        node_hint = _NO_EVENT
        active_nodes = network._active_nodes
        if active_nodes:
            if network._nodes_unsorted:
                active_nodes.sort(key=_node_id)
                network._nodes_unsorted = False
            try_inject = self._try_inject
            backlogged = []
            for node in active_nodes:
                if cycle >= node.next_injection_cycle:
                    try_inject(node, cycle)
                if node.source_queue:
                    backlogged.append(node)
                    injection = node.next_injection_cycle
                    if injection < node_hint:
                        node_hint = injection
                else:
                    node.active = False
            network._active_nodes = backlogged

        # 3. the routers: due events, allocation, transmission.
        delivered_now, dropped_now, visited_routers, router_hint = self._router_phase(
            cycle
        )

        # 4. network-wide routing hook (PB saturation ECN / ECtN broadcasts);
        # mechanisms that do not override post_cycle skip the call entirely.
        # The hooks write only the mechanism's own tables.
        if self._post_cycle is not None:
            self._post_cycle(network, cycle)

        if delivered_now:
            self.delivered_packets += delivered_now
            self._last_progress_cycle = cycle
        if dropped_now:
            # Dropping an unreachable packet is forward progress: the network
            # sheds the packet instead of tripping the stall watchdog.
            self.dropped_packets += dropped_now
            self._last_progress_cycle = cycle

        self._hint_router_event = router_hint
        self._hint_node_injection = node_hint
        self._hint_valid = True

        if self.obs is not None:
            # ``visited_routers`` (``alloc_router_cycles``): the routers that
            # held an occupied input VC when their allocation came up.
            self.obs.on_cycle(cycle, visited_routers)

        self._check_watchdog(cycle)
        self.cycle = cycle + 1

    # -- backend seams (here: the object model) ---------------------------------
    def _try_inject(self, node, cycle: int) -> None:
        """Backend seam: inject the head of ``node``'s source queue if it fits."""
        node.try_inject(cycle)

    def _router_phase(self, cycle: int) -> Tuple[int, int, int, Optional[int]]:
        """Backend seam: one cycle of router work.

        Returns ``(delivered, dropped, visited_routers, router_hint)``:
        packets delivered and dropped this cycle (already reported to
        ``metrics``/``obs`` in router-major order), the routers visited, and
        the earliest cycle a router has work again (at most ``cycle + 1``:
        next cycle, ``_NO_EVENT``: nothing scheduled) where the backend has
        it for free.  The object model does not — a later router may schedule
        an arrival or a credit return at an earlier one, so it would take a
        second walk — and returns ``None``: ``run`` asks ``_router_horizon``
        when, and only when, it wants to warp.
        """
        metrics = self.metrics
        obs = self.obs
        delivered_now = 0
        dropped_now = 0
        visited_routers = 0
        for router in self.network.routers:
            if router.next_event_cycle() > cycle:
                continue
            router.begin_cycle(cycle)
            if router.allocate(cycle):
                visited_routers += 1
            router.transmit(cycle)
            for packet in router.drain_delivered():
                delivered_now += 1
                if metrics is not None:
                    metrics.record_delivery(packet, cycle)
                if obs is not None:
                    obs.record_delivery(packet, cycle)
            for packet in router.drain_dropped():
                dropped_now += 1
                if metrics is not None:
                    metrics.record_dropped(packet, cycle)
                if obs is not None:
                    obs.record_dropped(packet, cycle)
        return delivered_now, dropped_now, visited_routers, None

    # -- observation ---------------------------------------------------------------
    def attach_observation(self, hub) -> None:
        """Wire an :class:`~repro.obs.hub.ObservationHub` into this engine.

        Attachment caches the hub on the engine's ``obs`` slot and the
        routing algorithm's ``_obs`` attribute; every instrumentation site
        afterwards is a single ``is None`` check of one of those two.  The
        hub is a pure observer — no simulation state, no RNG streams — so
        attaching it cannot change results (asserted by the probes-enabled
        golden/warp-identity tests).
        """
        self.obs = hub
        self.network.routing._obs = hub
        hub.on_attach(self)

    def detach_observation(self) -> None:
        """Remove the hub; the engine returns to the zero-overhead path."""
        self.network.routing._obs = None
        self.obs = None

    def _make_obs_reader(self):
        """State reader for occupancy snapshots (backend-specific)."""
        from repro.obs.readers import ObjectStateReader

        return ObjectStateReader(self.network)

    # -- test/diagnostic surface ---------------------------------------------------
    def schedule_arrival(
        self, rid: int, port: int, complete_cycle: int, vc: int, packet
    ) -> None:
        """Fabricate a link arrival at a router input, any backend.

        Test-facing: lets warp/watchdog tests plant a packet on a link
        without running traffic through the fabric.
        """
        self.network.routers[rid].receive_arrival(port, complete_cycle, vc, packet)

    # -- accounting ---------------------------------------------------------------
    def total_buffered_packets(self) -> int:
        """Packets inside the network fabric, wherever the backend keeps them.

        Backend-agnostic accounting surface: the object engine counts the
        network's buffers, the SoA engine its flat arrays.  Conservation
        checks must go through this instead of ``network.total_buffered_packets``.
        """
        return self.network.total_buffered_packets()

    # -- watchdog -----------------------------------------------------------------
    def _check_watchdog(self, cycle: int) -> None:
        watchdog = self.stall_watchdog_cycles
        if watchdog is None or cycle - self._last_progress_cycle < watchdog:
            return
        buffered = self.total_buffered_packets()
        if buffered == 0:
            self._last_progress_cycle = cycle
            return
        raise SimulationStallError(
            f"no packet delivered for {watchdog} cycles (cycle {cycle}) while "
            f"{buffered} packets are buffered in the network - possible "
            "deadlock or wiring bug\n" + self._stall_snapshot(cycle)
        )

    def _stall_census(self):
        """Backend seam: per router, in id order, ``(router_id, occupied_vcs,
        buffered packets in (port, VC, queue) order)``."""
        for router in self.network.routers:
            yield router.router_id, len(router.occupied_vcs()), (
                packet
                for ip in router.input_ports
                for ivc in ip.vcs
                for packet in ivc.buffer
            )

    def _stall_snapshot(self, cycle: int) -> str:
        """Diagnostic snapshot for :class:`SimulationStallError`.

        Lists the most-congested routers (occupied-VC counts) and the oldest
        in-flight packet — enough to tell a routing deadlock from a fault
        wiring bug without re-running under a debugger.
        """
        occupancy = []
        oldest = None
        oldest_router = -1
        for rid, occupied, packets in self._stall_census():
            if occupied:
                occupancy.append((occupied, rid))
            for packet in packets:
                if oldest is None or packet.creation_cycle < oldest.creation_cycle:
                    oldest = packet
                    oldest_router = rid
        occupancy.sort(reverse=True)
        lines = ["stall diagnostics:"]
        top = ", ".join(
            f"router {rid}: {count} occupied VCs" for count, rid in occupancy[:5]
        )
        lines.append(f"  busiest routers: {top or 'none'}")
        if oldest is not None:
            lines.append(
                f"  oldest buffered packet: pid={oldest.pid} "
                f"{oldest.src}->{oldest.dst} phase={oldest.phase.value} "
                f"hops={oldest.hops} fault_mode={oldest.fault_mode} "
                f"age={cycle - oldest.creation_cycle} cycles "
                f"at router {oldest_router}"
            )
            # With probes attached, add the recorded flight path of the
            # stuck packet and the last trigger decision on its router —
            # post-mortem material a plain occupancy census cannot give.
            if self.obs is not None:
                lines.extend(self.obs.stall_context(oldest.pid, oldest_router))
        return "\n".join(lines)
