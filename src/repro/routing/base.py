"""Routing-algorithm interface.

A routing algorithm in this library is an object that the cycle-level router
model consults and notifies:

* :meth:`RoutingAlgorithm.select_output` — called for the packet at the head
  of an input VC each cycle until it wins allocation; returns a
  :class:`RoutingDecision` (output port, next VC, misrouting flags) or
  ``None`` if the packet cannot be routed this cycle.
* :meth:`RoutingAlgorithm.on_inject` — called once when a packet is injected
  at its source router (source-routing decisions: Valiant intermediate,
  PiggyBacking's MIN/VAL choice).
* :meth:`RoutingAlgorithm.on_packet_arrival` — called when a packet is stored
  into an input buffer (leg changes such as "reached the Valiant
  intermediate router", ECtN partial-counter bookkeeping).
* :meth:`RoutingAlgorithm.on_packet_head` / :meth:`on_packet_leave_input` —
  called when a packet reaches the head of an input VC and when it leaves the
  input buffer; the contention-counter mechanisms maintain their counters in
  these hooks (Section III-B of the paper).
* :meth:`RoutingAlgorithm.on_grant` — called when allocation succeeds, so the
  algorithm can commit the state changes encoded in the decision.
* :meth:`RoutingAlgorithm.post_cycle` — called once per cycle on the whole
  network (PiggyBacking's saturation broadcast, ECtN's partial-array
  broadcast).

The hooks keep the router micro-architecture completely independent from the
routing policy, mirroring the paper's separation between the *misrouting
trigger* and the router datapath.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet
from repro.routing.deadlock import BUFFER_CLASS_ORDER, path_stage_vc, validate_path_model
from repro.topology.base import PortKind, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network
    from repro.network.router import Router
    from repro.topology.faults import FaultRuntime

__all__ = ["RoutingDecision", "RoutingAlgorithm", "UnsupportedTopologyError"]


class UnsupportedTopologyError(ValueError):
    """A routing mechanism was paired with a topology it is not defined for.

    Raised at construction time by mechanisms whose trigger or path policy
    is tied to structure a topology does not provide (e.g. ECtN's
    group-wide contention broadcast or PB's intra-group saturation ECN on a
    non-Dragonfly network), so a mismatched configuration fails loudly
    instead of silently misrouting.  Use :meth:`for_mechanism` to build the
    error: every message names the rejected topology (by registry name) and
    the nearest supported alternative, so callers can act on it.
    """

    @classmethod
    def for_mechanism(
        cls,
        mechanism: str,
        topology: "Topology",
        reason: str,
        alternative: str,
    ) -> "UnsupportedTopologyError":
        """Standard message: mechanism, topology name, reason, alternative."""
        name = getattr(topology.path_model, "topology", type(topology).__name__)
        return cls(
            f"{mechanism} is not defined for the {name!r} topology: {reason}. "
            f"Nearest supported alternative: {alternative}."
        )


class RoutingDecision(NamedTuple):
    """The outcome of a routing computation for one packet at one router.

    A ``NamedTuple`` rather than a dataclass: a decision is built for every
    head on every allocation round and tuple construction keeps that cheap.
    """

    output_port: int
    vc: int
    #: This hop is part of a nonminimal *global* detour (counts as global
    #: misrouting for the metrics once the packet crosses a global link).
    nonminimal_global: bool = False
    #: This hop is a nonminimal *local* detour inside a group.
    nonminimal_local: bool = False
    #: This hop is the local "proxy" step of an MM+L global misroute; the
    #: packet must take a global hop at the next router.
    set_must_misroute_global: bool = False
    #: This hop was produced by the fault fallback (a dead output port on
    #: the policy's chosen path): the packet enters *fault mode* and keeps
    #: to the fault-aware detours until delivery (see
    #: :meth:`RoutingAlgorithm.fault_decision`).
    set_fault_mode: bool = False


class RoutingAlgorithm(ABC):
    """Base class for all routing mechanisms."""

    #: Human-readable identifier used in reports and experiment tables.
    name: str = "abstract"

    #: Whether the mechanism needs the extra local VC of Table I (VAL & PB).
    needs_extra_local_vc: bool = False

    #: Whether the mechanism routes packets through an in-transit adaptive
    #: policy (the MM+L group policy, the nonminimal ring escape or the
    #: uplink multipath).  Set by
    #: :class:`~repro.routing.adaptive.AdaptiveInTransitRouting`; widens the
    #: construction-time deadlock validation to the adaptive path shapes.
    uses_in_transit_adaptive: bool = False

    #: Whether ``select_output`` is a pure function of the head packet and
    #: cycle-constant state (no RNG draws, no reads of state mutated by
    #: grants).  The router then reuses the first allocation round's decision
    #: for the later speedup rounds of the same cycle instead of recomputing
    #: it.  Mechanisms whose triggers draw random numbers (Base, ECtN, OLM,
    #: Hybrid) must leave this False: the number of ``select_output`` calls
    #: is part of their RNG-stream contract.
    decision_is_pure: bool = False

    def __init__(self, topology: Topology, params: SimulationParameters, rng):
        self.topology = topology
        self.params = params
        self.rng = rng
        #: Fault state of the current simulation, attached by the simulator
        #: via :meth:`attach_faults`; ``None`` on a healthy network, which
        #: keeps every fault check in the hot paths a single ``is None``.
        self.faults: Optional["FaultRuntime"] = None
        #: Observation hub (:mod:`repro.obs`), attached by the engine.
        #: ``None`` keeps the per-grant observability hook a single
        #: attribute check — the zero-overhead-when-disabled contract.
        self._obs = None
        # Lazy state of the fault-detour planners (see
        # ``_ladder_fault_decision``): the usable buffer-class chain and the
        # per-(epoch, target) layered shortest-path tables.
        self._fault_chain = None
        self._ladder_cache = None
        # The per-kind VC counts are fixed per mechanism; cache them so the
        # per-hop ``next_vc`` computation is pure integer arithmetic.
        self._global_vcs = self.num_vcs(PortKind.GLOBAL)
        self._local_vcs = self.num_vcs(PortKind.LOCAL)
        # Dateline-schedule topologies (the torus) assign ring VCs through
        # the topology's dateline state machine instead of the path-stage
        # formula; ``None`` everywhere else keeps the hot paths branch-cheap.
        self._dateline = (
            topology if topology.path_model.vc_schedule == "dateline" else None
        )
        # Up/down-schedule topologies (the fat tree) assign the VC purely by
        # the output port's direction (up -> 0, down -> 1); cache the
        # port-indexed table so hop decisions are one tuple lookup.
        self._updown_vcs = (
            topology.updown_port_vcs
            if topology.path_model.vc_schedule == "up_down"
            else None
        )
        # The topology's node -> router table, one tuple index per lookup
        # on the hot paths (the fat tree attaches nodes to leaf switches
        # only, so a division by nodes_per_router would not do).
        self._node_rid = topology._node_rid
        # Deadlock-freedom gate: every path shape this mechanism can take on
        # this topology must walk strictly increasing buffer classes within
        # the VC budget (see repro.routing.deadlock).  Oblivious/minimal
        # mechanisms take at most the Valiant shapes; the in-transit
        # adaptive policy additionally gates on the path model's capability
        # flag in AdaptiveInTransitRouting.
        validate_path_model(
            topology.path_model,
            local_vcs=self._local_vcs,
            global_vcs=self._global_vcs,
            include_valiant=self.needs_extra_local_vc,
            include_adaptive=self.uses_in_transit_adaptive,
        )
        # Flag-free (minimal/ejection) decisions are pure functions of
        # (output port, vc); they are immutable NamedTuples, so the hot
        # decision paths share one instance per pair instead of rebuilding
        # it for every head on every allocation round.
        max_vcs = max(
            self._global_vcs, self._local_vcs, self.num_vcs(PortKind.INJECTION)
        )
        self._plain_decisions = [
            [None] * max_vcs for _ in range(topology.router_radix)
        ]

    def plain_decision(self, port: int, vc: int) -> RoutingDecision:
        """Shared flag-free decision instance for ``(port, vc)``."""
        row = self._plain_decisions[port]
        decision = row[vc]
        if decision is None:
            decision = row[vc] = RoutingDecision(port, vc)
        return decision

    # ------------------------------------------------------------------ hooks
    @abstractmethod
    def select_output(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> Optional[RoutingDecision]:
        """Choose the output port and next VC for ``packet`` at ``router``."""

    def on_inject(self, router: "Router", packet: Packet, cycle: int) -> None:
        """Source-routing hook, called right before injection-buffer insertion."""

    def on_packet_arrival(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        """Called when ``packet`` is stored into an input buffer of ``router``."""

    def on_packet_head(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        """Called once when ``packet`` reaches the head of an input VC."""

    def on_packet_leave_input(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        """Called when ``packet`` leaves the input buffer (tail removed)."""

    def overridden_hooks(self) -> Tuple[bool, bool, bool]:
        """Which of ``on_packet_arrival`` / ``on_packet_head`` /
        ``on_packet_leave_input`` this mechanism overrides, in that order.

        The engines skip the no-op base hooks in their hot loops (MIN/VAL/OLM
        do not track heads; MIN does not watch arrivals).
        """
        cls = type(self)
        return (
            cls.on_packet_arrival is not RoutingAlgorithm.on_packet_arrival,
            cls.on_packet_head is not RoutingAlgorithm.on_packet_head,
            cls.on_packet_leave_input is not RoutingAlgorithm.on_packet_leave_input,
        )

    def trigger_observation(self, router: "Router", packet: Packet) -> Optional[dict]:
        """Draw-free snapshot of this mechanism's misroute trigger state.

        Called by the observation hub at grant time, for sampled packets
        only, so the cost never touches the unsampled hot path.  Grant time
        is the one point where trigger state is bit-identical across
        backends (the SoA engine elides provably no-op trigger
        re-evaluations, so per-consultation traces cannot be
        backend-invariant).  Note that ``on_packet_leave_input`` has
        already fired, so contention counters exclude the departing packet.

        Mechanisms without an adaptive trigger return ``None``.
        Implementations must not draw from an RNG stream or mutate any
        state.
        """
        return None

    def on_grant(
        self,
        router: "Router",
        port: int,
        vc: int,
        packet: Packet,
        decision: RoutingDecision,
        cycle: int,
    ) -> None:
        """Commit the routing decision once allocation succeeded."""
        if decision.set_must_misroute_global:
            packet.must_misroute_global = True
        elif self.topology.port_kinds[decision.output_port] is PortKind.GLOBAL:
            packet.must_misroute_global = False
        if decision.nonminimal_global:
            packet.globally_misrouted = True
        if decision.nonminimal_local:
            packet.locally_misrouted = True
        if decision.set_fault_mode:
            self._commit_fault_hop(packet, decision)
        if self._dateline is not None:
            self._dateline.commit_ring_hop(packet, router.router_id, decision.output_port)
        # Observability hook.  Both backends funnel every committed grant
        # through this method with identical arguments and ordering, which
        # makes it the single per-hop instrumentation point: one attribute
        # check when probes are off, and backend-invariant events when on
        # (the hub is draw-free and never mutates simulation state).
        obs = self._obs
        if obs is not None:
            obs.record_grant(self, router, port, vc, packet, decision, cycle)

    def _commit_fault_hop(self, packet: Packet, decision: RoutingDecision) -> None:
        """Commit a fault-fallback hop (kept out of the healthy grant path)."""
        faults = self.faults
        faults.fault_reroute_hops += 1
        if not packet.fault_mode:
            packet.fault_mode = True
            faults.rerouted_packets += 1
        # Fault mode overrides the MM+L commitments: a pending forced-global
        # step may no longer be satisfiable on the surviving graph.
        packet.must_misroute_global = False

    # ------------------------------------------------------------------ faults
    def attach_faults(self, faults: "FaultRuntime") -> None:
        """Bind the simulation's fault state to this mechanism.

        Called by the simulator after construction; the contention-counter
        mechanisms override this to additionally seed their counters with
        the degraded-link bias (a degraded link reads as persistently
        contended).
        """
        self.faults = faults

    def fault_decision(
        self, router: "Router", packet: Packet, cycle: int, in_port: int, in_vc: int
    ) -> Optional[RoutingDecision]:
        """Fault-fallback decision: a deadlock-free detour on the surviving
        graph.

        Invoked by the router's allocation stage when the policy's chosen
        output port is dead, or for a packet already in fault mode.  The
        detour is the topology's own schedule where it can express one —
        dimension-order steering over surviving rings on dateline
        topologies, the buffer-class ladder on path-stage ones — and the
        escape VC on the per-epoch spanning tree otherwise.  Fault mode is
        *sticky* until delivery: re-consulting the healthy policy after a
        detour could steer the packet straight back to the dead link (a
        livelock on topologies with a unique minimal gateway), while the
        per-epoch detour tables make strictly decreasing progress.

        Returns ``None`` when the destination router is unreachable on the
        surviving graph — the caller then drops and counts the packet
        instead of letting it stall the watchdog.
        """
        faults = self.faults
        topo = self.topology
        rid = router.router_id
        dst_router = topo.node_router(packet.dst)
        if rid == dst_router:
            return self.ejection_decision(router, packet)
        # A nonminimal intermediate that fell off the surviving graph (or
        # that fault mode makes moot) is abandoned for good: the packet
        # heads straight for its destination.  This is a property of the
        # network state, not of this allocation attempt, so it is committed
        # eagerly — the dateline leg bump below must be visible to the VC
        # computation of this very decision.
        target = dst_router
        intermediate = packet.valiant_router
        if intermediate is not None:
            if intermediate != rid and faults.reachable(rid, intermediate):
                target = intermediate
            else:
                packet.valiant_router = None
                if self._dateline is not None and packet.vc_leg == 0:
                    packet.vc_leg = 1
                    packet.ring_dim = -1
                    packet.ring_crossed = False
                    packet.ring_dir = 0
        if not faults.reachable(rid, target):
            return None
        kind_in = topo.port_kinds[in_port]
        if kind_in is not PortKind.INJECTION and in_vc == self._escape_vc(kind_in):
            # Already on the escape tree: stay there.  The chain->escape
            # transition being one-way is what keeps the combined channel
            # dependency graph acyclic.
            return self._escape_decision(router, packet)
        if self._dateline is not None:
            return self._dateline_fault_decision(router, packet, target)
        if self._updown_vcs is not None:
            # The path-stage class ladder is meaningless under the up/down
            # schedule (tree detours would have to revisit classes); the
            # escape tree is deadlock-free independently of it.
            return self._escape_decision(router, packet)
        return self._ladder_fault_decision(router, packet, target, in_port, in_vc)

    def _escape_vc(self, kind: PortKind) -> int:
        """Index of the dedicated fault-escape VC on ports of this kind.

        One past the mechanism's own VC budget; the router provisions it on
        every router-to-router link when fault injection is enabled.
        """
        return self._global_vcs if kind is PortKind.GLOBAL else self._local_vcs

    def _escape_decision(
        self, router: "Router", packet: Packet
    ) -> Optional[RoutingDecision]:
        """Last-resort fault detour: the escape VC on the spanning tree.

        Used when the topology's own deadlock-free schedule cannot express a
        surviving path (class budget exhausted on path-stage topologies,
        every uncorrected ring severed on dateline ones).  The escape class
        is deadlock-free by the up*/down* argument (see
        :meth:`~repro.topology.faults.FaultRuntime.escape_port`) and the
        tree path is unique, so delivery is guaranteed on any connected
        surviving graph.  Valiant intermediates are abandoned — nonminimal
        spreading is meaningless for tree-confined traffic.
        """
        faults = self.faults
        topo = self.topology
        rid = router.router_id
        dst_router = topo.node_router(packet.dst)
        packet.valiant_router = None
        if not faults.reachable(rid, dst_router):
            return None
        port = faults.escape_port(rid, dst_router)
        return RoutingDecision(
            output_port=port,
            vc=self._escape_vc(topo.port_kinds[port]),
            set_fault_mode=True,
        )

    def _ladder_fault_decision(
        self, router: "Router", packet: Packet, target: int, in_port: int, in_vc: int
    ) -> RoutingDecision:
        """Fault detour on path-stage topologies: the buffer-class ladder.

        Unconstrained shortest-path detours can exceed the hop budget of the
        path-stage VC chain; once the hop-counter assignment caps at the top
        class the strictly increasing class order is lost and faulted runs
        can deadlock (observed on the dragonfly).  The detour instead follows a
        shortest path in the *layered* surviving graph whose states are
        ``(router, next usable class)``: every hop consumes a buffer class
        of the matching kind from the global order ``L0 < G0 < L1 < L2 <
        G1 < L3`` (truncated to this mechanism's VC budget), starting
        strictly above the class the packet currently occupies.  Classes
        along any detour are therefore strictly increasing and the standard
        acyclicity argument holds verbatim.  A packet whose remaining class
        budget cannot reach the target (class-exhausted, not disconnected)
        transfers to the escape tree instead (:meth:`_escape_decision`),
        which is deadlock-free independently of the class chain.
        """
        topo = self.topology
        faults = self.faults
        rid = router.router_id
        chain = self._fault_ladder_chain()
        kind_in = topo.port_kinds[in_port]
        if kind_in is PortKind.INJECTION:
            rank = 0
        else:
            key = ("global" if kind_in is PortKind.GLOBAL else "local", in_vc)
            try:
                rank = chain.index(key) + 1
            except ValueError:  # aberrant (pre-fault capped) class
                rank = len(chain)
        step = self._ladder_step(target, rid, rank)
        dst_router = topo.node_router(packet.dst)
        if step is None and target != dst_router:
            # The class budget cannot carry the packet through the Valiant
            # intermediate; abandon it and aim straight for the destination.
            packet.valiant_router = None
            target = dst_router
            step = self._ladder_step(target, rid, rank)
        if step is not None:
            port, cls = step
            return RoutingDecision(
                output_port=port, vc=chain[cls][1], set_fault_mode=True
            )
        return self._escape_decision(router, packet)

    def _fault_ladder_chain(self):
        """Buffer-class chain usable by fault detours, in global class order."""
        chain = self._fault_chain
        if chain is None:
            chain = tuple(
                (kind, vc)
                for kind, vc in BUFFER_CLASS_ORDER
                if vc < (self._global_vcs if kind == "global" else self._local_vcs)
            )
            self._fault_chain = chain
        return chain

    def _ladder_step(self, target: int, rid: int, rank: int):
        """Next ``(port, chain index)`` of the shortest monotone detour.

        ``None`` when no path to ``target`` exists whose hops use only
        classes at chain index ``rank`` or later.  Tables are built once per
        ``(fault epoch, target)`` and cached.
        """
        faults = self.faults
        cache = self._ladder_cache
        if cache is None or cache[0] != faults.epoch:
            cache = (faults.epoch, {})
            self._ladder_cache = cache
        steps = cache[1].get(target)
        if steps is None:
            steps = self._build_ladder(target)
            cache[1][target] = steps
        if rank >= len(steps):
            return None
        return steps[rank][rid]

    def _build_ladder(self, target: int):
        """Layered-graph shortest-path tables towards ``target``.

        ``steps[k][r]`` is the first hop of the shortest surviving path from
        router ``r`` to ``target`` whose classes are drawn, strictly
        increasing, from chain index ``k`` onwards (``None`` if no such
        path).  Layer ``k`` only ever refers to layers ``> k``, so a single
        descending sweep computes everything; ascending port order makes
        tie-breaks deterministic.
        """
        topo = self.topology
        failed = self.faults.failed_ports
        chain = self._fault_ladder_chain()
        K = len(chain)
        # next_of[k][kind] = smallest chain index >= k of that kind.
        next_of: list = [None] * (K + 1)
        next_of[K] = {"local": None, "global": None}
        for k in range(K - 1, -1, -1):
            entry = dict(next_of[k + 1])
            entry[chain[k][0]] = k
            next_of[k] = entry
        num_routers = topo.num_routers
        radix = topo.router_radix
        port_kinds = topo.port_kinds
        INF = 10**9
        dist = [[INF] * num_routers for _ in range(K + 1)]
        steps = [[None] * num_routers for _ in range(K)]
        for k in range(K + 1):
            dist[k][target] = 0
        for k in range(K - 1, -1, -1):
            dk = dist[k]
            sk = steps[k]
            nk = next_of[k]
            for r in range(num_routers):
                if r == target:
                    continue
                dead = failed[r]
                best = INF
                best_step = None
                for port in range(radix):
                    kind = port_kinds[port]
                    if kind is PortKind.INJECTION or port in dead:
                        continue
                    nbr = topo.neighbor(r, port)
                    if nbr is None:
                        continue
                    c = nk["global" if kind is PortKind.GLOBAL else "local"]
                    if c is None:
                        continue
                    d = dist[c + 1][nbr[0]]
                    if d + 1 < best:
                        best = d + 1
                        best_step = (port, c)
                dk[r] = best
                sk[r] = best_step
        return steps

    def _dateline_fault_decision(
        self, router: "Router", packet: Packet, target: int
    ) -> RoutingDecision:
        """Fault detour on dateline (ring) topologies.

        Unconstrained shortest-path steering is *not* safe here: an
        arbitrary surviving path can revisit dimensions and re-cross
        datelines, which voids the dateline deadlock argument (and
        measurably deadlocks a faulted torus).  This
        fallback keeps the proof intact instead: dimension order over the
        *surviving* rings — correcting the lowest dimension whose ring arc
        to the target coordinate is fully alive in some direction — with one
        committed direction per traversal.  When the surviving path must
        regress to a lower dimension (a severed ring was skipped and is now
        traversable again) or reverse an already-crossed traversal, the
        packet spends its Valiant leg — a fresh ``(leg=1, ...)`` class
        prefix, exactly like passing a Valiant intermediate.  A packet that
        has no leg left, or whose every uncorrected ring is severed at its
        current position, transfers to the escape tree
        (:meth:`_escape_decision`) — deadlock-free independently of the
        dateline schedule.
        """
        topo = self._dateline
        faults = self.faults
        rid = router.router_id
        dst_router = self.topology.node_router(packet.dst)
        dim = direction = 0
        for _attempt in range(2):
            choice = self._surviving_ring_step(rid, target)
            if choice is None:
                return self._escape_decision(router, packet)
            dim, direction = choice
            regress = packet.ring_dim > dim
            # Any direction conflict on a committed traversal is a
            # violation, crossed or not: two same-class packets traversing
            # one ring in opposite directions already form a two-channel
            # dependency cycle.
            reverse = packet.ring_dim == dim and packet.ring_dir not in (
                0,
                direction,
            )
            if not (regress or reverse):
                break
            # The bump needs the leg-1 ring classes (2 per leg) provisioned
            # and unspent; MIN runs the torus with leg-0 classes only, and a
            # packet past its Valiant intermediate has already used the
            # leg-1 prefix.  Either way the dateline argument cannot absorb
            # the violating traversal — hand the packet to the escape tree.
            if packet.vc_leg != 0 or self._local_vcs < 4:
                return self._escape_decision(router, packet)
            # Spend the Valiant leg (and any intermediate with it) to start
            # the violating traversal in a fresh class prefix; recompute the
            # step against the final destination.
            packet.valiant_router = None
            packet.vc_leg = 1
            packet.ring_dim = -1
            packet.ring_crossed = False
            packet.ring_dir = 0
            target = dst_router
        port = topo.ring_port(dim, direction)
        return RoutingDecision(
            output_port=port,
            vc=topo.ring_vc(packet, rid, port),
            set_fault_mode=True,
        )

    def _surviving_ring_step(self, rid: int, target: int):
        """First correctable dimension towards ``target``: ``(dim, direction)``.

        A dimension is correctable when the ring arc from the current
        coordinate to the target coordinate is fully alive in one direction
        (shortest direction preferred).  Returns ``None`` when every
        uncorrected ring is severed on both sides at this position.
        """
        topo = self._dateline
        failed_ports = self.faults.failed_ports
        coords = topo.router_coords(rid)
        tcoords = topo.router_coords(target)
        for dim, k in enumerate(topo.dims):
            coord, tcoord = coords[dim], tcoords[dim]
            if coord == tcoord:
                continue
            preferred = topo.ring_direction(coord, tcoord, k)
            for direction in (preferred, -preferred):
                port = topo.ring_port(dim, direction)
                r, c = rid, coord
                alive = True
                while c != tcoord:
                    if port in failed_ports[r]:
                        alive = False
                        break
                    r, _ = topo.neighbor(r, port)
                    c = (c + direction) % k
                if alive:
                    return dim, direction
        return None

    def post_cycle(self, network: "Network", cycle: int) -> None:
        """Network-wide per-cycle hook (ECN / ECtN broadcasts).

        The engine calls it once per executed cycle, and only when a subclass
        overrides it: the stock no-op costs the other mechanisms nothing."""

    def post_cycle_horizon(self, cycle: int, fabric_idle: bool) -> Optional[int]:
        """Next cycle at which :meth:`post_cycle` must actually run.

        Consulted by the time-warp engine only when a subclass overrides
        :meth:`post_cycle`; ``fabric_idle`` says that no router holds or
        awaits a packet or a credit.  Returning ``cycle`` means "this very cycle" (no warp);
        ``None`` means "never, until other activity wakes the network up".
        The conservative default pins the engine to cycle-by-cycle stepping,
        so a mechanism that overrides ``post_cycle`` without thinking about
        time warp stays bit-identical to the non-warp engine.
        """
        return cycle

    # ------------------------------------------------------------ VC policies
    def num_vcs(self, kind: PortKind) -> int:
        """Number of virtual channels used on ports of the given kind."""
        if kind is PortKind.INJECTION:
            return self.params.injection_vcs
        if kind is PortKind.GLOBAL:
            return self.params.global_port_vcs
        if self.needs_extra_local_vc:
            return self.params.local_port_vcs_oblivious
        return self.params.local_port_vcs

    def next_vc(self, packet: Packet, output_kind: PortKind) -> int:
        """Path-stage VC of ``packet``'s next hop through a port of
        ``output_kind``: :func:`~repro.routing.deadlock.path_stage_vc` over
        the packet's stage counters and this mechanism's VC budget
        (:meth:`num_vcs`).  The construction-time deadlock check validates
        the same function.

        This is the **path-stage** schedule only; on dateline and up/down
        topologies callers must use :meth:`hop_vc`.
        """
        return path_stage_vc(
            packet.global_hops,
            packet.local_hops_in_group,
            output_kind,
            self._local_vcs,
            self._global_vcs,
        )

    def hop_vc(self, packet: Packet, router_id: int, port: int, kind: PortKind) -> int:
        """Schedule-aware VC for ``packet``'s next hop through ``port``.

        Path-stage topologies use :meth:`next_vc`; dateline topologies
        defer to :meth:`~repro.topology.base.Topology.ring_vc`, which needs
        the concrete (router, port) to locate the ring and its dateline;
        up/down topologies index the port-VC table
        (:attr:`~repro.topology.base.Topology.updown_port_vcs`).
        """
        if kind is PortKind.INJECTION:
            return 0
        if self._dateline is not None:
            return self._dateline.ring_vc(packet, router_id, port)
        if self._updown_vcs is not None:
            return self._updown_vcs[port]
        return self.next_vc(packet, kind)

    # --------------------------------------------------------------- utilities
    def ejection_decision(self, router: "Router", packet: Packet) -> RoutingDecision:
        """Decision delivering ``packet`` to its destination node at ``router``."""
        return self.plain_decision(self.topology.node_port(packet.dst), 0)

    def minimal_decision(self, router: "Router", packet: Packet) -> RoutingDecision:
        """Decision following the (unique) minimal path towards the destination."""
        topo = self.topology
        rid = router.router_id
        port = topo.minimal_output_port(rid, packet.dst)
        return self.plain_decision(
            port, self.hop_vc(packet, rid, port, topo.port_kinds[port])
        )
