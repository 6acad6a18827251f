"""Shared framework for in-transit nonminimal adaptive routing.

OLM and the three contention-based mechanisms of the paper (Base, Hybrid,
ECtN) share the same *misrouting policy* — where a packet may be diverted and
which paths are candidates (Section IV-A: "We implement the same misrouting
policy and deadlock avoidance mechanisms as OLM") — and differ only in the
*misrouting trigger*.  :class:`AdaptiveInTransitRouting` implements the
policy layer.  A topology whose :class:`~repro.topology.base.PathModel`
declares ``supports_in_transit_adaptive`` has an in-transit policy; its
``vc_schedule`` picks which one, because each policy is proven deadlock-free
under its own schedule only:

**Group policy** (``path_stage``: Dragonfly, flattened butterfly).  The MM+L
policy over regions and GLOBAL links:

* global misrouting may be selected in the source region while the packet
  has not yet crossed a global link, with MM+L candidates (own global
  links, plus local-proxy links at injection);
* once a nonminimal global link is chosen, the packet records its
  intermediate region and proceeds minimally to it
  (:meth:`~repro.topology.base.Topology.region_gateway`), then minimally to
  the destination (at most one global misroute per packet);
* local misrouting (one extra local hop) may be selected in the
  intermediate or destination region when the minimal output is a local
  link.

**Port-table policy** (``dateline``: torus; ``up_down``: fat tree).  A
static candidate list per minimal port is offered to the trigger.  On rings
it is the *ring escape* (cf. OutFlank routing): the opposite-direction port,
asked at the first hop of each ring traversal, which then commits to the
granted direction (up to ``k - 1`` links) so the dateline classes stay
monotone (:func:`repro.routing.deadlock.validate_dateline_shapes`).  On
trees it is the *uplink multipath*: the equal-cost sibling uplinks, asked at
every up hop, on the same up/down classes
(:func:`repro.routing.deadlock.validate_updown_shapes`).  A diversion is
accounted as a local misroute; every hop's VC is the schedule's
(:meth:`hop_vc`).

**The trigger** is one body for every mechanism.  A mechanism declares
the signals it reads, each by its threshold (``None``: not read), and
:meth:`AdaptiveInTransitRouting.choose_global_misroute` /
:meth:`AdaptiveInTransitRouting.choose_local_misroute` read them in this
order, the order of the compiled core's ``choose_global`` / ``choose``:

1. ``combined_threshold`` (ECtN): at an injection port only, the group's
   combined counter of the minimal global link over it diverts the packet
   to a global candidate whose combined counter is under it;
2. ``contention_threshold`` (Base, Hybrid, ECtN): the contention counter
   of the minimal port over it diverts the packet to a candidate whose
   counter is under it;
3. ``congestion_threshold`` (OLM, Hybrid): once the minimal output holds
   two packets, a candidate whose credit occupancy is under this fraction
   of the minimal output's qualifies.

Each step that finds a candidate draws one of them uniformly and ends the
trigger.  The port-table candidates are offered through the local-misroute
trigger (ring and tree ports carry the LOCAL kind).  Topologies without the
flag (the full mesh) reject the whole mechanism family with
:class:`UnsupportedTopologyError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import draws
from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet, RoutingPhase
from repro.routing.base import (
    RoutingAlgorithm,
    RoutingDecision,
    UnsupportedTopologyError,
)
from repro.routing.misrouting import (
    MisrouteCandidate,
    compute_ring_escape_candidates,
    compute_uplink_candidates,
)
from repro.topology.base import PortKind, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.router import Router

__all__ = ["AdaptiveInTransitRouting"]

# Module-level aliases: locals/globals resolve faster than enum attribute
# lookups in the per-head-per-round decision path.
_TO_INTERMEDIATE = RoutingPhase.TO_INTERMEDIATE
_GLOBAL = PortKind.GLOBAL
_LOCAL = PortKind.LOCAL
_INJECTION = PortKind.INJECTION

# The port-table policies' candidate enumerations, by VC schedule.
_PORT_TABLES = {
    "dateline": compute_ring_escape_candidates,
    "up_down": compute_uplink_candidates,
}


class AdaptiveInTransitRouting(RoutingAlgorithm):
    """Base class for OLM-style in-transit adaptive routing."""

    name = "adaptive"
    #: The path-stage VC assignment needs the fourth local VC on the longest
    #: allowed nonminimal paths (see :mod:`repro.routing.deadlock`); on
    #: dateline topologies the same budget covers the ring-escape classes.
    needs_extra_local_vc = True
    #: Widens the construction-time deadlock validation to the adaptive
    #: path shapes (MM+L hop kinds / long-way ring traversals).
    uses_in_transit_adaptive = True
    #: The trigger's signals (module doc, "The trigger"), set by each
    #: mechanism from its parameters; ``None``: the signal is not read.  A
    #: mechanism declaring ``combined_threshold`` also provides
    #: ``combined_view`` (ECtN's, which owns the combined counters).
    contention_threshold: Optional[int] = None
    congestion_threshold: Optional[float] = None
    combined_threshold: Optional[int] = None

    def __init__(self, topology: Topology, params: SimulationParameters, rng):
        # The path model declares that some in-transit policy is defined and
        # its VC schedule picks which (module doc).  None -> fail loudly.
        if not topology.path_model.supports_in_transit_adaptive:
            raise UnsupportedTopologyError.for_mechanism(
                self.name,
                topology,
                "in-transit misrouting needs Dragonfly-style regions with "
                "global links (the MM+L policy), rings with a nonminimal "
                "direction choice (the dateline escape policy), or "
                "equal-cost uplinks (the fat-tree multipath policy), and "
                "this topology provides none of them",
                "the topology-agnostic UGAL (or MIN/VAL)",
            )
        super().__init__(topology, params, rng)
        self._nodes_per_router = topology.nodes_per_router
        # The occupancy signal compares only against a minimal output that
        # holds a couple of packets: a relative comparison against an almost
        # empty queue would divert traffic on every transient collision.
        self._min_occupancy = 2 * params.packet_size_phits
        # The port-table policy's candidates of every minimal port (None:
        # the group policy), resolved once so the decision path is a lookup.
        enumerate_port = _PORT_TABLES.get(topology.path_model.vc_schedule)
        self._port_candidates: Optional[List[List[MisrouteCandidate]]] = None
        if enumerate_port is not None:
            ports = range(topology.router_radix)
            self._port_candidates = [enumerate_port(topology, port) for port in ports]
            # The (dimension, direction) of every ring port; None off rings.
            self._port_ring_dim: List[Optional[Tuple[int, int]]] = [
                topology.port_dimension(port)
                if self._dateline is not None and topology.port_kinds[port] is _LOCAL
                else None
                for port in ports
            ]
            # A diverted up hop keeps its minimal hop's up/down class: the
            # siblings of an uplink must all ride one VC (the SoA engine
            # stores one misroute VC per captured head).
            for port, candidates in enumerate(self._port_candidates):
                vcs = {self._updown_vcs[c.port] for c in candidates} if self._updown_vcs else ()
                if len(vcs) > 1:
                    raise ValueError(
                        f"the sibling uplinks of port {port} map to different "
                        f"up/down VCs {sorted(vcs)}"
                    )
        else:
            # One candidate tuple per router, shared by every routing key:
            # the router's global ports with the group each reaches, then the
            # local ports (the same objects on every router).  The candidate
            # lists are filtered views of it, and the SoA core walks it and
            # skips the excluded ports in place.  Built on a router's first
            # use: most routers of a short paper-scale run never ask.
            self._num_global_ports = len(topology.global_ports)
            self._local_candidates = tuple(
                MisrouteCandidate(port, _LOCAL, None) for port in topology.local_ports
            )
            self._router_candidates: List[Optional[Tuple[MisrouteCandidate, ...]]] = [
                None
            ] * topology.num_routers
            self._routers_per_group = topology.routers_per_region
            self._nodes_per_group = (
                topology.nodes_per_router * topology.routers_per_region
            )
            # (router, target_group) -> (output_port, is_global) for the
            # minimal step towards an intermediate group (static for a
            # fixed topology).
            self._towards_cache: Dict[Tuple[int, int], Tuple[int, bool]] = {}

    # ------------------------------------------------------ candidate lookups
    def router_candidates(self, router_id: int) -> Tuple[MisrouteCandidate, ...]:
        """The shared candidate tuple of ``router_id``: its global ports with
        the group each reaches, then the local ports."""
        candidates = self._router_candidates[router_id]
        if candidates is None:
            topology = self.topology
            candidates = self._router_candidates[router_id] = tuple(
                MisrouteCandidate(port, _GLOBAL, topology.port_target_region(router_id, port))
                for port in topology.global_ports
            ) + self._local_candidates
        return candidates

    def global_candidates(
        self, router_id: int, dst_group: int, minimal_port: int, allow_local_proxy: bool
    ) -> List[MisrouteCandidate]:
        """The MM+L global-misroute candidates of one routing key, in
        :func:`compute_global_candidates`'s order: the router's shared tuple
        without the minimal port, without the global ports into the
        destination or the current group, and without the local ports unless
        ``allow_local_proxy``."""
        shared = self.router_candidates(router_id)
        current_group = router_id // self._routers_per_group
        split = self._num_global_ports
        candidates = [
            candidate
            for candidate in shared[:split]
            if candidate.port != minimal_port
            and candidate.target_group != dst_group
            and candidate.target_group != current_group
        ]
        if allow_local_proxy:
            candidates += [c for c in shared[split:] if c.port != minimal_port]
        return candidates

    def local_candidates(self, minimal_port: int) -> List[MisrouteCandidate]:
        """The local-detour candidates of one minimal port: the local ports
        but the minimal one (none unless the minimal port is local)."""
        if self.topology.port_kinds[minimal_port] is not _LOCAL:
            return []
        return [c for c in self._local_candidates if c.port != minimal_port]

    # ----------------------------------------------------------------- hooks
    def on_packet_arrival(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        if (
            packet.phase is RoutingPhase.TO_INTERMEDIATE
            and packet.intermediate_group is not None
            and self.topology.router_region(router.router_id) == packet.intermediate_group
        ):
            packet.intermediate_group = None
            packet.phase = RoutingPhase.MINIMAL

    # -------------------------------------------------------------- decisions
    def select_output(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> Optional[RoutingDecision]:
        if self._port_candidates is not None:
            return self._port_table_output(router, port, vc, packet, cycle)
        topo = self.topology
        rid = router.router_id
        dst = packet.dst
        dst_router = dst // self._nodes_per_router
        if rid == dst_router:
            return self.plain_decision(dst % self._nodes_per_router, 0)

        if packet.phase is _TO_INTERMEDIATE and packet.intermediate_group is not None:
            return self._towards_group(router, packet, packet.intermediate_group)

        current_group = rid // self._routers_per_group
        dst_group = dst_router // self._routers_per_group
        # The contention tracker already computed the minimal port when this
        # packet reached its buffer head at this router (and clears it when
        # the packet leaves), so reuse it instead of recomputing per round.
        minimal_port = packet.contention_port
        if minimal_port is None:
            minimal_port = topo.minimal_output_port(rid, dst)
        minimal_kind = topo.port_kinds[minimal_port]

        # --- committed MM+L proxy: the previous hop was the local step of a
        # global misroute, so this hop must leave the group through a global
        # link (this keeps the buffer-class order acyclic).
        if (
            packet.must_misroute_global
            and dst_group != current_group
            and packet.global_hops == 0
        ):
            return self._forced_global_decision(router, packet, minimal_port, cycle)

        # --- global misrouting (source group, before the first global hop) ----
        if (
            dst_group != current_group
            and packet.global_hops == 0
            and not packet.globally_misrouted
        ):
            allow_proxy = packet.hops == 0
            candidates = self.global_candidates(rid, dst_group, minimal_port, allow_proxy)
            if self.faults is not None:
                candidates = self.faults.filter_candidates(rid, candidates)
            chosen = self.choose_global_misroute(
                router, port, packet, minimal_port, candidates, cycle
            )
            if chosen is not None:
                if chosen.kind is _GLOBAL:
                    return RoutingDecision(
                        output_port=chosen.port,
                        vc=self.next_vc(packet, _GLOBAL),
                        nonminimal_global=True,
                        set_intermediate_group=chosen.target_group,
                    )
                # Local proxy hop: move to a neighbouring router of the group
                # and misroute through one of its global links (the "+L" of
                # MM+L).  The global hop at the next router is mandatory.
                return RoutingDecision(
                    output_port=chosen.port,
                    vc=self.next_vc(packet, _LOCAL),
                    set_must_misroute_global=True,
                )

        # --- local misrouting ---------------------------------------------------
        # Allowed for the first local hop of the destination group of minimal
        # packets and of the intermediate group of globally misrouted packets;
        # not in the destination group after a global misroute (the path-stage
        # VC assignment has no class left for that extra hop).
        if (
            minimal_kind is _LOCAL
            and packet.local_hops_in_group == 0
            and packet.global_hops <= 1
            and (current_group == dst_group or packet.global_hops == 1)
        ):
            candidates = self.local_candidates(minimal_port)
            if self.faults is not None:
                candidates = self.faults.filter_candidates(rid, candidates)
            chosen = self.choose_local_misroute(
                router, port, packet, minimal_port, candidates, cycle
            )
            if chosen is not None:
                return RoutingDecision(
                    output_port=chosen.port,
                    vc=self.next_vc(packet, _LOCAL),
                    nonminimal_local=True,
                )

        # Inlined ``next_vc`` for the minimal fallback (the common case);
        # see the NOTE on RoutingAlgorithm.next_vc — keep in sync.
        if minimal_kind is _GLOBAL:
            g = packet.global_hops
            last = self._global_vcs - 1
            min_vc = g if g < last else last
        elif minimal_kind is _LOCAL:
            g = packet.global_hops
            l = 1 if packet.local_hops_in_group else 0
            min_vc = l if g == 0 else 2 * g - 1 + l
            last = self._local_vcs - 1
            if min_vc > last:
                min_vc = last
        else:
            min_vc = 0  # ejection
        # Shared flag-free instance (see RoutingAlgorithm.plain_decision),
        # inlined for the hottest return path.
        row = self._plain_decisions[minimal_port]
        decision = row[min_vc]
        if decision is None:
            decision = row[min_vc] = RoutingDecision(minimal_port, min_vc)
        return decision

    def _port_table_output(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> RoutingDecision:
        """Decision path of the port-table policy (ring escape, uplink
        multipath).

        The trigger is asked over the minimal port's candidates, except in
        the middle of a ring traversal: the direction granted at its first
        hop is held until the dimension is done, even where the minimal
        direction would flip past the half-ring tie (re-evaluating mid-ring
        could cross the dateline twice and void the deadlock argument).
        """
        rid = router.router_id
        dst = packet.dst
        if rid == self._node_rid[dst]:
            return self.plain_decision(dst % self._nodes_per_router, 0)
        # The contention tracker already computed the minimal port for this
        # head (and clears it when the packet leaves); reuse it per round.
        out = packet.contention_port
        if out is None:
            out = self.topology.minimal_output_port(rid, dst)
        candidates = self._port_candidates[out]
        ring = self._port_ring_dim[out]
        if ring is not None and packet.ring_dim == ring[0] and packet.ring_dir != 0:
            # Mid-traversal: committed to a direction.  Continuation hops of
            # an escaped traversal carry no misroute flag — the escape was
            # accounted once, at the diverting hop.
            if packet.ring_dir != ring[1]:
                out = candidates[0].port
        elif candidates:
            if self.faults is not None:
                # A dead minimal port is handled downstream by the router's
                # fault resolution; here only the diversion keeps off dead
                # links.
                candidates = self.faults.filter_candidates(rid, candidates)
            chosen = self.choose_local_misroute(router, port, packet, out, candidates, cycle)
            if chosen is not None:
                return RoutingDecision(
                    output_port=chosen.port,
                    vc=self.hop_vc(packet, rid, chosen.port, _LOCAL),
                    nonminimal_local=True,
                )
        return self.plain_decision(out, self.hop_vc(packet, rid, out, _LOCAL))

    def _forced_global_decision(
        self, router: "Router", packet: Packet, minimal_port: int, cycle: int
    ) -> RoutingDecision:
        """Global hop forced after an MM+L local proxy step.

        Prefers the trigger-approved candidates; if none qualifies any global
        port avoiding the current and destination groups is taken, and as a
        last resort the minimal global link (if this router owns it).
        """
        topo = self.topology
        candidates = self.global_candidates(
            router.router_id, topo.node_region(packet.dst), minimal_port, False
        )
        if self.faults is not None:
            candidates = self.faults.filter_candidates(router.router_id, candidates)
        chosen = self.choose_global_misroute(
            router, 0, packet, minimal_port, candidates, cycle
        )
        if chosen is None:
            chosen = self.pick_random(list(candidates))
        if chosen is not None:
            return RoutingDecision(
                output_port=chosen.port,
                vc=self.next_vc(packet, PortKind.GLOBAL),
                nonminimal_global=True,
                set_intermediate_group=chosen.target_group,
            )
        # No usable nonminimal global link: fall back to the minimal path,
        # which from this router must be a global hop if it exists here.
        minimal_kind = topo.port_kinds[minimal_port]
        return RoutingDecision(
            output_port=minimal_port, vc=self.next_vc(packet, minimal_kind)
        )

    def _towards_group(
        self, router: "Router", packet: Packet, target_group: int
    ) -> RoutingDecision:
        """Minimal step towards ``target_group`` (used while heading to the
        intermediate group of a global misroute)."""
        rid = router.router_id
        if rid // self._routers_per_group == target_group:
            # Arrival hook normally clears this state; fall back to minimal.
            return self.minimal_decision(router, packet)
        key = (rid, target_group)
        cached = self._towards_cache.get(key)
        if cached is None:
            cached = self.topology.region_gateway(rid, target_group)
            self._towards_cache[key] = cached
        out_port, is_global = cached
        if is_global:
            return RoutingDecision(
                output_port=out_port,
                vc=self.next_vc(packet, PortKind.GLOBAL),
                nonminimal_global=True,
            )
        return RoutingDecision(output_port=out_port, vc=self.next_vc(packet, PortKind.LOCAL))

    # ------------------------------------------------------------- triggers
    def choose_global_misroute(
        self,
        router: "Router",
        port: int,
        packet: Packet,
        minimal_port: int,
        candidates: Sequence[MisrouteCandidate],
        cycle: int,
    ) -> Optional[MisrouteCandidate]:
        """The candidate to misroute through, or ``None`` to stay minimal:
        the combined counters at an injection port, then the local trigger."""
        threshold = self.combined_threshold
        if threshold is not None and self.topology.port_kinds[port] is _INJECTION:
            combined, minimal, base = self.combined_view(
                router.router_id, packet.dst // self._nodes_per_group
            )
            if combined[minimal] > threshold:
                chosen = self.pick_random(
                    [
                        candidate
                        for candidate in candidates
                        if candidate.kind is _GLOBAL
                        and combined[base + candidate.port] < threshold
                    ]
                )
                if chosen is not None:
                    return chosen
        return self.choose_local_misroute(
            router, port, packet, minimal_port, candidates, cycle
        )

    def choose_local_misroute(
        self,
        router: "Router",
        port: int,
        packet: Packet,
        minimal_port: int,
        candidates: Sequence[MisrouteCandidate],
        cycle: int,
    ) -> Optional[MisrouteCandidate]:
        """The detour candidate, or ``None`` to stay minimal: the contention
        counters, then the credit occupancy."""
        threshold = self.contention_threshold
        if threshold is not None:
            counts = self._counter_arrays[router.router_id].counts
            if counts[minimal_port] > threshold:
                chosen = self.pick_random(
                    [candidate for candidate in candidates if counts[candidate.port] < threshold]
                )
                if chosen is not None:
                    return chosen
        ratio = self.congestion_threshold
        if ratio is None:
            if threshold is None:
                raise NotImplementedError(f"{type(self).__name__} declares no trigger signal")
            return None
        occupancy = router.output_occupancy
        occ_min = occupancy(minimal_port)
        if occ_min < self._min_occupancy:
            return None
        limit = ratio * occ_min
        return self.pick_random(
            [candidate for candidate in candidates if occupancy(candidate.port) < limit]
        )

    def trigger_observation(self, router: "Router", packet: Packet) -> Optional[dict]:
        """The declared signals of ``packet``'s minimal port at grant time
        (``None`` when no counter or occupancy signal is declared).

        The minimal port is recomputed from the topology because at grant
        time ``contention_port`` has already been cleared by the tracker's
        leave hook; the counter value likewise excludes the departing
        packet (post-decrement semantics, identical in both backends).
        """
        if self.contention_threshold is None and self.congestion_threshold is None:
            return None
        rid = router.router_id
        port = self.topology.minimal_output_port(rid, packet.dst)
        if self.contention_threshold is None:
            return {
                "signal": "occupancy",
                "port": port,
                "value": router.output_occupancy(port),
                "threshold": self.congestion_threshold,
                "min_occupancy": self._min_occupancy,
            }
        observation = {
            "signal": "contention",
            "port": port,
            "value": self._counter_arrays[rid].counts[port],
            "threshold": self.contention_threshold,
        }
        if self.congestion_threshold is not None:
            observation["signal"] = "contention+congestion"
            observation["occupancy"] = router.output_occupancy(port)
            observation["congestion_threshold"] = self.congestion_threshold
        if self.combined_threshold is not None:
            observation["signal"] = "contention+ectn"
            observation["combined_threshold"] = self.combined_threshold
        return observation

    # ------------------------------------------------------------- utilities
    def pick_random(self, candidates: List[MisrouteCandidate]) -> Optional[MisrouteCandidate]:
        if not candidates:
            return None
        return candidates[draws.integers(self.rng, 0, len(candidates))]
