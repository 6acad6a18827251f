"""Struct-of-arrays simulation engine — the router model over flat state.

:class:`SoAEngine` plugs into the cycle driver of
:class:`repro.simulation.engine.Engine` (``step``, ``run``, the watchdog
and the stall report are inherited) and implements only the backend seams:
it advances the network through *exactly* the same sequence of state
changes, routing-hook invocations and RNG draws as the object model, but
reads and writes the flat arrays of
:class:`~repro.simulation.soa.state.SoAState` instead of chasing
``Router``/``InputPort``/``OutputPort`` objects.  The speed comes from six
places:

* **flat state** — the begin/commit/release phases are integer arithmetic
  on Python lists instead of attribute loads across an object graph;
* **a compiled hop chain** — that arithmetic runs in C: ``_core.c``, one
  CPython extension type bound to this engine's :class:`SoAState`, holds the
  state's own lists and calendars and implements credit returns, link
  arrivals, the pop / commit / release chain of a hop, the separable
  allocator, the allocation rounds and the router-major walk of a cycle
  (see "The compiled core" below);
* **decision capture** — routing decisions are classified once per buffer
  head instead of re-derived from scratch every allocation round.  Heads
  whose decision cannot change while they wait (ejection, towards-
  intermediate, pure mechanisms) carry a cached request; heads governed by an
  adaptive trigger carry their (static) candidate list and VC assignments,
  and only the trigger itself — a couple of counter comparisons and at most
  one RNG draw — runs per round, exactly as many times and in exactly the
  same order as the object model's ``select_output`` calls;
* **event calendars** — credit returns, link arrivals and output-port
  releases are bucketed by absolute due cycle, so a step pops exactly the
  events due now and visits only routers holding an occupied head; a router
  that merely waits costs nothing;
* **output ports booked at grant time** — a constant-latency pipeline, a
  FIFO output buffer and a work-conserving link make a hop's output-side
  timeline a function of the grant cycle: the core's ``commit`` computes it,
  schedules the downstream arrival and leaves one release event to give the
  buffer space back — three calendar events per hop, no output-side queue;
* **clean-router skipping** — an allocation pass that produced no grant and
  consumed no RNG draw is a pure function of state that only a known set of
  events can change (a credit return or link arrival at the router, an
  output-buffer drain, a new buffer head, an ECtN broadcast).  The router is
  marked *clean* and its allocate phase is skipped until one of those events
  fires; the skipped evaluations are observationally identical no-ops, so
  results and RNG streams are unchanged.  Under saturation — where most
  heads are blocked on credits for long stretches — this removes the bulk
  of the per-cycle work.

Buffer-head keys are flat integers ``k = port * V + vc`` (their numeric
order equals the object model's ``(port, vc)`` tuple order), and captured
requests are plain tuples ``(in_port, in_vc, out_port, size, decision,
out_g, credit_q)`` whose last two fields precompute the admission-check
indices.  ``AllocationRequest`` is a NamedTuple with the same first five
fields, so the transcribed separable allocator accepts both shapes.

The compiled core
-----------------
``self._core`` (``_core.c``, built on first use by
:mod:`repro.simulation.soa._loader`) runs everything of a cycle's router phase
that neither draws nor can be overridden, over the *same* Python lists, tuples,
dicts and ``Packet`` objects this module and its readers see — nothing is
copied into typed buffers, so :class:`RouterView`, the obs readers, the
capture functions and every test that inspects ``st.*`` read live state.  What
stays Python is called from C with the arguments, and in the order, documented
here: the routing hooks (``on_grant``, ``on_packet_head``,
``on_packet_arrival``, ``on_packet_leave_input``, looked up by name on the
routing instance on every call, so a wrapper installed on the class later is
seen), the capture function (``self._capture``), :meth:`_open_request` and the
``_choose*`` transcriptions (they draw from the routing stream),
:meth:`_live_request` / :meth:`_resolve_faults` / :meth:`_drop_head` (``LIVE``
rows, fault runs), ``Packet.record_hop``, ``metrics.record_*`` and the obs
sites.  ``_try_inject`` stays Python as well: it runs once per injected
packet, around two hook calls.  The core never holds the engine — the engine
is an argument of ``router_phase`` — so engine → core is the only edge between
the two, and the type takes part in cyclic collection.  There is no pure-Python
twin of the compiled functions: where no C compiler works,
``create_engine("soa", …)`` runs the bit-identical ``object`` engine instead
(debug a suspected core bug with ``REPRO_BACKEND=object``).

Row kinds
---------
There is one allocation path, the core's ``allocate``.  Every buffer head
is a *row*, one tuple written once into ``_rows[q]`` by the capture function
the constructor binds and read by every round: ``(FIXED, request)``, or for a
gate ``(kind, fallback request, minimal port, candidates, global VC, local
VC, ectn)`` with ``ectn`` the injection-side constants of an ECtN head
(``None`` otherwise).  A ``q`` nobody captured holds ``None`` and answers as
``LIVE``.  Which capture function is bound depends only on what the code can
observe: the exact routing class, its path policy, whether a fault runtime is
attached.

======  ===================  ==========================  =========  ==========
kind    captured by          per round                   may draw   may clean
======  ===================  ==========================  =========  ==========
FIXED   every capture        admission check of the      no         yes
                             cached request
FORCED  ``_capture_group``   global trigger, then a      yes        if no draw
                             uniform pick
GLOBAL  ``_capture_group``   closed gate inline, else    open gate  if no draw
                             the global trigger
LOCAL   ``_capture_group``,  closed gate inline, else    open gate  if no draw
        ``_capture_ring``,   the local trigger over the
        ``_capture_uplink``  captured candidates
LIVE    nobody               ``select_output`` +         yes        never
                             ``_resolve_faults``
======  ===================  ==========================  =========  ==========

``_capture_pure`` (healthy MIN / VAL / UGAL / PB) evaluates ``select_output``
once per head lifetime and stores a ``FIXED`` row.  The adaptive captures
(healthy OLM / Base / Hybrid / ECtN; "trigger" above is the transcription of
the mechanism's ``choose_*`` hooks) store ``FIXED`` for ejection, towards-
intermediate, mid-ring-traversal, down-hop and gate-less heads:
``_capture_group`` is the MM+L policy (Dragonfly, flattened butterfly) —
``FORCED`` is the committed local-proxy step, ``GLOBAL`` the source-group
gate, ``LOCAL`` the local-misroute gate; ``_capture_ring`` is the ring-escape
policy (torus) — ``LOCAL`` at the first hop of a ring traversal;
``_capture_uplink`` is the uplink-multipath policy (fat tree) — ``LOCAL``
where the minimal port is an uplink with siblings.  With a fault runtime
attached, or a routing class the engine has no transcription for (exact type
match: a subclass may override the trigger), nothing is captured and every
head is ``LIVE``: ``routing.select_output`` runs per round on a
:class:`~repro.simulation.soa.state.RouterView`, the object allocate loop
verbatim.  A router may be marked clean only after a grant-free *and*
draw-free pass, so a ``LIVE`` row never lets it.

Every deviation from ``Engine``/``Router`` behaviour is a bug; the golden,
time-warp and property suites assert bit-identical results.
"""

from __future__ import annotations

from bisect import insort
from typing import List

from repro.network.packet import RoutingPhase
from repro.routing.base import RoutingDecision
from repro.routing.minimal import MinimalRouting
from repro.routing.valiant import ValiantRouting
from repro.routing.ugal import UGALRouting
from repro.routing.piggyback import PiggybackRouting
from repro.routing.olm import OLMRouting
from repro.routing.contention.base_contention import BaseContentionRouting
from repro.routing.contention.hybrid import HybridContentionRouting
from repro.routing.contention.ectn import ECtNRouting
from repro.simulation.engine import _NO_EVENT, Engine
from repro.simulation.soa._loader import load_core
from repro.simulation.soa.state import SoAState
from repro.topology.base import PortKind

__all__ = ["SoAEngine"]

_GLOBAL = PortKind.GLOBAL
_LOCAL = PortKind.LOCAL
_TO_INTERMEDIATE = RoutingPhase.TO_INTERMEDIATE

# Row kinds (see module docstring).
ROW_FIXED = 0  # decision constant while the head waits (cached request)
ROW_FORCED = 1  # committed MM+L proxy: forced global hop, trigger per round
ROW_GLOBAL = 2  # source-group global-misroute gate, trigger per round
ROW_LOCAL = 3  # local-misroute / ring-escape / uplink gate, trigger per round
# ``LIVE`` is the absence of a row: ``select_output`` per round.

# Trigger transcriptions of the adaptive captures.
MECH_OLM = 0
MECH_BASE = 1
MECH_HYBRID = 2
MECH_ECTN = 3

_ADAPTIVE_MECHS = {
    OLMRouting: MECH_OLM,
    BaseContentionRouting: MECH_BASE,
    HybridContentionRouting: MECH_HYBRID,
    ECtNRouting: MECH_ECTN,
}
_PURE_MECHS = (MinimalRouting, ValiantRouting, UGALRouting, PiggybackRouting)


class SoAEngine(Engine):
    """Drop-in :class:`Engine` over :class:`SoAState` (see module doc)."""

    __slots__ = (
        "_st",
        "_core",
        "_mech",
        "_capture",
        "_memo",
        "_routing",
        "_notify_arrival",
        "_drp",
        "_rows",
        # trigger constants of the adaptive captures
        "_counters",
        "_cth",
        "_hyb_cong",
        "_olm_th",
        "_olm_min_occ",
        "_pkt2",
        "_ectn_cth",
        # routing broadcasts
        "_pb_scan",
        "_draws",
    )

    def __init__(self, network, traffic, **engine_options):
        super().__init__(network, traffic, **engine_options)
        faults = self.faults
        st = self._st
        routing = self._routing = network.routing
        hooks = routing.overridden_hooks()
        self._notify_arrival = hooks[0]
        self._drp: List = []
        self._draws = 0

        # Which capture function writes the rows.  Exact type matching: a
        # subclass may override the trigger a transcription assumes, so it
        # gets no capture — every head stays a LIVE row — like a fault run.
        # The function is stored unbound (``capture(self, ...)``): a bound
        # method of ``self`` kept on ``self`` is a reference cycle, and the
        # engine should be reclaimed by reference counting.
        rcls = type(routing)
        engine_cls = type(self)
        self._mech = -1
        self._capture = None
        if faults is None:
            if rcls in _PURE_MECHS:
                self._capture = engine_cls._capture_pure
            elif rcls in _ADAPTIVE_MECHS:
                self._mech = _ADAPTIVE_MECHS[rcls]
                if routing._ring_escape:
                    self._capture = engine_cls._capture_ring
                elif routing._uplink_multipath:
                    self._capture = engine_cls._capture_uplink
                else:
                    self._capture = engine_cls._capture_group
        # LIVE rows of a ``decision_is_pure`` mechanism reuse round 1's
        # decision in the later rounds of a cycle, as ``Router.allocate`` does.
        self._memo = {} if routing.decision_is_pure else None

        # One row per buffer head (layout: "Row kinds" in the module doc),
        # written by the capture function; ``None`` answers as ``LIVE``.
        self._rows: List = [None] * (st.R * st.P * st.V)
        if self._mech >= 0:
            params = routing.params
            self._pkt2 = 2 * params.packet_size_phits
            if self._mech == MECH_OLM:
                self._olm_th = routing._olm_threshold
                self._olm_min_occ = routing._min_occupancy
            else:
                self._counters = routing._counter_arrays
                self._cth = routing._threshold
                if self._mech == MECH_HYBRID:
                    self._hyb_cong = routing.congestion_threshold
                elif self._mech == MECH_ECTN:
                    self._ectn_cth = routing._combined_threshold

        # The compiled hop chain over this state (``_core.c``).  It tests the
        # closed gates of the adaptive rows inline, so it is handed what they
        # compare: OLM's minimum occupancy, or the counter arrays and the
        # threshold of Base / ECtN (Hybrid has no draw-free closed gate).
        counters = threshold = None
        if self._mech == MECH_OLM:
            threshold = self._olm_min_occ
        elif self._mech in (MECH_BASE, MECH_ECTN):
            counters, threshold = self._counters, self._cth
        self._core = load_core().Core(
            st, routing, self._rows, self._drp, hooks,
            network.params.internal_speedup, network.params.router_latency,
            self._mech, counters, threshold,
        )

        # There are no object routers on this backend, so a mechanism's
        # post_cycle hook has nothing to scan.  PB's scan is transcribed
        # against the flat state; ECtN's hook reads only the routing's own
        # arrays and runs as is; anything else must use the object backend.
        # The hooks are closures over the arrays they read, not bound methods
        # of ``self`` (see ``_capture`` above).
        self._pb_scan = None
        if self._post_cycle is not None:
            hook = rcls.post_cycle
            if hook is PiggybackRouting.post_cycle:
                self._pb_scan = _pb_scan(st, routing)
                self._post_cycle = _pb_post_cycle(st, routing, self._pb_scan)
            elif hook is ECtNRouting.post_cycle:
                self._post_cycle = _ectn_post_cycle(st, routing)
            else:
                raise ValueError(
                    f"backend 'soa' has no transcription of the post_cycle hook "
                    f"of {rcls.__name__}; use backend='object'"
                )

    def _build_router_state(self, network) -> None:
        """The flat state, from the port specs; no ``Router`` is built."""
        self._st = SoAState(network)

    # ------------------------------------------------------------------ warp
    def _calendar_horizon(self) -> int:
        """Earliest due cycle over the three calendars (``_NO_EVENT``: none)."""
        st = self._st
        horizon = _NO_EVENT
        for calendar in (st.cred_cal, st.arr_cal, st.svc_cal):
            if calendar:
                due = min(calendar)
                if due < horizon:
                    horizon = due
        return horizon

    def _router_horizon(self, cycle: int) -> int:
        # An occupied head retries allocation every cycle.
        return cycle if self._st.active else self._calendar_horizon()

    # ---------------------------------------------------------- router phase
    def _router_phase(self, cycle: int):
        """The events due this cycle, then allocation and output service
        router by router, then retirement —
        all of it in the compiled core, which reads ``metrics`` / ``obs`` /
        ``faults`` off this engine each cycle."""
        delivered_now, dropped_now, visited_routers = self._core.router_phase(self, cycle)
        # The router half of the warp horizon is "now" while any head is
        # occupied (allocation retries every cycle), else the earliest
        # calendar key.
        router_hint = -1 if self._st.active else self._calendar_horizon()
        return delivered_now, dropped_now, visited_routers, router_hint

    # ----------------------------------------------------------- observation
    def _make_obs_reader(self):
        from repro.obs.readers import SoAStateReader

        return SoAStateReader(self._st)

    # ------------------------------------------------------------- injection
    def _try_inject(self, node, cycle: int) -> None:
        """``ComputeNode.try_inject`` against the flat state.

        The routing hooks receive the live :class:`RouterView` — UGAL/PB's
        ``on_inject`` reads ``router.output_occupancy``, which must observe
        SoA state (``node.router`` is ``None`` on this backend).
        """
        queue = node.source_queue
        packet = queue[0]
        st = self._st
        rid = st.node_rid[node.node_id]
        port = node.port
        g = rid * st.P + port
        num_vcs = st.in_nvcs[g]
        base_q = g * st.V
        pointer = node._vc_pointer
        size = packet.size_phits
        in_free = st.in_free
        for offset in range(num_vcs):
            vc = (pointer + offset) % num_vcs
            q = base_q + vc
            if in_free[q] < size:
                continue
            queue.popleft()
            packet.injection_cycle = cycle
            routing = self._routing
            view = st.views[rid]
            routing.on_inject(view, packet, cycle)
            dq = st.in_q[q]
            if dq is None:
                dq = st.in_q[q] = []
            dq.append(packet)
            in_free[q] = in_free[q] - size
            if len(dq) == 1:
                k = port * st.V + vc
                insort(st.occ[rid], k)
                st.new_heads[rid].append(k)
                st.alloc_clean[rid] = False
            self._core.activate(rid)
            if self._notify_arrival:
                routing.on_packet_arrival(view, port, vc, packet, cycle)
            node._vc_pointer = (vc + 1) % num_vcs
            node.next_injection_cycle = cycle + size
            node.injected_packets += 1
            return

    # ------------------------------------------------------------- LIVE rows
    def _live_request(self, rid, base, q, k, head, cycle, round_index):
        """A ``LIVE`` row's request: the per-head body of ``Router.allocate``
        verbatim, ``select_output`` on the view plus the fault resolution."""
        st = self._st
        port, vc = divmod(k, st.V)
        memo = self._memo
        if memo is None or round_index == 0:
            decision = self._routing.select_output(st.views[rid], port, vc, head, cycle)
            if memo is not None:
                memo[q] = decision
        else:
            decision = memo[q]
        if self.faults is not None:
            decision = self._resolve_faults(rid, port, vc, head, decision, cycle)
        # The call may have drawn, dropped the head or mutated routing state.
        self._draws += 1
        if decision is None:
            return None
        return self._request(base, k, head, decision)

    def _resolve_faults(self, rid, port, vc, head, decision, cycle):
        """``Router._resolve_faults`` over the flat state."""
        if head.fault_mode:
            pass
        elif decision is None or decision.output_port not in self.faults.failed_ports[rid]:
            return decision
        resolved = self._routing.fault_decision(self._st.views[rid], head, cycle, port, vc)
        if resolved is None:
            self._drop_head(rid, port, vc, cycle)
        return resolved

    def _drop_head(self, rid: int, port: int, vc: int, cycle: int) -> None:
        """``Router._drop_head`` over the flat state."""
        packet = self._core.pop_head(rid, port, vc, cycle)
        packet.dropped_cycle = cycle
        self.faults.dropped_packets += 1
        self._drp.append(packet)

    # --------------------------------------------------------------- capture
    def _request(self, base_g: int, k: int, head, decision):
        """The request tuple of ``head`` (buffer key ``k``) for ``decision``."""
        V = self._st.V
        out_port = decision.output_port
        og = base_g + out_port
        return (
            k // V, k % V, out_port, head.size_phits, decision,
            og, og * V + decision.vc,
        )

    def _capture_pure(self, rid, base_g, q, k, head, cycle) -> None:
        """MIN / VAL / UGAL / PB: ``decision_is_pure`` plus the head-constancy
        of every input (packet fields, topology) make the decision a constant
        of the head — one ``select_output`` per head lifetime."""
        st = self._st
        decision = self._routing.select_output(st.views[rid], k // st.V, k % st.V, head, cycle)
        self._rows[q] = (
            ROW_FIXED,
            None if decision is None else self._request(base_g, k, head, decision),
        )

    def _capture_group(self, rid, base_g, q, k, head, cycle) -> None:
        """The MM+L group policy: classify a new head and cache everything
        constant while it waits.

        Mirrors the gate order of ``AdaptiveInTransitRouting.select_output``;
        only quantities that cannot change while the packet occupies the
        buffer head are read here (packet fields, topology, the memoized
        candidate sets).  Live state — occupancies, contention counters,
        ECtN/PB broadcasts — is read per round by the trigger transcription.
        One row per head suffices: the local-misroute gate requires
        ``current_group == dst_group or global_hops == 1`` while the global
        gates require ``dst_group != current_group and global_hops == 0``, so
        a head can never fall from a failed global gate into the local gate —
        only into the minimal fallback.
        """
        routing = self._routing
        st = self._st
        dst = head.dst
        npr = routing._nodes_per_router
        dst_router = dst // npr
        kind = ROW_FIXED
        gate = ()
        if rid == dst_router:
            decision = routing.plain_decision(dst % npr, 0)
        elif head.phase is _TO_INTERMEDIATE and head.intermediate_group is not None:
            decision = routing._towards_group(st.views[rid], head, head.intermediate_group)
        else:
            rpg = routing._routers_per_group
            current_group = rid // rpg
            dst_group = dst_router // rpg
            minimal_port = head.contention_port
            if minimal_port is None:
                minimal_port = st.topology.minimal_output_port(rid, dst)
            minimal_kind = st.port_kinds[minimal_port]

            # Minimal fallback (select_output's tail), shared by every row
            # kind; the forced-global fallback is value-identical.
            if minimal_kind is _GLOBAL:
                g_hops = head.global_hops
                last = routing._global_vcs - 1
                min_vc = g_hops if g_hops < last else last
            elif minimal_kind is _LOCAL:
                g_hops = head.global_hops
                local = 1 if head.local_hops_in_group else 0
                min_vc = local if g_hops == 0 else 2 * g_hops - 1 + local
                last = routing._local_vcs - 1
                if min_vc > last:
                    min_vc = last
            else:
                min_vc = 0
            decision = routing.plain_decision(minimal_port, min_vc)

            if head.must_misroute_global and dst_group != current_group and head.global_hops == 0:
                kind = ROW_FORCED
                candidates = routing.global_candidates(
                    rid, st.topology.node_region(dst), minimal_port, False
                )
                # _forced_global_decision passes port=0 to the trigger, and
                # port 0 is an injection port on every topology with p >= 1.
                gate = (
                    minimal_port, candidates, routing.next_vc(head, _GLOBAL), 0,
                    self._capture_ectn(rid, 0, head, candidates),
                )
            elif dst_group != current_group and head.global_hops == 0 and not head.globally_misrouted:
                kind = ROW_GLOBAL
                candidates = routing.global_candidates(
                    rid, dst_group, minimal_port, head.hops == 0
                )
                gate = (
                    minimal_port, candidates,
                    routing.next_vc(head, _GLOBAL), routing.next_vc(head, _LOCAL),
                    self._capture_ectn(rid, k // st.V, head, candidates),
                )
            elif (
                minimal_kind is _LOCAL
                and head.local_hops_in_group == 0
                and head.global_hops <= 1
                and (current_group == dst_group or head.global_hops == 1)
            ):
                kind = ROW_LOCAL
                gate = (
                    minimal_port, routing.local_candidates(minimal_port),
                    0, routing.next_vc(head, _LOCAL), None,
                )
        self._rows[q] = (kind, self._request(base_g, k, head, decision)) + gate

    def _capture_ectn(self, rid: int, check_port: int, head, candidates):
        """ECtN's injection-side trigger constants (see ``choose_global_misroute``):
        ``None`` for another mechanism or a head on a transit port."""
        st = self._st
        if self._mech != MECH_ECTN or not st.kind_is_injection[check_port]:
            return None
        routing = self._routing
        rpg = routing._routers_per_group
        group = rid // rpg
        dst_group = head.dst // routing._nodes_per_group
        offset_key = group * st.topology.num_groups + dst_group
        cache = routing._dest_offset_cache
        min_offset = cache.get(offset_key)
        if min_offset is None:
            min_offset = routing.link_offset_for_destination(group, dst_group)
            cache[offset_key] = min_offset
        return (
            # Order-preserving pre-filter of the static kind check.
            [c for c in candidates if c.kind is _GLOBAL],
            group,
            min_offset,
            (rid % rpg) * routing._h - routing._first_global_port,
        )

    def _capture_ring(self, rid, base_g, q, k, head, cycle) -> None:
        """The ring-escape policy (``_ring_escape_output``): the first hop of
        a ring traversal is a ``LOCAL`` row over the opposite-direction port,
        everything else is ``FIXED``.

        ``ring_vc`` may be taken at head time: the ring state it reads
        (``ring_dim``, ``ring_dir``, ``ring_crossed``, ``vc_leg``) changes
        only in ``on_grant`` and on arrival at a Valiant intermediate, never
        while the packet waits at a buffer head.
        """
        routing = self._routing
        topo = self._st.topology
        dst = head.dst
        npr = routing._nodes_per_router
        kind = ROW_FIXED
        gate = ()
        if rid == dst // npr:
            decision = routing.plain_decision(dst % npr, 0)
        else:
            out_port = head.contention_port
            if out_port is None:
                out_port = topo.minimal_output_port(rid, dst)
            dim, direction = routing._port_ring_dim[out_port]
            escape = routing._escape_candidates[out_port]
            if head.ring_dim != dim or head.ring_dir == 0:
                # First hop of this dimension's traversal: the trigger may
                # divert it.  With no candidate no trigger can fire or draw,
                # so the row is FIXED.
                if escape:
                    kind = ROW_LOCAL
                    gate = (out_port, escape, 0, topo.ring_vc(head, rid, escape[0].port), None)
            elif head.ring_dir != direction:
                # Mid-traversal, committed the long way around.
                out_port = escape[0].port
            decision = routing.plain_decision(out_port, topo.ring_vc(head, rid, out_port))
        self._rows[q] = (kind, self._request(base_g, k, head, decision)) + gate

    def _capture_uplink(self, rid, base_g, q, k, head, cycle) -> None:
        """The uplink-multipath policy (``_uplink_output``): a minimal uplink
        with siblings is a ``LOCAL`` row, everything else is ``FIXED``."""
        routing = self._routing
        dst = head.dst
        kind = ROW_FIXED
        gate = ()
        if rid == routing._node_rid[dst]:
            decision = routing.plain_decision(dst % routing._nodes_per_router, 0)
        else:
            minimal_port = head.contention_port
            if minimal_port is None:
                minimal_port = self._st.topology.minimal_output_port(rid, dst)
            port_vcs = routing._updown_vcs
            candidates = routing._uplink_candidates[minimal_port]
            # The object path consults the trigger only for a non-empty
            # sibling list: without one the row is FIXED.
            if candidates:
                kind = ROW_LOCAL
                # A row stores one misroute VC: every sibling uplink must map
                # to the same up/down class.
                vc = port_vcs[candidates[0].port]
                assert all(port_vcs[c.port] == vc for c in candidates)
                gate = (minimal_port, candidates, 0, vc, None)
            decision = routing.plain_decision(minimal_port, port_vcs[minimal_port])
        self._rows[q] = (kind, self._request(base_g, k, head, decision)) + gate

    def _open_request(self, rid: int, base: int, row):
        """One allocation round's request for an open-gate or forced row.

        The cached-request and closed-gate cases are inlined in
        the core's round loop; what arrives here runs the transcribed trigger
        (which may draw).  The fallback request doubles as the head's
        size/port/vc record.
        """
        kind, fallback, minimal_port, candidates, global_vc, local_vc, ectn = row
        if kind == ROW_LOCAL:
            chosen = self._choose(rid, base, minimal_port, candidates)
            if chosen is None:
                return fallback
            vc = local_vc
            decision = RoutingDecision(output_port=chosen.port, vc=vc, nonminimal_local=True)
        else:
            chosen = self._choose_global(rid, base, ectn, minimal_port, candidates)
            if chosen is None and kind == ROW_FORCED and candidates:
                self._draws += 1
                chosen = candidates[int(self._routing.rng.integers(0, len(candidates)))]
            if chosen is None:
                return fallback
            # Forced candidates are global links only (no local proxy).
            if kind == ROW_FORCED or chosen.kind is _GLOBAL:
                vc = global_vc
                decision = RoutingDecision(
                    output_port=chosen.port,
                    vc=vc,
                    nonminimal_global=True,
                    set_intermediate_group=chosen.target_group,
                )
            else:
                vc = local_vc
                decision = RoutingDecision(
                    output_port=chosen.port, vc=vc, set_must_misroute_global=True
                )
        og = base + chosen.port
        return (
            fallback[0], fallback[1], chosen.port, fallback[3], decision,
            og, og * self._st.V + vc,
        )

    # ----------------------------------------------------- trigger transcriptions
    def _choose_global(self, rid: int, base: int, ectn, minimal_port: int, candidates):
        """``choose_global_misroute`` of the active mechanism, flat-state reads."""
        if ectn is not None:
            global_candidates, group, min_offset, pos_base = ectn
            routing = self._routing
            combined = routing.combined[group]
            threshold = self._ectn_cth
            if combined[min_offset] > threshold:
                preferred = [
                    c for c in global_candidates if combined[pos_base + c.port] < threshold
                ]
                if preferred:
                    self._draws += 1
                    return preferred[int(routing.rng.integers(0, len(preferred)))]
            # fall through to the Base counters (ECtN's in-transit fallback)
        return self._choose(rid, base, minimal_port, candidates)

    def _choose(self, rid: int, base: int, minimal_port: int, candidates):
        """The shared global/local trigger body of OLM / Base / Hybrid / ECtN."""
        mech = self._mech
        routing = self._routing
        if mech == MECH_OLM:
            st = self._st
            out_committed = st.out_committed
            credit_occ = st.credit_occ
            g = base + minimal_port
            occ_min = out_committed[g] + credit_occ[g]
            if occ_min < self._olm_min_occ:
                return None
            limit = self._olm_th * occ_min
            preferred = [
                c
                for c in candidates
                if out_committed[base + c.port] + credit_occ[base + c.port] < limit
            ]
            if not preferred:
                return None
            self._draws += 1
            return preferred[int(routing.rng.integers(0, len(preferred)))]
        counts = self._counters[rid].counts
        threshold = self._cth
        if mech == MECH_HYBRID:
            if counts[minimal_port] > threshold:
                contention = [c for c in candidates if counts[c.port] < threshold]
                if contention:
                    self._draws += 1
                    return contention[int(routing.rng.integers(0, len(contention)))]
            st = self._st
            out_committed = st.out_committed
            credit_occ = st.credit_occ
            g = base + minimal_port
            occ_min = out_committed[g] + credit_occ[g]
            if occ_min < self._pkt2:
                return None
            limit = self._hyb_cong * occ_min
            preferred = [
                c
                for c in candidates
                if out_committed[base + c.port] + credit_occ[base + c.port] < limit
            ]
            if not preferred:
                return None
            self._draws += 1
            return preferred[int(routing.rng.integers(0, len(preferred)))]
        # MECH_BASE and ECtN's in-transit fallback
        if counts[minimal_port] <= threshold:
            return None
        preferred = [c for c in candidates if counts[c.port] < threshold]
        if not preferred:
            return None
        self._draws += 1
        return preferred[int(routing.rng.integers(0, len(preferred)))]

    # ------------------------------------------------------------- diagnostics
    def schedule_arrival(
        self, rid: int, port: int, complete_cycle: int, vc: int, packet
    ) -> None:
        """Fabricate a link arrival over the flat state (test surface)."""
        st = self._st
        # A bucket behind the clock would never be popped: an already
        # complete arrival is received by the next step.
        due = complete_cycle if complete_cycle > self.cycle else self.cycle
        st.arr_cal[due].append((rid * st.P + port, vc, packet))

    def total_buffered_packets(self) -> int:
        """Packets inside the fabric — counted over the flat arrays (there
        is no object router graph on this backend)."""
        return self._st.total_buffered_packets()

    def _stall_census(self):
        st = self._st
        per_router = st.P * st.V
        for rid in range(st.R):
            # ``None`` marks a VC nothing was pushed into (yet).
            yield rid, len(st.occ[rid]), (
                packet
                for q in range(rid * per_router, (rid + 1) * per_router)
                for packet in st.in_q[q] or ()
            )


# -------------------------------------------------------- routing broadcasts
def _pb_scan(st: SoAState, routing) -> List[list]:
    """PB's saturation scan, per group and broadcast slot: the flat output
    port and its occupancy limit — the float64 product of
    ``PiggybackRouting.post_cycle``, taken once."""
    topo = st.topology
    h = topo.config.h
    first_global = min(topo.global_ports)
    fraction = routing.params.pb_saturation_fraction
    scan = []
    for group in range(topo.num_groups):
        slots = [None] * topo.global_links_per_group
        for rid in topo.region_routers(group):
            position = topo.router_position(rid)
            for k in range(h):
                g = rid * st.P + first_global + k
                slots[position * h + k] = (g, fraction * st.cap_sum[g])
        scan.append(slots)
    return scan


def _pb_post_cycle(st: SoAState, routing, scan):
    """``PiggybackRouting.post_cycle`` with the scan over the flat state."""
    out_committed = st.out_committed
    credit_occ = st.credit_occ

    def post_cycle(network, cycle: int) -> None:
        routing.publish_flags(
            cycle,
            [
                [out_committed[g] + credit_occ[g] >= limit for g, limit in slots]
                for slots in scan
            ],
        )

    return post_cycle


def _ectn_post_cycle(st: SoAState, routing):
    """``ECtNRouting.post_cycle`` (it reads only the routing's own arrays)."""
    period = routing.params.ectn_update_period
    clean = st.alloc_clean

    def post_cycle(network, cycle: int) -> None:
        if cycle % period != 0:
            return
        routing.post_cycle(network, cycle)
        # The broadcast feeds the injection-side trigger of every router.
        for rid in range(len(clean)):
            clean[rid] = False

    return post_cycle
