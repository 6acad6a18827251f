"""Struct-of-arrays simulation engine — the router model over flat state.

:class:`SoAEngine` plugs into the cycle driver of
:class:`repro.simulation.engine.Engine` (``step``, ``run``, the watchdog
and the stall report are inherited) and implements only the backend seams:
it advances the network through *exactly* the same sequence of state
changes, routing-hook invocations and RNG draws as the object model, but
reads and writes the flat arrays of
:class:`~repro.simulation.soa.state.SoAState` instead of chasing
``Router``/``InputPort``/``OutputPort`` objects.  The speed comes from five
places:

* **flat state** — the begin/commit/release phases are integer arithmetic
  on Python lists instead of attribute loads across an object graph;
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
  timeline a function of the grant cycle: ``_commit`` computes it, schedules
  the downstream arrival and leaves one release event to give the buffer
  space back — three calendar events per hop, no output-side queue;
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

Row kinds
---------
There is one allocation path, :meth:`SoAEngine._allocate`.  Every buffer head
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
from operator import itemgetter
from typing import List, Optional

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
from repro.simulation.soa.state import SoAState
from repro.topology.base import PortKind

__all__ = ["SoAEngine"]

_event_port = itemgetter(0)
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
        "_mech",
        "_capture",
        "_memo",
        "_routing",
        "_notify_arrival",
        "_notify_head",
        "_notify_leave",
        "_speedup",
        "_router_latency",
        "_dlv",
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
        (
            self._notify_arrival,
            self._notify_head,
            self._notify_leave,
        ) = routing.overridden_hooks()
        self._speedup = network.params.internal_speedup
        self._router_latency = network.params.router_latency
        self._dlv: List = []
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
    def _post_cycle_horizon(self, cycle: int) -> Optional[int]:
        if self._pb_scan is None:
            # ECtN: pure period arithmetic, the routing class's own.
            return super()._post_cycle_horizon(cycle)
        # PB must stay an override: ``PiggybackRouting.post_cycle_horizon``
        # reads ``network._active_routers``, which this backend keeps empty.
        # Routers waiting on a credit, an arrival or a busy link are not in
        # ``st.active`` either, so a non-empty calendar counts as "not
        # quiet" too.
        routing = self._routing
        st = self._st
        if (
            st.active
            or st.cred_cal
            or st.arr_cal
            or st.svc_cal
            or routing._pending
            or routing._saturated_groups
        ):
            return cycle
        return None

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
        router by router, then retirement (see ``Engine._router_phase``)."""
        st = self._st
        metrics = self.metrics
        obs = self.obs
        faults = self.faults
        # The calendars are popped only now, after the driver's injection
        # pass: UGAL/PB ``on_inject`` reads ``credit_occ``, and the object
        # engine runs ``begin_cycle`` after injection too.
        due = st.cred_cal.pop(cycle, None)
        if due is not None:
            self._apply_credits(due)
        due = st.arr_cal.pop(cycle, None)
        if due is not None:
            self._apply_arrivals(due, cycle)
        svc = st.svc_cal.pop(cycle, ())
        delivered_now = 0
        dropped_now = 0
        active = st.active
        visited_routers = len(active)
        if active or svc:
            if st.unsorted:
                active.sort()
                st.unsorted = False
            if len(svc) > 1:
                # A release carries a ``Packet``, which does not order: sort
                # by the port alone (a port has at most one release a cycle).
                svc.sort(key=_event_port)
            P = st.P
            allocate = self._allocate
            release = self._release
            clean = st.alloc_clean
            svc_cal = st.svc_cal
            # With ``router_latency = 0`` a grant's release (or its marker)
            # is due in this very cycle, *after* the bucket above was popped:
            # the router's same-cycle events are merged into its release step
            # below (popping the bucket before the allocation loop alone
            # diverges from ``object``, which transmits right after allocate).
            same_cycle = self._router_latency == 0
            dlv = self._dlv
            drp = self._drp
            # Merge-walk the sorted routers-with-a-head list and the sorted
            # due-port list, so deliveries, metrics and ``repro.obs`` flight
            # events keep the object engine's router-major order.
            num_active = len(active)
            num_due = len(svc)
            ai = si = 0
            while ai < num_active or si < num_due:
                if ai < num_active and (si == num_due or active[ai] * P <= svc[si][0]):
                    rid = active[ai]
                    ai += 1
                    if not clean[rid]:
                        allocate(rid, cycle)
                    if same_cycle and cycle in svc_cal:
                        svc = sorted(svc_cal.pop(cycle) + list(svc[si:]), key=_event_port)
                        si = 0
                        num_due = len(svc)
                else:
                    # Due releases on a router without an occupied head.
                    rid = svc[si][0] // P
                if si < num_due and svc[si][0] < rid * P + P:
                    si = release(svc, si, rid)
                if dlv:
                    delivered_now += len(dlv)
                    if metrics is not None:
                        for packet in dlv:
                            metrics.record_delivery(packet, cycle)
                    if obs is not None:
                        for packet in dlv:
                            obs.record_delivery(packet, cycle)
                    dlv.clear()
                if faults is not None and drp:
                    dropped_now += len(drp)
                    if metrics is not None:
                        for packet in drp:
                            metrics.record_dropped(packet, cycle)
                    if obs is not None:
                        for packet in drp:
                            obs.record_dropped(packet, cycle)
                    drp.clear()

        # Retire routers whose heads all left; the router half of the warp
        # horizon is "now" while any head is occupied (allocation retries
        # every cycle), else the earliest calendar key.
        if st.active:
            occ = st.occ
            flags = st.active_flag
            still_active = []
            for rid in st.active:
                if occ[rid]:
                    still_active.append(rid)
                else:
                    flags[rid] = False
            st.active = still_active
        router_hint = -1 if st.active else self._calendar_horizon()
        return delivered_now, dropped_now, visited_routers, router_hint

    # ----------------------------------------------------------- observation
    def _make_obs_reader(self):
        from repro.obs.readers import SoAStateReader

        return SoAStateReader(self._st)

    # ------------------------------------------------------------- injection
    def _activate(self, rid: int) -> None:
        st = self._st
        if not st.active_flag[rid]:
            st.active_flag[rid] = True
            st.active.append(rid)
            st.unsorted = True

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
            self._activate(rid)
            if self._notify_arrival:
                routing.on_packet_arrival(view, port, vc, packet, cycle)
            node._vc_pointer = (vc + 1) % num_vcs
            node.next_injection_cycle = cycle + size
            node.injected_packets += 1
            return

    # ----------------------------------------------------------- begin_cycle
    def _apply_credits(self, due) -> None:
        """``Router.begin_cycle``, credit half: the returns due this cycle."""
        st = self._st
        credits = st.credits
        max_credits = st.max_credits
        credit_occ = st.credit_occ
        clean = st.alloc_clean
        for rid, g, q, phits in due:
            # Returned credits can unblock waiting heads (and feed the
            # occupancy triggers): re-evaluate allocation.
            clean[rid] = False
            credits[q] += phits
            credit_occ[g] -= phits
            if credits[q] > max_credits[q]:
                raise RuntimeError(
                    f"credit overflow on router {rid} port {g - rid * st.P} "
                    f"vc {q - g * st.V}"
                )

    def _apply_arrivals(self, due, cycle: int) -> None:
        """``Router.begin_cycle``, arrival half: the link arrivals due this cycle."""
        st = self._st
        P = st.P
        V = st.V
        if len(due) > 1:
            # (router, port) order — the order the object engine's per-router
            # ``begin_cycle`` calls fire ``on_packet_arrival`` in.  A link
            # completes at most one packet per cycle; the sort is stable.
            due.sort(key=_event_port)
        routing = self._routing
        notify = self._notify_arrival
        views = st.views
        occ = st.occ
        new_heads = st.new_heads
        clean = st.alloc_clean
        in_q = st.in_q
        in_free = st.in_free
        for g, vc, packet in due:
            rid, port = divmod(g, P)
            q = g * V + vc
            dq = in_q[q]
            if not dq:
                if dq is None:
                    dq = in_q[q] = []
                k = port * V + vc
                insort(occ[rid], k)
                new_heads[rid].append(k)
                clean[rid] = False
                self._activate(rid)
            size = packet.size_phits
            free = in_free[q]
            if free < size:
                raise OverflowError(
                    f"VC buffer overflow: {size} phits requested, {free} free"
                )
            dq.append(packet)
            in_free[q] = free - size
            if notify:
                routing.on_packet_arrival(views[rid], port, vc, packet, cycle)

    # ---------------------------------------------------------------- commit
    def _pop_head(self, rid: int, port: int, vc: int, cycle: int):
        """The input side of a hop, shared by grant and drop: pop the head,
        free its space, expose the next head, return the upstream credit and
        fire ``on_packet_leave_input``."""
        st = self._st
        V = st.V
        g = rid * st.P + port
        q = g * V + vc
        dq = st.in_q[q]
        packet = dq.pop(0)
        size = packet.size_phits
        st.in_free[q] += size
        st.head_seen[q] = False
        k = port * V + vc
        if not dq:
            st.occ[rid].remove(k)
        else:
            st.new_heads[rid].append(k)
        up = st.up_g[g]
        if up >= 0:
            st.cred_cal[cycle + st.up_lat[g]].append(
                (st.up_rid[g], up, up * V + vc, size)
            )
        if self._notify_leave:
            self._routing.on_packet_leave_input(st.views[rid], port, vc, packet, cycle)
        return packet

    def _commit(self, rid: int, req, cycle: int) -> None:
        """``Router._commit_grant``, and the booking of what the grant
        decides: the packet's release and its downstream arrival."""
        input_port, input_vc, out_port, size, decision, og, cq = req
        packet = self._pop_head(rid, input_port, input_vc, cycle)
        st = self._st
        self._routing.on_grant(st.views[rid], input_port, input_vc, packet, decision, cycle)
        if not st.kind_is_injection[out_port]:
            packet.record_hop(is_global=st.kind_is_global[out_port])
        packet.current_vc = decision.vc
        free = st.out_free[og]
        if free < size:
            raise OverflowError(
                f"output buffer over-commit: {size} requested, {free} free"
            )
        st.out_committed[og] += size
        st.out_free[og] = free - size
        if st.credits[cq] < size:
            raise RuntimeError(
                f"credit underflow on router {rid} port {out_port} vc {decision.vc}"
            )
        st.credits[cq] -= size
        st.credit_occ[og] += size
        # The packet leaves the pipeline at ``ready`` and starts on the wire
        # once the packets granted before it are through: ready times are
        # monotone per port and the link is a work-conserving FIFO.
        ready = cycle + self._router_latency
        depart = st.link_booked[og]
        if depart > ready:
            # ``object`` wakes at ``ready`` (its pipeline exit) even though
            # the link is still busy: touch that cycle's bucket so the warp
            # horizon sees it and ``cycles_skipped`` stays equal.
            st.svc_cal[ready]
        else:
            depart = ready
        done = depart + size * st.ser_fac[og]
        st.link_booked[og] = done
        down_g = st.down_g[og]
        if down_g >= 0:
            st.arr_cal[done + st.link_lat[og]].append((down_g, decision.vc, packet))
            packet = None  # only an ejection's release carries its packet
        st.svc_cal[depart].append((og, size, done, packet))

    # --------------------------------------------------------------- release
    def _release(self, due, i: int, rid: int) -> int:
        """What is left of ``Router.transmit``: the releases of router
        ``rid``, which start at ``due[i]`` — each a packet starting on the
        wire this cycle; returns the index of the next router's."""
        st = self._st
        limit = rid * st.P + st.P
        out_committed = st.out_committed
        out_free = st.out_free
        link_busy = st.link_busy
        num_due = len(due)
        while i < num_due:
            g, size, done, packet = due[i]
            if g >= limit:
                break
            i += 1
            out_committed[g] -= size
            out_free[g] += size
            link_busy[g] = done
            if packet is not None:
                # Only now, not at the grant: ``Packet.delivered`` must not
                # read true for a packet still inside the router.
                packet.delivered_cycle = done
                self._dlv.append(packet)
        # Freed output space can admit waiting heads (and lowers the
        # occupancy triggers): re-evaluate allocation.
        st.alloc_clean[rid] = False
        return i

    # ------------------------------------------------------------- allocator
    def _alloc_round(self, rid: int, base: int, requests):
        """``SeparableAllocator.allocate`` over the flat pointer arrays.

        Requests are indexed positionally — slots 0/1/2 are input port,
        input VC and output port in both the captured-tuple shape and
        ``AllocationRequest`` (a NamedTuple with the same field order).
        """
        st = self._st
        in_ptr = st.in_ptr
        out_ptr = st.out_ptr
        P = st.P
        nvc = st.alloc_nvc[rid]
        if len(requests) == 1:
            req = requests[0]
            in_ptr[base + req[0]] = (req[1] + 1) % nvc
            out_ptr[base + req[2]] = (req[0] + 1) % P
            return requests
        if len({req[0] for req in requests}) == len(requests) and len(
            {req[2] for req in requests}
        ) == len(requests):
            for req in requests:
                in_ptr[base + req[0]] = (req[1] + 1) % nvc
                out_ptr[base + req[2]] = (req[0] + 1) % P
            return requests
        by_input = {}
        for req in requests:
            vc_requests = by_input.get(req[0])
            if vc_requests is None:
                by_input[req[0]] = vc_requests = {}
            vc_requests[req[1]] = req
        proposals = {}
        for in_port, vc_requests in by_input.items():
            winner_vc = _arbitrate(in_ptr, base + in_port, nvc, vc_requests)
            if winner_vc < 0:
                continue
            req = vc_requests[winner_vc]
            proposals.setdefault(req[2], []).append(req)
        grants = []
        for out_port, port_proposals in proposals.items():
            by_in = {req[0]: req for req in port_proposals}
            winner_in = _arbitrate(out_ptr, base + out_port, P, by_in)
            if winner_in < 0:
                continue
            grants.append(by_in[winner_in])
        return grants

    # -------------------------------------------------------------- allocate
    def _allocate(self, rid: int, cycle: int) -> None:
        """``Router.allocate``: report new heads, then the allocation rounds,
        each head answering with the request of its captured row (see "Row
        kinds" in the module doc)."""
        st = self._st
        V = st.V
        base_g = rid * st.P
        base_q = base_g * V
        in_q = st.in_q

        new_heads = st.new_heads[rid]
        if new_heads:
            head_seen = st.head_seen
            if len(new_heads) > 1:
                new_heads.sort()
            # ``new_heads`` is recorded unconditionally (the captures need
            # every head); the hook calls — and only those — stay gated, as
            # in the object model.
            notify_head = self._notify_head
            capture = self._capture
            for k in new_heads:
                q = base_q + k
                if head_seen[q]:
                    continue
                dq = in_q[q]
                # Empty only under faults (a head dropped and its successor
                # granted within one cycle), where nothing is captured.
                head = dq[0] if dq else None
                if notify_head:
                    self._routing.on_packet_head(st.views[rid], k // V, k % V, head, cycle)
                head_seen[q] = True
                if capture is not None:
                    capture(self, rid, base_g, q, k, head, cycle)
            st.new_heads[rid] = []

        out_free = st.out_free
        credits = st.credits
        rows = self._rows
        draws0 = self._draws
        mech = self._mech
        if mech >= 0:
            # Closed-gate inputs of the adaptive captures.
            is_cnt = mech == MECH_BASE or mech == MECH_ECTN
            if is_cnt:
                counts = self._counters[rid].counts
                cth = self._cth
            elif mech == MECH_OLM:
                out_committed = st.out_committed
                credit_occ = st.credit_occ
                olm_min = self._olm_min_occ

        # Grants remove keys from the live list: iterate a copy.
        occupied = st.occ[rid][:]
        single = len(occupied) == 1
        granted = None
        for round_index in range(self._speedup):
            requests = []
            # Occupied-key order, every round: an open gate runs its trigger
            # exactly as many times, in exactly the order, that ``object``
            # calls ``select_output`` — the draw count is the RNG contract.
            for k in occupied:
                if granted is not None and k in granted:
                    continue
                q = base_q + k
                row = rows[q]
                if row is None:
                    # Only here can a key of ``occupied`` have lost its head
                    # without a grant: ``_resolve_faults`` drops heads, and
                    # with faults attached nothing is captured.  ``dq[0]`` is
                    # read fresh for the same reason: a drop while round 1
                    # gathers requests lets round 2 meet a successor no
                    # ``on_packet_head`` was called for yet (it is reported
                    # next cycle, as in the object model).
                    dq = in_q[q]
                    if not dq:
                        continue
                    req = self._live_request(rid, base_g, q, k, dq[0], cycle, round_index)
                elif row[0] == ROW_FIXED:
                    req = row[1]
                else:
                    # Closed gate (a counter or occupancy comparison against
                    # the captured minimal port): the draw-free minimal
                    # fallback, exactly what the trigger would answer.
                    req = None
                    if row[0] != ROW_FORCED:
                        if is_cnt:
                            if row[6] is None and counts[row[2]] <= cth:
                                req = row[1]
                        elif mech == MECH_OLM:
                            gm = base_g + row[2]
                            if out_committed[gm] + credit_occ[gm] < olm_min:
                                req = row[1]
                    if req is None:
                        req = self._open_request(rid, base_g, row)
                if req is None:
                    continue
                size = req[3]
                if out_free[req[5]] < size or credits[req[6]] < size:
                    continue
                if single:
                    # With one occupied VC a one-request allocation always
                    # succeeds (only the arbiter pointers rotate) and every
                    # later round is a no-op.
                    st.in_ptr[base_g + req[0]] = (req[1] + 1) % st.alloc_nvc[rid]
                    st.out_ptr[req[5]] = (req[0] + 1) % st.P
                    self._commit(rid, req, cycle)
                    return
                requests.append(req)
            if not requests:
                break
            for req in self._alloc_round(rid, base_g, requests):
                self._commit(rid, req, cycle)
                if granted is None:
                    granted = set()
                granted.add(req[0] * V + req[1])
        if granted is None and self._draws == draws0:
            # Grant-free and draw-free: every input of this evaluation is
            # router-local and invalidation-tracked, so skip until poked.  A
            # ``FIXED`` or closed-gate row must therefore never draw, and a
            # ``LIVE`` evaluation always counts as a draw.
            st.alloc_clean[rid] = True

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
        packet = self._pop_head(rid, port, vc, cycle)
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
        :meth:`_allocate`; what arrives here runs the transcribed trigger
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


def _arbitrate(pointers: List[int], index: int, num_clients: int, requests) -> int:
    """``RoundRobinArbiter.arbitrate`` against a flat pointer slot."""
    pointer = pointers[index]
    winner = -1
    winner_distance = num_clients
    for client in requests:
        if client < 0 or client >= num_clients:
            continue
        distance = client - pointer
        if distance < 0:
            distance += num_clients
        if distance < winner_distance:
            winner_distance = distance
            winner = client
    if winner < 0:
        return -1
    pointers[index] = (winner + 1) % num_clients
    return winner
