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
  allocator, the allocation rounds and the router-major walk of a cycle, an
  injection, and for the stock mechanisms the routing hooks, head captures
  and trigger gates over the Dragonfly's routing tables (see "The compiled
  core" below);
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
:mod:`repro.simulation.soa._loader`) runs a cycle's router phase over the
*same* Python lists, tuples, dicts and ``Packet`` objects this module and its
readers see — nothing is copied into typed buffers, so :class:`RouterView`,
the obs readers and every test that inspects ``st.*`` or ``_rows`` read live
state.  It also answers, in C, what a buffer head of a stock mechanism asks
of the routing:

* the hooks ``RoutingAlgorithm.on_grant``, ``Packet.record_hop``, Base's
  contention-counter head / leave (``ContentionTracker.on_head`` /
  ``on_leave``, ``ContentionCounters.decrement``; Hybrid inherits them),
  ECtN's partial-counter head / arrival / leave, and the arrival hooks of
  ``AdaptiveInTransitRouting`` and ``ValiantRouting``, and at injection
  (``Core.inject``, this engine's ``_inject``) ``RoutingAlgorithm.on_inject``,
  ``ValiantRouting.on_inject``, ``UGALRouting.on_inject`` /
  ``prefers_valiant`` / ``_ugal_prefers_valiant`` and
  ``PiggybackRouting.prefers_valiant`` — each only while the function the
  instance resolves for that name, looked up on every call the way a method
  call looks it up, is the stock function (``_STOCK_FUNCTIONS``, taken from
  the classes when the engine is built).  A subclass override or a wrapper on
  the class or the instance is called by name instead, so
  ``perf/trace.py``'s wrappers and a test's monkeypatch are seen and counted;
* the adaptive captures (the MM+L group policy; the port-table policy, that
  is the ring escape and the uplink multipath) and the open gates of their
  rows — the one trigger of
  ``AdaptiveInTransitRouting.choose_*`` over the flat state, reading the
  signals the mechanism declares (``contention_threshold``,
  ``congestion_threshold``, ``combined_threshold``);
* under the same rule, the topology queries of a ``DragonflyTopology``
  (region, group and node-router arithmetic; ``minimal_output_port`` /
  ``minimal_route_to_router`` from its one route table; ``router_hops`` and
  ECtN's ``link_offset_for_destination`` from its ``group_link_offsets``)
  and the candidate views ``global_candidates`` / ``local_candidates``: a
  gate row holds a view of the router's shared candidate tuple and skips the
  excluded ports in place.

What a stock body calls that is not transcribed — a topology query of any
other topology, an unset route-table entry, a router's first
``router_candidates``, misses of the gateway and ``plain_decision`` memos,
the obs / dateline / fault sub-calls, and every draw
(``routing.rng.integers(0, n)``, ``random_intermediate_router``) — is a
Python call made from C, by name and in the Python body's order.
:meth:`_capture_pure` (it calls ``select_output``), :meth:`_live_request` /
:meth:`_resolve_faults` / :meth:`_drop_head` (``LIVE`` rows, fault runs),
``metrics.record_*`` and the obs sites stay Python.
The core never holds the engine — the engine is an argument of
``router_phase`` — so engine → core is the only edge between the two, and the
type takes part in cyclic collection.  There is no pure-Python twin of the
compiled functions: where no C compiler works, ``create_engine("soa", …)``
runs the bit-identical ``object`` engine instead (debug a suspected core bug
with ``REPRO_BACKEND=object``).

Row kinds
---------
There is one allocation path, the core's ``allocate``.  Every buffer head
is a *row*, one tuple written once into ``_rows[q]`` by the capture and read
by every round: ``(FIXED, request)``, or for a gate ``(kind, fallback
request, minimal port, candidates, global VC, local VC, ectn)`` with
``candidates`` a list or a view ``(shared tuple, first, dst group, proxy)``
and ``ectn`` the injection-side constants ``(group, minimal link offset,
offset base)`` of an ECtN head (``None`` otherwise).  A ``q``
nobody captured holds ``None`` and answers as ``LIVE``.  Which capture runs
(``self._capture``) depends only on what the code can observe: the exact
routing class, its path policy, whether a fault runtime is attached.

======  ===================  ==========================  =========  ==========
kind    captured by          per round                   may draw   may clean
======  ===================  ==========================  =========  ==========
FIXED   every capture        admission check of the      no         yes
                             cached request
FORCED  group policy         global trigger, then a      yes        if no draw
                             uniform pick
GLOBAL  group policy         global trigger (closed:     open gate  if no draw
                             the fallback, no draw)
LOCAL   group policy,        local trigger over the      open gate  if no draw
        port-table policy    captured candidates
LIVE    nobody               ``select_output`` +         yes        never
                             ``_resolve_faults``
======  ===================  ==========================  =========  ==========

:meth:`_capture_pure` (healthy MIN / VAL / UGAL / PB) evaluates
``select_output`` once per head lifetime and stores a ``FIXED`` row.  The
core's adaptive captures (healthy OLM / Base / Hybrid / ECtN; "trigger"
above is the transcription of ``AdaptiveInTransitRouting.choose_*``) store
``FIXED`` for ejection, towards-intermediate, mid-ring-traversal, down-hop
and gate-less heads: the group policy (Dragonfly, flattened butterfly) has
``FORCED`` for the committed local-proxy step, ``GLOBAL`` for the
source-group gate, ``LOCAL`` for the local-misroute gate; the port-table
policy ``LOCAL`` where the minimal port's candidate list is offered to the
trigger (the first hop of a ring traversal on the torus, an uplink with
siblings on the fat tree).  With
a fault runtime attached, or a routing class the engine has no transcription
for (exact type match: a subclass may override the trigger or a helper
the capture transcribes), nothing is
captured and every head is ``LIVE``: ``routing.select_output`` runs per round
on a :class:`~repro.simulation.soa.state.RouterView`, the object allocate
loop verbatim.  A router may be marked clean only after a grant-free *and*
draw-free pass, so a ``LIVE`` row never lets it.

Every deviation from ``Engine``/``Router`` behaviour is a bug; the golden,
time-warp and property suites assert bit-identical results.
"""

from __future__ import annotations

import inspect
import sys
from typing import List

from repro.network.packet import Packet, RoutingPhase
from repro.routing.adaptive import AdaptiveInTransitRouting
from repro.routing.base import RoutingAlgorithm, RoutingDecision
from repro.routing.contention.counters import ContentionCounters, ContentionTracker
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
from repro.topology.dragonfly import DragonflyTopology

__all__ = ["SoAEngine"]

_GLOBAL = PortKind.GLOBAL

# Row kinds (see module docstring).
ROW_FIXED = 0  # decision constant while the head waits (cached request)
ROW_FORCED = 1  # committed MM+L proxy: forced global hop, trigger per round
ROW_GLOBAL = 2  # source-group global-misroute gate, trigger per round
ROW_LOCAL = 3  # local-misroute / port-table gate, trigger per round
# ``LIVE`` is the absence of a row: ``select_output`` per round.

# Who writes the rows: ``_capture_pure``, or the core's capture of an
# adaptive path policy (``None``: nobody, every row is ``LIVE``).
CAPTURE_PURE = 0
CAPTURE_GROUP = 1  # MM+L group policy (Dragonfly, flattened butterfly)
CAPTURE_PORT_TABLE = 2  # port-table policy: ring escape (torus), uplinks (fat tree)

# The mechanisms the core's adaptive captures transcribe; their trigger is
# read off the signals they declare.
_ADAPTIVE_MECHS = (OLMRouting, BaseContentionRouting, HybridContentionRouting, ECtNRouting)
_PURE_MECHS = (MinimalRouting, ValiantRouting, UGALRouting, PiggybackRouting)

#: The functions the core answers in C while an instance resolves to them
#: (see "The compiled core").
_STOCK_FUNCTIONS = (
    (RoutingAlgorithm, "on_grant"),
    (RoutingAlgorithm, "on_inject"),
    (Packet, "record_hop"),
    (ValiantRouting, "on_inject"),
    (UGALRouting, "on_inject"),
    (UGALRouting, "prefers_valiant"),
    (UGALRouting, "_ugal_prefers_valiant"),
    (PiggybackRouting, "prefers_valiant"),
    (AdaptiveInTransitRouting, "on_packet_arrival"),
    (ValiantRouting, "on_packet_arrival"),
    (AdaptiveInTransitRouting, "global_candidates"),
    (AdaptiveInTransitRouting, "local_candidates"),
    (BaseContentionRouting, "on_packet_head"),
    (BaseContentionRouting, "on_packet_leave_input"),
    (ECtNRouting, "on_packet_head"),
    (ECtNRouting, "on_packet_arrival"),
    (ECtNRouting, "on_packet_leave_input"),
    (ECtNRouting, "_maybe_count_partial"),
    (ECtNRouting, "link_offset_for_destination"),
    (ContentionTracker, "on_head"),
    (ContentionTracker, "on_leave"),
    (ContentionCounters, "decrement"),
    (DragonflyTopology, "router_region"),
    (DragonflyTopology, "node_region"),
    (DragonflyTopology, "router_group"),
    (DragonflyTopology, "node_group"),
    (DragonflyTopology, "node_router"),
    (DragonflyTopology, "minimal_output_port"),
    (DragonflyTopology, "minimal_route_to_router"),
    (DragonflyTopology, "router_hops"),
    (DragonflyTopology, "_route_port"),
)


def _source_function(owner: type, name: str):
    """The function ``owner``'s source defines as ``name``, through any
    ``functools.wraps`` wrappers installed on the class since; ``None`` when
    what the class holds now is something else (the core then calls the hook
    by name, always)."""
    function = inspect.unwrap(vars(owner)[name])
    code = getattr(function, "__code__", None)
    if (
        code is None
        or code.co_name != name
        or code.co_filename != sys.modules[owner.__module__].__file__
    ):
        return None
    return function


def _stock() -> dict:
    """What ``Core`` compares and builds with: ``"Class.name"`` -> the stock
    function, plus the packet / decision types and the routing phases.
    Resolved per engine, so a wrapper installed before this one was built
    is never mistaken for the stock function."""
    stock = {
        f"{owner.__name__}.{name}": _source_function(owner, name)
        for owner, name in _STOCK_FUNCTIONS
    }
    stock.update(
        Packet=Packet,
        RoutingDecision=RoutingDecision,
        RoutingAlgorithm=RoutingAlgorithm,
        ValiantRouting=ValiantRouting,
        ECtNRouting=ECtNRouting,
        DragonflyTopology=DragonflyTopology,
        TO_INTERMEDIATE=RoutingPhase.TO_INTERMEDIATE,
        MINIMAL=RoutingPhase.MINIMAL,
        GLOBAL=_GLOBAL,
    )
    return stock


class SoAEngine(Engine):
    """Drop-in :class:`Engine` over :class:`SoAState` (see module doc)."""

    __slots__ = (
        "_st",
        "_core",
        "_capture",
        "_memo",
        "_routing",
        "_drp",
        "_rows",
        "_draws",
    )

    def __init__(self, network, traffic, **engine_options):
        super().__init__(network, traffic, **engine_options)
        faults = self.faults
        st = self._st
        routing = self._routing = network.routing
        hooks = routing.overridden_hooks()
        self._drp: List = []
        self._draws = 0

        # Which capture writes the rows.  Exact type matching: a capture
        # transcribes ``select_output`` with the helpers it calls
        # (``next_vc``, ``hop_vc``, ``pick_random``, ``_towards_group``, the
        # trigger), any of which a subclass may override, so a subclass gets
        # no capture — every head stays a LIVE row — like a fault run.
        rcls = type(routing)
        self._capture = None
        if faults is None:
            if rcls in _PURE_MECHS:
                self._capture = CAPTURE_PURE
            elif rcls in _ADAPTIVE_MECHS:
                self._capture = (
                    CAPTURE_GROUP if routing._port_candidates is None else CAPTURE_PORT_TABLE
                )
        # LIVE rows of a ``decision_is_pure`` mechanism reuse round 1's
        # decision in the later rounds of a cycle, as ``Router.allocate`` does.
        self._memo = {} if routing.decision_is_pure else None

        # One row per buffer head (layout: "Row kinds" in the module doc),
        # written by the capture; ``None`` answers as ``LIVE``.
        self._rows: List = [None] * (st.R * st.P * st.V)

        # The compiled hop chain over this state (``_core.c``); it reads what
        # the capture and the trigger need off the routing.
        self._core = load_core().Core(
            st, routing, self._rows, self._drp, hooks,
            network.params.internal_speedup, network.params.router_latency,
            -1 if self._capture is None else self._capture, _stock(),
        )
        self._inject = self._core.inject

        # There are no object routers on this backend, so a mechanism's
        # post_cycle hook has nothing to scan.  PB's scan is transcribed
        # against the flat state; ECtN's hook reads only the routing's own
        # arrays and runs as is; anything else must use the object backend.
        # The hooks are closures over the arrays they read, not bound methods
        # of ``self``: a bound method of ``self`` kept on ``self`` is a
        # reference cycle, and the engine should be reclaimed by reference
        # counting.
        if self._post_cycle is not None:
            hook = rcls.post_cycle
            if hook is PiggybackRouting.post_cycle:
                self._post_cycle = _pb_post_cycle(st, routing, _pb_scan(st, routing))
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
