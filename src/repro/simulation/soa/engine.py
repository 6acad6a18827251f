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
  on flat columns instead of attribute loads across an object graph;
* **a compiled hop chain** — that arithmetic runs in C: ``_core.c``, one
  CPython extension type bound to this engine's :class:`SoAState`, holds the
  state's own lists and calendars and implements credit returns, link
  arrivals, the pop / commit / release chain of a hop, the separable
  allocator, the allocation rounds and the router-major walk of a cycle, the
  source phase (traffic generation and injection), and for the stock
  mechanisms the routing hooks, head captures and trigger gates over the
  Dragonfly's routing tables and the delivery accounting (see "The compiled
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
:mod:`repro.simulation.soa._loader`) runs a cycle's source phase
(:meth:`_source_phase`) and router phase over the *same* lists, integer
``array('q')`` columns, tuples, dicts and ``Packet`` objects this module and
its readers see — nothing is copied, so :class:`RouterView`, the obs readers
and every test that inspects ``st.*`` or ``_rows`` read live state.  Each of
``_STOCK_FUNCTIONS`` is answered in C only while the function the instance
resolves for that name, the way a method call resolves it (the type's part
cached per type version), is the stock one taken from the class when the
engine was built; a subclass override or a wrapper on the class or the
instance — installed at any time — is called by name, so ``perf/trace.py``'s
wrappers and a test's monkeypatch are seen and counted.  That covers, for the stock mechanisms:

* the routing hooks, ``Packet.record_hop`` and, at injection, ``on_inject``
  with UGAL / PB's source trigger and the Valiant intermediate;
* the captures — the pure one (``MinimalRouting`` / ``ValiantRouting``'s
  ``select_output``), the adaptive path policies and the one trigger of
  their open gates, reading the signals the mechanism declares — over the
  Dragonfly's region queries, route table and the routers' shared candidate
  tuples;
* the source phase: ``BernoulliTrafficGenerator.generate``, the uniform /
  adversarial / transient destinations, ``Packet(...)`` at its slots,
  ``ComputeNode.enqueue``, the sorted injection walk over ``Core.inject``;
* ``MetricsCollector.record_delivery`` — one body writing the collector's
  own counters, its latency samples and the time-series bins — and PB's
  saturation broadcast.

What a stock body calls that is not transcribed — another topology's
queries, memo misses, the obs / dateline / fault sub-calls, ``select_output``
on a dateline topology, ``_ensure_block`` on a new arrival block — is a
Python call made from C, by name and in the Python body's order; every pick
is :func:`repro.draws.integers`, whose compiled body draws the same stream
as ``rng.integers``.  :meth:`_live_request` / :meth:`_resolve_faults` /
:meth:`_drop_head` (``LIVE`` rows), ``metrics.record_dropped``, ECtN's
broadcast and the obs sites stay Python (docs/architecture.md, "The compiled
core", has the full lists).  The core never holds the engine — it is an
argument of the entry points — so engine → core is the only edge between
the two, and the type takes part in cyclic collection.  There is no
pure-Python twin of the compiled functions: where no C compiler works,
``create_engine("soa", …)`` runs the bit-identical ``object`` engine instead
(debug a suspected core bug with ``REPRO_BACKEND=object``).

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

The core's pure capture (healthy MIN / VAL / UGAL / PB) evaluates
``select_output`` once per head lifetime — ``decision_is_pure`` plus the
head-constancy of every input make the decision a constant of the head —
and stores a ``FIXED`` row.  The
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

import dataclasses
import inspect
import sys
from functools import partial
from typing import List

from repro import draws
from repro.metrics import MetricsCollector, TimeSeriesRecorder
from repro.network import ComputeNode, Network, Packet, RoutingPhase
from repro.routing import (
    AdaptiveInTransitRouting, BaseContentionRouting, ContentionCounters, ContentionTracker,
    ECtNRouting, HybridContentionRouting, MinimalRouting, OLMRouting, PiggybackRouting,
    RoutingAlgorithm, RoutingDecision, UGALRouting, ValiantRouting,
)
from repro.simulation.engine import _NO_EVENT, Engine
from repro.simulation.soa._loader import load_core
from repro.simulation.soa.state import SoAState
from repro.topology.base import PortKind, Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.traffic import (
    AdversarialTraffic, BernoulliTrafficGenerator, TrafficPattern, TransientTraffic,
    UniformTraffic,
)

__all__ = ["SoAEngine"]

_GLOBAL = PortKind.GLOBAL

# Who writes the rows: the core's pure capture or its capture of an adaptive
# path policy (``None``: nobody, every row is ``LIVE``).
CAPTURE_PURE = 0
CAPTURE_GROUP = 1  # MM+L group policy (Dragonfly, flattened butterfly)
CAPTURE_PORT_TABLE = 2  # port-table policy: ring escape (torus), uplinks (fat tree)

# The mechanisms the core's adaptive captures transcribe; their trigger is
# read off the signals they declare.
_ADAPTIVE_MECHS = (OLMRouting, BaseContentionRouting, HybridContentionRouting, ECtNRouting)
_PURE_MECHS = (MinimalRouting, ValiantRouting, UGALRouting, PiggybackRouting)

#: The functions the core answers in C while an instance resolves to them
#: (see "The compiled core"), per class.
_STOCK_FUNCTIONS = tuple(
    (owner, name)
    for owner, names in (
        (RoutingAlgorithm, "on_grant on_inject"),
        (Packet, "record_hop"),
        (MinimalRouting, "select_output"),
        (ValiantRouting, "on_inject on_packet_arrival select_output random_intermediate_router"),
        (UGALRouting, "on_inject prefers_valiant _ugal_prefers_valiant"),
        (PiggybackRouting, "prefers_valiant publish_flags"),
        (AdaptiveInTransitRouting, "on_packet_arrival global_candidates local_candidates"),
        (BaseContentionRouting, "on_packet_head on_packet_leave_input"),
        (ECtNRouting, "on_packet_head on_packet_arrival on_packet_leave_input "
                      "_maybe_count_partial link_offset_for_destination"),
        (ContentionTracker, "on_head on_leave"),
        (ContentionCounters, "decrement"),
        (Topology, "region_node_range valiant_intermediate_router"),
        (DragonflyTopology, "router_region node_region node_router minimal_output_port "
                            "minimal_route_to_router router_hops _route_port "
                            "port_target_region"),
        (MetricsCollector, "record_delivery record_generated in_window"),
        (TimeSeriesRecorder, "record"),
        (BernoulliTrafficGenerator, "generate"),
        (TrafficPattern, "_random_node_excluding"),
        (UniformTraffic, "destination"),
        (AdversarialTraffic, "destination"),
        (TransientTraffic, "destination"),
        (ComputeNode, "enqueue"),
        (Network, "activate_node"),
    )
    for name in names.split()
)

#: What those bodies read or build that is not a function the class's source
#: defines: properties, compared by identity and never called, and the
#: dataclass-made ``Packet.__init__`` the core builds packets in place of.
_STOCK_ATTRIBUTES = (
    *((DragonflyTopology, name) for name in (
        "num_nodes", "num_routers", "num_regions", "routers_per_region", "nodes_per_router")),
    (Packet, "__init__"),
)

#: The keywords ``BernoulliTrafficGenerator.generate`` builds a packet with.
_PACKET_KEYWORDS = ("pid", "src", "dst", "size_phits", "creation_cycle")


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


def _packet_defaults():
    """The names and the defaults of the ``Packet`` fields after
    ``_PACKET_KEYWORDS`` as two tuples; ``None`` (the core calls the class)
    where a field has no plain default."""
    fields = dataclasses.fields(Packet)
    given, rest = fields[: len(_PACKET_KEYWORDS)], fields[len(_PACKET_KEYWORDS):]
    if tuple(f.name for f in given) != _PACKET_KEYWORDS or any(
        not f.init or f.default is dataclasses.MISSING for f in rest
    ):
        return None
    return tuple(f.name for f in rest), tuple(f.default for f in rest)


def _stock() -> dict:
    """What ``Core`` compares and builds with: ``"Class.name"`` -> the stock
    function or attribute, plus the types, constants and defaults its bodies
    build with.  Resolved per engine, so a wrapper installed before this one
    was built is never mistaken for the stock function."""
    stock = {
        f"{owner.__name__}.{name}": _source_function(owner, name)
        for owner, name in _STOCK_FUNCTIONS
    }
    stock.update(
        (f"{owner.__name__}.{name}", vars(owner)[name]) for owner, name in _STOCK_ATTRIBUTES
    )
    stock.update(
        Packet=Packet, RoutingDecision=RoutingDecision, RoutingAlgorithm=RoutingAlgorithm,
        ValiantRouting=ValiantRouting, ECtNRouting=ECtNRouting,
        DragonflyTopology=DragonflyTopology, TO_INTERMEDIATE=RoutingPhase.TO_INTERMEDIATE,
        MINIMAL=RoutingPhase.MINIMAL, GLOBAL=_GLOBAL, draws=draws,
        packet_defaults=_packet_defaults(), NO_EVENT=_NO_EVENT,
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
                self._post_cycle = partial(self._core.publish_saturation, _pb_scan(st, routing))
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

    # ---------------------------------------------------------- source phase
    def _source_phase(self, cycle: int) -> int:
        """Traffic generation and injection, in the compiled core."""
        return self._core.source_phase(self, cycle)

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
    def _live_request(self, rid, q, k, head, cycle, round_index):
        """A ``LIVE`` row's decision (the core makes its request): the
        per-head body of ``Router.allocate`` verbatim, ``select_output`` on the
        view plus the fault resolution."""
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
        return decision

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
    for group in range(topo.num_regions):
        slots = [None] * topo.global_links_per_group
        for rid in topo.region_routers(group):
            position = topo.router_position(rid)
            for k in range(h):
                g = rid * st.P + first_global + k
                slots[position * h + k] = (g, fraction * st.cap_sum[g])
        scan.append(slots)
    return scan


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
