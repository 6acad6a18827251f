"""The compiled hop chain of the SoA engine (``soa/_core.c``).

The chain runs the parent's Python statements over the same state, so what is
pinned here is what C could silently get wrong: every overflow / underflow /
over-commit check still fires with the parent's exception type and message and
releases what it took, hooks are looked up by name per type version (a class
changed after a warm run included), the integer columns are bound as typed
buffers, the release marker at ``ready`` and the bookings of a grant have
the parent's shapes, nothing outlives a run (reference counts, the cyclic
collector, ``tracemalloc``), and the build-on-first-use machinery falls back,
races and refuses as documented.
"""

import functools
import gc
import os
import sys
import threading
import tracemalloc
import weakref
from array import array
from collections import Counter

import pytest

from repro.config.parameters import DragonflyConfig, SimulationParameters
from repro.metrics.collector import MetricsCollector
from repro.network.node import ComputeNode
from repro.network.packet import Packet
from repro.routing import (
    ROUTING_REGISTRY,
    AdaptiveInTransitRouting,
    BaseContentionRouting,
    ContentionCounters,
    ContentionTracker,
    ECtNRouting,
    PiggybackRouting,
    UGALRouting,
    ValiantRouting,
)
from repro.routing.base import RoutingAlgorithm, RoutingDecision
from repro.service.keys import result_fingerprint
from repro.simulation.engine import Engine
from repro.simulation.simulator import Simulator
from repro.simulation.soa import _loader
from repro.simulation.soa.engine import _stock
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.faults import FaultModel
from repro.topology.registry import TOPOLOGY_REGISTRY

pytestmark = pytest.mark.soa_core


def _sim(routing="MIN", load=0.0, backend="soa", **kwargs):
    return Simulator(
        SimulationParameters.tiny().with_backend(backend), routing, "UN", load, seed=1,
        **kwargs,
    )


def _packet(pid=0, dst=0, size=None):
    size = SimulationParameters.tiny().packet_size_phits if size is None else size
    return Packet(pid=pid, src=23, dst=dst, size_phits=size, creation_cycle=0)


def _link_port(st, rid=0):
    return next(p for p in range(st.P) if st.down_g[rid * st.P + p] >= 0)


def _raises_twice(exc_type, message, call, *held):
    """``call()`` raises ``exc_type(message)`` — twice, and the second failure
    leaves the reference counts of ``held`` where the first left them: an
    error path that forgot a ``Py_DECREF`` adds one per call."""
    counts = []
    for _ in range(2):
        with pytest.raises(exc_type) as info:
            call()
        assert str(info.value) == message
        del info
        counts.append([sys.getrefcount(obj) for obj in held])
    assert counts[0] == counts[1]


class TestKeptChecks:
    """Remove a check from ``_core.c`` and one of these fails."""

    def test_credit_overflow(self):
        sim = _sim()
        core, st = sim.engine._core, sim.engine._st
        rid = 1
        port = _link_port(st, rid)
        g = rid * st.P + port
        event = (rid, g, g * st.V + 1, 4)
        due = [event]
        _raises_twice(
            RuntimeError, f"credit overflow on router {rid} port {port} vc 1",
            lambda: core.apply_credits(due), due, event,
        )

    def test_vc_buffer_overflow(self):
        sim = _sim()
        core, st = sim.engine._core, sim.engine._st
        capacity = st.in_free[0]
        packet = _packet(size=capacity + 1)
        due = [(0, 0, packet)]
        _raises_twice(
            OverflowError,
            f"VC buffer overflow: {capacity + 1} phits requested, {capacity} free",
            lambda: core.apply_arrivals(due, 3), due, packet,
        )
        assert st.in_q[0] == []  # nothing was pushed

    def test_pop_from_an_empty_vc(self):
        sim = _sim()
        core, st = sim.engine._core, sim.engine._st
        _raises_twice(
            AttributeError, "'NoneType' object has no attribute 'pop'",
            lambda: core.pop_head(0, 0, 0, 3),
        )
        st.in_q[0] = []  # a VC that was used and emptied
        _raises_twice(IndexError, "pop from empty list", lambda: core.pop_head(0, 0, 0, 3))

    def _grant(self, sim, out_port):
        """A head on router 0, injection port 1, VC 0 and a request sending it
        through ``out_port``: a function that (re)plants the head and commits."""
        core = sim.engine._core
        packet = _packet()
        decision = RoutingDecision(output_port=out_port, vc=0)
        request = (1, 0, out_port, packet.size_phits, decision)

        def plant_and_commit():
            core.apply_arrivals([(1, 0, packet)], 3)
            core.commit(0, request, 3)

        return plant_and_commit, packet, request, decision

    def test_output_buffer_over_commit(self):
        sim = _sim()
        st = sim.engine._st
        commit, packet, request, decision = self._grant(sim, 0)
        size = packet.size_phits
        st.out_free[0] = size - 1
        _raises_twice(
            OverflowError, f"output buffer over-commit: {size} requested, {size - 1} free",
            commit, packet, request, decision,
        )
        assert st.out_committed[0] == 0  # the check precedes the booking

    def test_credit_underflow(self):
        sim = _sim()
        st = sim.engine._st
        port = _link_port(st)
        commit, packet, request, decision = self._grant(sim, port)
        st.credits[port * st.V] = packet.size_phits - 1
        _raises_twice(
            RuntimeError, f"credit underflow on router 0 port {port} vc 0",
            commit, packet, request, decision,
        )
        assert st.credit_occ[port] == 0

    @pytest.mark.parametrize(
        "routing, field, held, message",
        [
            ("Base", "contention_port", 3, "contention counter underflow on port 3"),
            ("ECtN", "ectn_offset", 1, "ECtN partial counter underflow"),
        ],
    )
    def test_counter_underflow_on_leaving_the_input(self, routing, field, held, message):
        """The stock leave hooks run in C, their underflow checks with them."""
        sim = _sim(routing)
        core = sim.engine._core
        packet = _packet()
        setattr(packet, field, held)  # a counter nobody incremented
        due = [(1, 0, packet)]

        def plant_and_pop():
            core.apply_arrivals(due, 3)
            core.pop_head(0, 1, 0, 3)

        _raises_twice(RuntimeError, message, plant_and_pop, packet, due)
        assert getattr(packet, field) == held  # the check precedes the release

    @pytest.mark.parametrize("hook", ["on_grant", "on_packet_leave_input"])
    def test_a_hook_that_raises_propagates_and_leaks_nothing(self, hook):
        sim = _sim("Base")
        commit, packet, request, decision = self._grant(sim, 0)

        def refuse(*args):
            raise LookupError("the hook said no")

        setattr(sim.engine._routing, hook, refuse)
        _raises_twice(LookupError, "the hook said no", commit, packet, request, decision)


class TestBookings:
    """What a grant writes into the calendars, event shapes included."""

    def test_grant_onto_a_busy_link_touches_the_ready_bucket(self):
        sim = _sim()
        core, st = sim.engine._core, sim.engine._st
        latency = sim.params.router_latency
        port = _link_port(st)
        packet = _packet()
        size = packet.size_phits
        cycle = 7
        busy_until = cycle + latency + 5
        st.link_booked[port] = busy_until
        core.apply_arrivals([(1, 0, packet)], cycle)
        decision = RoutingDecision(output_port=port, vc=1)
        core.commit(0, (1, 0, port, size, decision), cycle)

        done = busy_until + size * st.ser_fac[port]
        calendars = core.calendars()
        # ``object`` wakes at the pipeline exit although the link is busy: the
        # marker there, a key with no event, is what the warp horizon reads.
        assert calendars["release"].get(cycle + latency) == []
        assert calendars["release"].get(busy_until) == [(port, size, done, None)]
        assert calendars["arrival"].get(done + st.link_lat[port]) == [(st.down_g[port], 1, packet)]
        assert st.link_booked[port] == done and st.link_busy[port] == 0
        assert (st.out_committed[port], st.credit_occ[port]) == (size, size)
        assert packet.current_vc == 1 and packet.hops == 1
        # An injection port has no upstream: no credit is owed.
        assert not calendars["credit"]

    def test_ejection_release_carries_its_packet(self):
        sim = _sim()
        core, st = sim.engine._core, sim.engine._st
        packet = _packet()
        size = packet.size_phits
        core.apply_arrivals([(1, 0, packet)], 2)
        core.commit(0, (1, 0, 0, size, RoutingDecision(output_port=0, vc=0)), 2)
        depart = 2 + sim.params.router_latency
        calendars = core.calendars()
        assert list(calendars["release"]) == [depart]
        assert calendars["release"].get(depart) == [(0, size, depart + size, packet)]
        assert not calendars["arrival"] and packet.hops == 0  # an ejection is no hop

    @pytest.mark.parametrize("router_latency", [0, 1])
    def test_same_cycle_release_and_marker_leave_no_stale_bucket(self, router_latency):
        """Three heads for one ejection port arriving together: with
        ``router_latency = 0`` the first release and the markers of the grants
        behind it are due in the very cycle that makes them, after its bucket
        was popped — the walk merges them in, as ``object`` transmits right
        after it allocates."""
        import dataclasses

        params = dataclasses.replace(SimulationParameters.tiny(), router_latency=router_latency)
        runs = {}
        for backend in ("object", "soa"):
            sim = Simulator(params.with_backend(backend), "MIN", "UN", 0.0, seed=1)
            packets = [_packet(pid) for pid in range(3)]
            for packet, (port, vc) in zip(packets, [(0, 0), (0, 1), (1, 0)]):
                sim.engine.schedule_arrival(0, port, 4, vc, packet)
            sim.run_cycles(120)
            runs[backend] = sim, [p.delivered_cycle for p in packets]
        (obj, obj_cycles), (soa, soa_cycles) = runs["object"], runs["soa"]
        assert soa_cycles == obj_cycles and None not in soa_cycles
        assert soa.engine.cycles_skipped == obj.engine.cycles_skipped
        assert not any(soa.engine._core.calendars().values())


class TestRows:
    """The captured rows are the core's C structs, seen through ``Core.row``."""

    @pytest.mark.parametrize("routing", ["MIN", "VAL"])
    def test_a_captured_row_requests_what_select_output_decides(self, routing):
        """The pure decision is a constant of the head, so each captured row
        must carry the port and VC the spec's ``select_output`` gives now."""
        sim = _sim(routing, 0.6)
        core, st = sim.engine._core, sim.engine._st
        per_router = st.P * st.V
        checked = 0
        for _ in range(30):
            sim.run_cycles(10)
            for q, queue in enumerate(st.in_q):
                row = core.row(q)
                if row is None:
                    continue
                assert queue, f"VC {q} has a row but no head"
                rid, k = divmod(q, per_router)
                port, vc = divmod(k, st.V)
                decision = sim.routing.select_output(st.views[rid], port, vc, queue[0], sim.cycle)
                assert row["kind"] == "FIXED"
                assert (row["output_port"], row["vc"]) == (decision.output_port, decision.vc)
                assert row["size"] == queue[0].size_phits
                checked += 1
        assert checked > 100

    def test_a_gate_row_shows_its_candidates(self):
        sim = _sim("Base", 0.4)
        sim.run_cycles(200)
        core, st = sim.engine._core, sim.engine._st
        rows = [core.row(q) for q in range(len(st.in_q))]
        gates = [row for row in rows if row is not None and row["kind"] != "FIXED"]
        assert gates
        for row in gates:
            assert row["decision"].output_port == row["output_port"] == row["minimal"]
            shared, first, _, proxy = row["candidates"]
            assert type(shared) is tuple and first >= 0 and proxy in (0, 1)

    def test_nobody_captures_a_live_head(self):
        sim = Simulator(
            SimulationParameters.tiny().with_backend("soa"), "Base", "UN", 0.4, seed=1,
            fault_model=FaultModel(link_failure_percent=10.0),
        )
        sim.run_cycles(100)
        st = sim.engine._st
        assert any(st.occ) and all(sim.engine._core.row(q) is None for q in range(len(st.in_q)))
        with pytest.raises(IndexError):
            sim.engine._core.row(len(st.in_q))

    def test_no_row_or_request_tuple_is_held(self):
        """Nothing the core holds (through lists, tuples and dicts) has the
        shape of a captured row tuple or of a request tuple."""
        params = SimulationParameters.small(DragonflyConfig(p=2, a=4, h=2)).with_backend("soa")
        sim = Simulator(params, "Base", "UN", 0.3, seed=1)
        fresh = sim.engine._core.__sizeof__()
        sim.run_cycles(500)
        core = sim.engine._core
        assert core.__sizeof__() > fresh  # rows were taken (and given back)

        def request_shaped(t):
            return type(t) is tuple and len(t) == 7 and isinstance(t[4], RoutingDecision)

        def row_shaped(t):
            return type(t) is tuple and len(t) in (2, 7) and request_shaped(t[1])

        seen, todo = set(), list(gc.get_referents(core))
        while todo:
            obj = todo.pop()
            if id(obj) in seen or type(obj) not in (list, tuple, dict):
                continue
            seen.add(id(obj))
            assert not request_shaped(obj) and not row_shaped(obj), obj
            todo.extend(gc.get_referents(obj))
        assert len(seen) > 100


_COLUMNS = (
    "in_free", "credits", "max_credits", "up_lat", "out_committed", "out_free", "link_busy",
    "link_booked", "link_lat", "ser_fac", "credit_occ", "in_ptr", "out_ptr", "in_nvcs",
    "alloc_nvc", "down_nvcs", "cap_sum", "up_g", "up_rid", "down_g",
)
_HOOKS = ("on_grant", "on_packet_leave_input", "on_packet_head", "on_packet_arrival")
_MECHANISMS = ["MIN", "VAL", "UGAL", "PB", "OLM", "Base", "Hybrid", "ECtN"]
_INJECTION = [
    (RoutingAlgorithm, "on_inject"),
    (ValiantRouting, "on_inject"),
    (UGALRouting, "on_inject"),
    (UGALRouting, "prefers_valiant"),
    (UGALRouting, "_ugal_prefers_valiant"),
    (PiggybackRouting, "prefers_valiant"),
    (ValiantRouting, "random_intermediate_router"),
]
_QUERIES = [
    (DragonflyTopology, "minimal_output_port"),
    (DragonflyTopology, "router_region"),
    (DragonflyTopology, "node_region"),
    (AdaptiveInTransitRouting, "global_candidates"),
]


class TestHooksAreLookedUpByName:
    """The core answers a hook in C only while the instance resolves it to
    the stock function; anything else is called by name, exactly where and as
    often as the object engine calls it."""

    def _counted(self, monkeypatch, routing, targets, before=False, wraps=False, equal=True):
        """Calls per wrapped ``(owner, name)`` of one run per backend (``soa``'s
        returned); the wrappers (``functools.wraps`` ones if ``wraps``) go onto
        the classes after the Simulators are built unless ``before``.  Without
        ``equal`` only the names called must agree, not how often."""
        calls = {backend: Counter() for backend in ("object", "soa")}
        current = []

        def counting(name, original):
            def wrapper(self, *args, **kwargs):
                calls[current[0]][name] += 1
                return original(self, *args, **kwargs)

            return functools.wraps(original)(wrapper) if wraps else wrapper

        def install():
            for owner, name in targets:
                monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))

        if before:
            install()
        sims = {backend: _sim(routing, 0.3, backend) for backend in calls}
        if not before:
            install()
        for backend, sim in sims.items():
            current[:] = [backend]
            sim.run_steady_state(50, 150)
        if equal:
            assert calls["soa"] == calls["object"]
        else:
            assert set(calls["soa"]) == set(calls["object"])
        assert sims["soa"].engine.delivered_packets == sims["object"].engine.delivered_packets
        return calls["soa"]

    @pytest.mark.parametrize("routing", ["MIN", "VAL", "PB", "OLM", "Base", "Hybrid", "ECtN"])
    def test_wrappers_installed_on_the_classes_after_construction_are_called(
        self, monkeypatch, routing
    ):
        """``perf/trace.py`` wraps hooks at class level after import, tests
        patch them: the compiled chain must see both, like a Python caller."""
        routing_class = type(_sim(routing).network.routing)
        targets = [(routing_class, name) for name in _HOOKS]
        targets += [
            (ContentionTracker, "on_head"),
            (ContentionTracker, "on_leave"),
            (MetricsCollector, "record_delivery"),
            (Packet, "record_hop"),
        ]
        calls = self._counted(monkeypatch, routing, targets)
        assert calls["on_grant"] > 0 and calls["record_hop"] > 0
        assert calls["record_delivery"] > 0
        if routing in ("Base", "Hybrid", "ECtN"):
            assert calls["on_grant"] == calls["on_packet_leave_input"]
            assert calls["on_head"] == calls["on_packet_head"] > 0

    @pytest.mark.parametrize("routing", ["Base", "Hybrid", "ECtN"])
    def test_what_a_stock_hook_calls_is_resolved_by_name_too(self, monkeypatch, routing):
        """Stock hooks, wrapped callees: ``self.tracker.on_head``,
        ``ContentionCounters.decrement``, ``self._maybe_count_partial`` and
        ``record_hop`` are resolved where the Python body calls them."""
        targets = [
            (ContentionTracker, "on_head"),
            (ContentionTracker, "on_leave"),
            (ContentionCounters, "decrement"),
            (ECtNRouting, "_maybe_count_partial"),
            (Packet, "record_hop"),
        ]
        calls = self._counted(monkeypatch, routing, targets)
        assert calls["on_head"] >= calls["on_leave"] >= calls["decrement"] > 0
        assert calls["record_hop"] > 0
        assert (calls["_maybe_count_partial"] > 0) == (routing == "ECtN")

    def test_a_wrapper_on_the_class_super_reaches_is_called(self, monkeypatch):
        """ECtN's stock head and leave hooks start with ``super()``: a
        wrapper on Base's hook sends the whole ECtN hook by name."""
        targets = [
            (BaseContentionRouting, "on_packet_head"),
            (BaseContentionRouting, "on_packet_leave_input"),
        ]
        calls = self._counted(monkeypatch, "ECtN", targets)
        assert min(calls[name] for name in _HOOKS[1:3]) > 0

    @pytest.mark.parametrize("wraps", [True, False], ids=["functools.wraps", "plain"])
    def test_a_wrapper_installed_before_construction_is_not_taken_for_stock(
        self, monkeypatch, wraps
    ):
        """The stock functions are taken from the classes when an engine is
        built: a wrapper already there — unwrappable or not — stays a
        wrapper."""
        targets = [(RoutingAlgorithm, "on_grant"), (Packet, "record_hop")]
        calls = self._counted(monkeypatch, "Base", targets, before=True, wraps=wraps)
        assert calls["on_grant"] > 0 and calls["record_hop"] > 0

    def test_a_hook_set_on_the_instance_is_called(self):
        sim = _sim("Base", 0.3)
        seen = []
        routing = sim.network.routing
        hook = routing.on_grant
        routing.on_grant = lambda *args: (seen.append(args[3].pid), hook(*args))
        sim.run_cycles(120)
        assert len(seen) > 0

    @pytest.mark.parametrize("routing", _MECHANISMS)
    def test_injection_hooks_and_topology_queries_are_called_as_often_as_on_object(
        self, monkeypatch, routing
    ):
        """A subclass that overrides nothing gets no capture — every head is
        ``LIVE``, evaluated per round as ``object`` evaluates it — while every
        name the core answers still resolves to its stock function.  Wrapped,
        each injection hook and topology query the core would answer in C is
        called by name, as often as on ``object``."""
        stock = ROUTING_REGISTRY[routing]
        monkeypatch.setitem(ROUTING_REGISTRY, routing, type(f"Bare{stock.__name__}", (stock,), {}))
        calls = self._counted(monkeypatch, routing, _INJECTION + _QUERIES)
        assert calls["on_inject"] > 0 and calls["router_region"] > 0
        assert calls["minimal_output_port"] > 0
        if routing in ("VAL", "UGAL", "PB"):
            assert calls["random_intermediate_router"] > 0
        if routing in ("UGAL", "PB"):
            assert calls["prefers_valiant"] > 0 and calls["_ugal_prefers_valiant"] > 0
            assert calls["node_region"] > 0
        if routing in ("OLM", "Base", "Hybrid", "ECtN"):
            assert calls["global_candidates"] > 0

    @pytest.mark.parametrize("routing", ["OLM", "Base", "Hybrid", "ECtN"])
    def test_the_captures_call_wrapped_queries_by_name(self, monkeypatch, routing):
        """A captured head asks once what ``object`` asks per evaluation, so
        the counts differ; but a query wrapped on its class is called, not
        read from the tables behind the wrapper's back."""
        calls = self._counted(monkeypatch, routing, _INJECTION + _QUERIES, equal=False)
        assert calls["global_candidates"] > 0 and calls["minimal_output_port"] > 0


class _HopLoggingPacket(Packet):
    """A packet class overriding ``record_hop``."""

    __slots__ = ()
    log: list = []

    def record_hop(self, *, is_global: bool) -> None:
        _HopLoggingPacket.log.append((self.pid, self.hops, is_global))
        super().record_hop(is_global=is_global)


class _GrantLogging(ECtNRouting):
    """A routing subclass overriding ``on_grant`` and nothing else."""

    name = "GrantLogging"

    def __init__(self, *args):
        super().__init__(*args)
        self.granted = []

    def on_grant(self, router, port, vc, packet, decision, cycle):
        self.granted.append((cycle, router.router_id, packet.pid, decision.output_port))
        super().on_grant(router, port, vc, packet, decision, cycle)


class _CountingDragonfly(DragonflyTopology):
    """A Dragonfly overriding ``minimal_output_port`` (same answers, counted)."""

    asked = 0

    def minimal_output_port(self, router, dst_node):
        _CountingDragonfly.asked += 1
        return super().minimal_output_port(router, dst_node)


class _NeverValiant(PiggybackRouting):
    """PB whose source-adaptive trigger never commits to a Valiant path."""

    name = "NeverValiant"

    def prefers_valiant(self, router, packet, intermediate, cycle):
        return False


class TestOverridesAreHonoured:
    @pytest.mark.parametrize("routing", ["UGAL", "Base"])
    def test_a_topology_subclass_keeps_its_minimal_output_port(self, monkeypatch, routing):
        """The route table is read only behind the stock function: an
        override is asked wherever the Python bodies ask (Base asks only in
        its head hook, so there the counts match ``object``'s exactly)."""
        monkeypatch.setattr(TOPOLOGY_REGISTRY["dragonfly"], "topology_cls", _CountingDragonfly)
        prints, asked = {}, {}
        for backend in ("object", "soa"):
            _CountingDragonfly.asked = 0
            sim = _sim(routing, 0.3, backend)
            assert type(sim.topology) is _CountingDragonfly
            prints[backend] = result_fingerprint(sim.run_steady_state(50, 150))
            asked[backend] = _CountingDragonfly.asked
        assert prints["soa"] == prints["object"] and asked["soa"] > 0
        if routing == "Base":
            assert asked["soa"] == asked["object"]

    def test_a_piggyback_subclass_keeps_its_prefers_valiant(self, monkeypatch):
        monkeypatch.setitem(ROUTING_REGISTRY, "NeverValiant", _NeverValiant)
        prints = {
            backend: result_fingerprint(
                _sim("NeverValiant", 0.3, backend).run_steady_state(50, 150)
            )
            for backend in ("object", "soa")
        }
        assert prints["soa"] == prints["object"]
        # The override decided: stock PB sends some packets through Valiant.
        assert prints["soa"] != result_fingerprint(_sim("PB", 0.3).run_steady_state(50, 150))

    def test_a_packet_subclass_keeps_its_record_hop(self):
        """Its fields are read through getattr, its hop through its method."""
        logs = {}
        for backend in ("object", "soa"):
            sim = _sim("Base", 0.0, backend)
            packets = [
                _HopLoggingPacket(
                    pid=10**6 + i, src=0, dst=dst, size_phits=sim.params.packet_size_phits,
                    creation_cycle=0,
                )
                for i, dst in enumerate((17, 23, 5))
            ]
            _HopLoggingPacket.log = []
            for i, packet in enumerate(packets):
                sim.engine.schedule_arrival(0, i % 2, 3 + i, 0, packet)
            sim.run_cycles(300)
            assert all(packet.delivered for packet in packets)
            logs[backend] = list(_HopLoggingPacket.log)
            assert [pid for pid, _, _ in logs[backend]].count(packets[1].pid) == packets[1].hops
        assert logs["soa"] == logs["object"] and logs["soa"]

    def test_a_routing_subclass_keeps_its_on_grant(self, monkeypatch):
        monkeypatch.setitem(ROUTING_REGISTRY, "GrantLogging", _GrantLogging)
        runs = {backend: _sim("GrantLogging", 0.3, backend) for backend in ("object", "soa")}
        for sim in runs.values():
            sim.run_steady_state(50, 150)
        soa, obj = (runs[b].network.routing for b in ("soa", "object"))
        assert soa.granted == obj.granted and len(soa.granted) > 100
        assert runs["soa"].engine.delivered_packets == runs["object"].engine.delivered_packets
        # Its other hooks are still ECtN's stock ones, answered in C.
        assert soa.partial == obj.partial and soa.combined == obj.combined


class _CountingCollector(MetricsCollector):
    """A collector whose slotted ``delivered_packets`` a property shadows:
    the core must write through the property, not the slot."""

    __slots__ = ()

    @property
    def delivered_packets(self):
        return MetricsCollector.delivered_packets.__get__(self)

    @delivered_packets.setter
    def delivered_packets(self, value):
        _CountingCollector.writes[_CountingCollector.backend] += 1
        MetricsCollector.delivered_packets.__set__(self, value)


class _CountingHopsPacket(Packet):
    """A packet whose slotted ``hops`` a property shadows: the core must read
    and write it through the property, never at the slot offset it binds for
    an exact ``Packet``."""

    __slots__ = ()
    uses: Counter = Counter()
    backend = ""

    @property
    def hops(self):
        _CountingHopsPacket.uses[_CountingHopsPacket.backend] += 1
        return Packet.hops.__get__(self)

    @hops.setter
    def hops(self, value):
        _CountingHopsPacket.uses[_CountingHopsPacket.backend] += 1
        Packet.hops.__set__(self, value)


class TestTheNameCacheFollowsTheClasses:
    """The core looks a name up once per version of the instance's type; a
    class changed after a warm run is a new version, and what the class holds
    now is what the next run calls."""

    @pytest.mark.parametrize(
        "owner, name",
        [
            (BaseContentionRouting, "on_packet_head"),
            (ContentionTracker, "on_leave"),
            (MetricsCollector, "record_delivery"),
            (MetricsCollector, "in_window"),
            (ComputeNode, "enqueue"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_a_wrapper_installed_after_a_warm_run_is_called(self, monkeypatch, owner, name):
        sims = {backend: _sim("Base", 0.3, backend) for backend in ("object", "soa")}
        for sim in sims.values():
            sim.run_steady_state(50, 100)  # every name the stock bodies use is cached now
        calls = Counter()
        current = []
        original = getattr(owner, name)

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            calls[current[0]] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        for backend, sim in sims.items():
            current[:] = [backend]
            sim.run_steady_state(0, 200)
        assert calls["soa"] == calls["object"] > 0
        assert sims["soa"].engine.delivered_packets == sims["object"].engine.delivered_packets

    def test_a_subclass_property_over_a_slot_is_used(self, monkeypatch):
        delivered, writes = {}, Counter()
        monkeypatch.setattr(_CountingCollector, "writes", writes, raising=False)
        for backend in ("object", "soa"):
            sim = _sim("Base", 0.3, backend)
            sim.run_steady_state(50, 100)  # the stock sink's slots are cached now
            start = sim.cycle
            metrics = MetricsCollector(
                num_nodes=sim.topology.num_nodes, measure_start=start, measure_end=start + 200
            )
            metrics.__class__ = _CountingCollector
            monkeypatch.setattr(_CountingCollector, "backend", backend, raising=False)
            sim.engine.metrics = metrics
            sim.engine.run(200)
            delivered[backend] = metrics.delivered_packets
        assert writes["soa"] == writes["object"] == delivered["soa"] == delivered["object"] > 0


    def test_a_packet_subclass_property_over_a_slot_is_used(self, monkeypatch):
        uses, hops = Counter(), {}
        monkeypatch.setattr(_CountingHopsPacket, "uses", uses)
        for backend in ("object", "soa"):
            monkeypatch.setattr(_CountingHopsPacket, "backend", backend)
            sim = _sim("Base", 0.3, backend)
            sim.run_steady_state(20, 40)  # exact packets: the slot offsets are bound now
            packets = [
                _CountingHopsPacket(
                    pid=10**6 + i, src=0, dst=dst, size_phits=sim.params.packet_size_phits,
                    creation_cycle=sim.cycle,
                )
                for i, dst in enumerate((17, 23, 5))
            ]
            for i, packet in enumerate(packets):
                sim.engine.schedule_arrival(0, i % 2, sim.cycle + 3 + i, 0, packet)
            sim.run_cycles(300)
            assert all(packet.delivered for packet in packets)
            hops[backend] = [Packet.hops.__get__(packet) for packet in packets]
        assert hops["soa"] == hops["object"] and min(hops["soa"]) > 0
        assert uses["soa"] == uses["object"] > 0

class TestTypedColumns:
    def test_the_integer_columns_hold_nothing_for_the_collector(self):
        """An ``array`` is a container the collector tracks (it visits its
        type), but it holds no element objects: a pass over the state visits
        no integer of it."""
        st = _sim().engine._st
        for name in _COLUMNS:
            column = getattr(st, name)
            assert type(column) is array and column.typecode == "q", name
            assert gc.get_referents(column) in ([], [array]), name

    @pytest.mark.parametrize(
        "wrong", [list, lambda c: array("i", c), lambda c: array("d", c), bytearray],
        ids=["list", "array('i')", "array('d')", "bytearray"],
    )
    def test_a_column_of_another_type_is_refused_at_bind_time(self, wrong):
        engine = _sim().engine
        st = engine._st
        st.in_free = wrong(st.in_free)
        with pytest.raises(TypeError, match=r"st\.in_free must be an array\('q'\)"):
            type(engine._core)(
                st, engine._routing, engine._drp, (True, True, True), 1, 0, -1, _stock(),
            )

    def test_a_bound_column_cannot_be_resized(self):
        """The core holds a buffer on each column: a resize would move it."""
        sim = _sim()
        st = sim.engine._st
        with pytest.raises(BufferError):
            st.credits.append(0)


class TestLifetime:
    def test_a_cycle_through_the_core_is_collected(self):
        """engine -> core -> routing -> (anything) -> engine is a cycle once
        something the routing holds points back; the core must be visible to
        the collector or the whole Simulator is pinned for ever."""
        core_type = _loader.load_core().Core
        from repro.simulation.soa import SoAEngine

        def alive():
            return sum(type(o) in (core_type, SoAEngine) for o in gc.get_objects())

        gc.collect()
        before = alive()
        sim = _sim("Base", 0.3)
        sim.run_cycles(100)
        sim.network.routing.back_reference = sim.engine
        assert alive() == before + 2
        del sim
        gc.collect()
        assert alive() == before

    def test_a_row_whose_decision_refers_to_the_simulator_is_collected(self, monkeypatch):
        """A row holds its decision: one that points back at the Simulator
        makes a cycle through the core's row pool, which the collector sees
        only if the core visits every reference a row holds."""

        class Holding:
            """A decision that also holds the simulator it was made in."""

            def __init__(self, decision, owner):
                self.decision, self.owner = decision, owner

            def __getattr__(self, name):
                return getattr(self.decision, name)

        sim = _sim("MIN", 0.4)
        routing = sim.routing
        stock = type(routing).select_output
        owner = [sim]
        # The pure capture calls an instance's own ``select_output`` by name.
        monkeypatch.setattr(
            routing, "select_output",
            lambda *args: Holding(stock(routing, *args), owner[0]), raising=False,
        )
        sim.run_cycles(100)
        core, st = sim.engine._core, sim.engine._st
        held = [core.row(q) for q in range(len(st.in_q))]
        assert any(row is not None and type(row["decision"]) is Holding for row in held)
        alive = weakref.ref(sim)
        del sim, held, core, st, routing, owner[:]
        monkeypatch.undo()
        gc.collect()
        assert alive() is None

    def test_nothing_of_a_drained_run_is_reachable_from_the_engine(self):
        sim = _sim("Base", 0.3)
        mine = _packet(pid=10**6, dst=2)
        baseline = sys.getrefcount(mine)
        sim.engine.schedule_arrival(0, 0, 20, 0, mine)
        sim.run_cycles(300)
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(2_000)
        engine = sim.engine
        assert engine.delivered_packets > 100 and mine.delivered
        assert engine.total_buffered_packets() == 0
        assert not any(engine._core.calendars().values())
        # The calendar events, the VC list, the delivered list, the hook
        # arguments: every reference the chain took is given back.
        assert sys.getrefcount(mine) == baseline

    def test_a_second_identical_run_allocates_nothing_that_stays(self):
        def run():
            sim = _sim("ECtN", 0.4)
            sim.run_cycles(300)
            sim.traffic.set_offered_load(0.0)
            sim.run_cycles(1_000)
            assert sim.engine.total_buffered_packets() == 0
            return sim.engine.delivered_packets

        delivered = run()  # imports, memoised candidate sets, the build itself
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            assert run() == delivered
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One leaked ``Packet`` per delivery would be > 100 kB.
        assert delivered > 300 and after - before < 4_096


# ------------------------------------------------------------ build hygiene
#: A valid extension module that builds in a fraction of a second.  Multi-phase
#: initialisation, so loading it does not touch ``sys.modules``.
TINY_SOURCE = """
#include <Python.h>
static PyModuleDef_Slot slots[] = {{0, NULL}};
static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_core", NULL, 0, NULL, slots, NULL, NULL, NULL};
PyMODINIT_FUNC PyInit__core(void) { return PyModuleDef_Init(&module); }
"""


@pytest.fixture
def scratch_loader(monkeypatch, tmp_path):
    """The loader pointed at a scratch source tree and a scratch temp dir, with
    nothing loaded yet; everything is put back afterwards."""
    package = tmp_path / "package"
    package.mkdir()
    source = package / "_core.c"
    source.write_text(TINY_SOURCE)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(_loader, "SOURCE", source)
    monkeypatch.setattr(_loader, "_loaded", None)
    monkeypatch.setattr(_loader.tempfile, "tempdir", str(temp))
    return source


class TestBuildOnFirstUse:
    def test_fallback_to_object_warns_once_and_computes_the_same(self, monkeypatch):
        def point():
            return _sim("Base", 0.3).run_steady_state(50, 100)

        compiled = point()

        def no_compiler():
            raise _loader.CoreUnavailable("no compiler on this box")

        monkeypatch.setattr(_loader, "_loaded", None)
        monkeypatch.setattr(_loader, "_build", no_compiler)
        with pytest.warns(RuntimeWarning) as caught:
            sim = _sim("Base", 0.3)
        assert len(caught) == 1
        assert "no compiler on this box" in str(caught[0].message)
        assert type(sim.engine) is Engine
        assert result_fingerprint(sim.run_steady_state(50, 100)) == result_fingerprint(compiled)
        # The failure is remembered: no second build attempt in this process.
        monkeypatch.setattr(_loader, "_build", lambda: pytest.fail("built again"))
        with pytest.warns(RuntimeWarning):
            assert type(_sim().engine) is Engine

    def test_builds_beside_the_source_under_a_key_of_source_and_interpreter(
        self, scratch_loader
    ):
        first = _loader._build()
        assert first.parent.parent == scratch_loader.with_name("_build")
        assert first.name == f"_core{_loader.EXT_SUFFIX}"
        assert os.listdir(first.parent) == [first.name]  # no temporary left behind
        stamp = first.stat().st_mtime_ns
        assert _loader._build() == first and first.stat().st_mtime_ns == stamp  # reused
        assert _loader.load_core().__file__ == str(first)
        # Another source is another key: an edit can never load a stale binary.
        scratch_loader.write_text(TINY_SOURCE + "/* edited */\n")
        assert _loader._build().parent != first.parent

    def test_a_compile_in_the_tree_prunes_the_builds_of_other_sources(self, scratch_loader):
        builds = scratch_loader.with_name("_build")
        stale = builds / "stale-key"
        stale.mkdir(parents=True)
        (stale / f"_core{_loader.EXT_SUFFIX}").write_text("an earlier build")
        (builds / "a-file").write_text("not a build directory")
        current = _loader._build()
        assert current.exists() and not stale.exists()
        assert sorted(os.listdir(builds)) == sorted([current.parent.name, "a-file"])
        # Reusing a build compiles nothing, so it prunes nothing either.
        stale.mkdir()
        assert _loader._build() == current and stale.exists()

    def test_compile_error_surfaces_the_compilers_words(self, scratch_loader):
        scratch_loader.write_text("#error broken on purpose\n")
        with pytest.raises(_loader.CoreUnavailable, match="broken on purpose"):
            _loader.load_core()
        with pytest.warns(RuntimeWarning, match="broken on purpose"):
            assert type(_sim().engine) is Engine

    def test_missing_compiler_is_a_reason_not_a_crash(self, scratch_loader, monkeypatch):
        monkeypatch.setattr(_loader, "COMPILER", "no-such-compiler-anywhere")
        with pytest.raises(_loader.CoreUnavailable, match="no-such-compiler-anywhere"):
            _loader.load_core()

    def test_unwritable_tree_builds_in_the_private_temp_dir(self, scratch_loader):
        scratch_loader.with_name("_build").write_text("in the way")  # mkdir fails
        built = _loader._build()
        cache = built.parent.parent
        assert cache.name == f"repro-soa-{os.getuid()}"
        assert str(cache.parent) == _loader.tempfile.gettempdir()
        assert cache.stat().st_mode & 0o777 == 0o700
        assert _loader._build() == built

    @pytest.mark.parametrize("flaw", ["mode", "symlink", "file"])
    def test_a_temp_cache_somebody_else_could_write_is_refused(self, scratch_loader, flaw):
        scratch_loader.with_name("_build").write_text("in the way")
        cache = scratch_loader.parent.parent / "temp" / f"repro-soa-{os.getuid()}"
        if flaw == "mode":
            cache.mkdir(mode=0o755)
            cache.chmod(0o755)
        elif flaw == "symlink":
            elsewhere = scratch_loader.parent / "elsewhere"
            elsewhere.mkdir(mode=0o700)
            cache.symlink_to(elsewhere)
        else:
            cache.write_text("not a directory")
        with pytest.raises(_loader.CoreUnavailable, match="refusing the build cache"):
            _loader._build()

    def test_a_cache_owned_by_another_user_is_refused(self, scratch_loader, monkeypatch):
        scratch_loader.with_name("_build").write_text("in the way")
        _loader._private_temp_dir()  # ours, 0700
        uid = os.getuid()
        monkeypatch.setattr(_loader.os, "getuid", lambda: uid + 1)
        (scratch_loader.parent.parent / "temp" / f"repro-soa-{uid}").rename(
            scratch_loader.parent.parent / "temp" / f"repro-soa-{uid + 1}"
        )
        with pytest.raises(_loader.CoreUnavailable, match="refusing the build cache"):
            _loader._private_temp_dir()

    def test_concurrent_first_builds_publish_one_complete_file(self, scratch_loader):
        target = scratch_loader.with_name("_build") / "key" / f"_core{_loader.EXT_SUFFIX}"
        target.parent.mkdir(parents=True)
        errors = []

        def build():
            try:
                _loader._compile(target)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        builders = [threading.Thread(target=build) for _ in range(3)]
        for thread in builders:
            thread.start()
        for thread in builders:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in builders) and not errors
        assert os.listdir(target.parent) == [target.name]
        assert _loader._import(target).__name__ == _loader.MODULE_NAME
