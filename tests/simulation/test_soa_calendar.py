"""The SoA engine's event calendars: due-cycle wheels instead of port scans.

Credit returns, link arrivals and output-port releases live in three
calendars of the compiled core: pools of C event structs on a wheel of slots
indexed by due cycle (``_core.c``, "calendars"; ``Core.calendars()`` shows
them as ``{due: [event tuples]}``).  These tests pin the traps of that design
on hand-built micro-states: events sharing a cycle apply exactly once and in
the object engine's (router, port) order, grants booked onto one port start
on the wire at the cycles the object engine sends them, the warp horizon /
stall watchdog read the calendars the way they used to read the per-router
event caches, an event a wheel turn or more ahead (or one sharing a slot
with another due) pops on its own cycle, the pools follow the events in
flight, and the cyclic collector sees the packets the calendars hold.
"""

import dataclasses
import gc
import sys
import weakref

import pytest

from repro.network.packet import Packet
from repro.service.keys import result_fingerprint
from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator
from repro.topology.faults import DegradedLink, FaultModel
from repro.topology.registry import create_topology

pytestmark = pytest.mark.soa_core


def _sim(params, routing="MIN", backend="soa", **kwargs):
    return Simulator(
        params.with_backend(backend), routing, "UN", offered_load=0.0, seed=1, **kwargs
    )


def _packet(pid, dst, size):
    return Packet(pid=pid, src=23, dst=dst, size_phits=size, creation_cycle=0)


def _calendars_empty(engine):
    return not any(engine._core.calendars().values())


class TestSameCycleEvents:
    def test_credits_and_arrivals_apply_once_in_router_port_order(self, tiny_params):
        sim = _sim(tiny_params, "VAL")  # VAL has an on_packet_arrival hook
        engine, st = sim.engine, sim.engine._st
        size = tiny_params.packet_size_phits
        due = 7

        # Two outstanding credits on different routers, both returning at
        # ``due`` (scheduled out of router order); a double application
        # would trip the credit-overflow check.
        returns = []
        for rid in (3, 0):
            port = next(p for p in range(st.P) if st.down_g[rid * st.P + p] >= 0)
            g = rid * st.P + port
            q = g * st.V
            st.credits[q] -= size
            st.credit_occ[g] += size
            engine._core.schedule("credit", due, (rid, g, q, size))
            st.alloc_clean[rid] = True
            returns.append((rid, g, q))
        # Three arrivals on injection ports (no upstream to owe a credit),
        # scheduled in reverse (router, port) order; each is one hop from
        # its destination node.
        for pid, (rid, port) in enumerate([(2, 0), (1, 1), (1, 0)]):
            engine.schedule_arrival(rid, port, due, 0, _packet(pid, 2 * rid + port, size))
        seen = []
        hook = engine._routing.on_packet_arrival
        engine._routing.on_packet_arrival = lambda view, port, vc, packet, cycle: (
            seen.append((view.router_id, port, cycle)),
            hook(view, port, vc, packet, cycle),
        )

        sim.run_cycles(due)
        assert seen == [] and engine.cycles_skipped == due  # nothing before ``due``
        sim.run_cycles(1)
        assert seen == [(1, 0, due), (1, 1, due), (2, 0, due)]
        for rid, g, q in returns:
            assert st.credits[q] == st.max_credits[q]
            assert st.credit_occ[g] == 0
            assert st.alloc_clean[rid] is False  # a credit return invalidates
        calendars = engine._core.calendars()
        assert due not in calendars["credit"] and due not in calendars["arrival"]

        sim.run_cycles(200)
        assert engine.delivered_packets == 3
        assert engine.total_buffered_packets() == 0 and _calendars_empty(engine)

    @pytest.mark.parametrize("router_latency", [None, 0], ids=["default", "rl0"])
    def test_ready_and_link_free_on_one_cycle_send_one_packet(
        self, tiny_params, router_latency
    ):
        """Four heads for one ejection port, granted two a cycle over two
        consecutive cycles: every packet starts on the wire at the cycle
        ``object`` sends it, through exactly one release event."""
        if router_latency is not None:
            tiny_params = dataclasses.replace(tiny_params, router_latency=router_latency)
        latency = tiny_params.router_latency
        size = tiny_params.packet_size_phits
        due = 5
        heads = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (injection port, vc) of router 0

        def burst(backend):
            sim = _sim(tiny_params, backend=backend)
            packets = [_packet(pid, 0, size) for pid in range(len(heads))]
            for packet, (port, vc) in zip(packets, heads):
                sim.engine.schedule_arrival(0, port, due, vc, packet)
            return sim, packets

        reference, sent = burst("object")
        reference.run_cycles(200)
        departs = sorted(packet.delivered_cycle - size for packet in sent)
        # Two grants share the first ready cycle, so the link is what spaces
        # them: one packet every ``size`` cycles.
        assert departs == [due + latency + n * size for n in range(len(heads))]

        sim, packets = burst("soa")
        engine, st = sim.engine, sim.engine._st
        # The compiled walk calls the core's ``release`` from C, so the spy
        # watches what a release writes instead: it stamps the packet an
        # ejection event carries and records the wire's busy-until.
        released = []

        def run_watching(cycles):
            for _ in range(cycles):
                cycle = engine.cycle
                pending = [p for p in packets if not p.delivered]
                sim.run_cycles(1)
                started = [p for p in pending if p.delivered]
                assert len(started) <= 1  # one packet per port starts a cycle
                for packet in started:
                    assert st.link_busy[0] == packet.delivered_cycle
                    released.append((cycle, packet))

        run_watching(due + 2)  # both grant cycles are through
        if latency > 1:
            # The grants of the second cycle are ready at ``due + 1 + latency``
            # behind a busy link: ``object`` wakes there, so a marker makes
            # the cycle a key (with no event) and the warp cannot jump it.
            assert engine._core.calendars()["release"].get(due + 1 + latency) == []
            assert st.link_busy[0] == 0  # nothing on the wire yet
        assert st.link_booked[0] == departs[-1] + size
        assert st.out_committed[0] + size * len(released) == size * len(heads)
        run_watching(200 - (due + 2))

        assert [cycle for cycle, _ in released] == departs
        assert sorted(p.pid for _, p in released) == [p.pid for p in packets]
        assert [p.delivered_cycle for p in packets] == [p.delivered_cycle for p in sent]
        assert engine.cycles_skipped == reference.engine.cycles_skipped
        assert st.link_busy[0] == departs[-1] + size
        assert st.out_committed[0] == 0 and _calendars_empty(engine)

    def test_release_serves_one_router_and_delivers_what_it_carries(self, tiny_params):
        """The core's ``release`` on a hand-built bucket: it stops at the
        router boundary, gives the buffer space back, records the wire's
        busy-until, delivers only the packet an ejection event carries and
        pokes the router's allocation."""
        sim = _sim(tiny_params)
        engine, st = sim.engine, sim.engine._st
        size = tiny_params.packet_size_phits
        packet = _packet(0, 0, size)
        link = next(p for p in range(st.P) if st.down_g[p] >= 0)
        events = [(0, size, 9, packet), (link, size, 11, None), (st.P, size, 13, None)]
        for g, phits, _, _ in events:
            st.out_committed[g] += phits
            st.out_free[g] -= phits
        free = [st.out_free[g] for g, _, _, _ in events]
        st.alloc_clean[0] = st.alloc_clean[1] = True

        assert engine._core.release(events, 0, 0) == 2  # router 1's event is next
        assert [st.out_committed[g] for g, _, _, _ in events] == [0, 0, size]
        assert [st.out_free[g] for g, _, _, _ in events] == [free[0] + size, free[1] + size, free[2]]
        assert (st.link_busy[0], st.link_busy[link], st.link_busy[st.P]) == (9, 11, 0)
        assert packet.delivered_cycle == 9
        assert st.alloc_clean[:2] == [False, True]


class TestAccountingAndWarp:
    def test_schedule_arrival_round_trips_through_buffered_count(self, tiny_params):
        sim = _sim(tiny_params)
        engine = sim.engine
        assert engine.total_buffered_packets() == 0
        engine.schedule_arrival(0, 0, 40, 0, _packet(0, 0, 4))
        engine.schedule_arrival(1, 0, 40, 0, _packet(1, 2, 4))
        assert engine.total_buffered_packets() == 2  # in flight on the links
        sim.run_cycles(41)
        assert engine.total_buffered_packets() == 2  # received, not yet delivered
        sim.run_cycles(100)
        assert engine.total_buffered_packets() == 0
        assert engine.delivered_packets == 2

    def test_horizon_of_in_flight_only_network_is_earliest_calendar_key(
        self, tiny_params
    ):
        engines = {}
        for backend in ("object", "soa"):
            sim = _sim(tiny_params, backend=backend)
            sim.engine.schedule_arrival(0, 0, 400, 0, _packet(0, 0, 4))
            sim.engine.schedule_arrival(1, 0, 250, 0, _packet(1, 2, 4))
            engines[backend] = sim.engine
        soa = engines["soa"]
        assert min(soa._core.calendars()["arrival"]) == 250
        assert soa._work_horizon(0, 1_000) == 250
        assert soa._work_horizon(0, 100) == 100  # clipped to the end of the run
        for engine in engines.values():
            engine.run(1_000)
            assert engine.delivered_packets == 2
        assert soa.cycles_skipped == engines["object"].cycles_skipped
        assert soa.cycles_skipped > 900


class TestWatchdog:
    def test_fires_with_parked_packets_and_empty_calendars(self, tiny_params):
        sim = _sim(tiny_params, stall_watchdog_cycles=50)
        engine, st = sim.engine, sim.engine._st
        st.out_free[0] = 0  # router 0's ejection port 0 never admits a head
        engine.schedule_arrival(0, 1, 3, 0, _packet(0, 0, 4))
        with pytest.raises(SimulationStallError, match="1 packets are buffered"):
            sim.run_cycles(2_000)
        assert engine.cycle <= 60
        # Nothing is scheduled: the parked head alone keeps the router (and
        # the clock) stepping until the watchdog trips.
        assert _calendars_empty(engine)
        assert st.active == [0] and engine.delivered_packets == 0


#: A power of two no smaller than the core's wheel (a constant of
#: ``_core.c``): two dues this far apart share a slot, and an event this far
#: ahead is a whole turn or more away.
TURN = 4096


class _Anchored(Packet):
    """A packet with a ``__dict__`` (and a weak reference): room for an
    attribute pointing back at the engine."""


class TestWheel:
    def _arrivals(self, params, backend, plan):
        """A VAL simulator with one arrival per ``(rid, port, vc, due)`` of
        ``plan`` (each one hop from its node), in plan order, and the
        ``(pid, cycle)`` of every ``on_packet_arrival`` it fires."""
        sim = _sim(params, "VAL", backend=backend)
        size = params.packet_size_phits
        for pid, (rid, port, vc, due) in enumerate(plan):
            sim.engine.schedule_arrival(rid, port, due, vc, _packet(pid, 2 * rid + port, size))
        seen = []
        hook = sim.routing.on_packet_arrival
        sim.routing.on_packet_arrival = lambda view, port, vc, packet, cycle: (
            seen.append((packet.pid, cycle)),
            hook(view, port, vc, packet, cycle),
        )
        return sim, seen

    def test_aliased_dues_pop_on_their_own_cycles_in_push_order(self, tiny_params):
        """Three arrivals on one input port, the first and the last a turn
        after the middle one: all share a wheel slot, each pops on its own
        cycle, and the two of one cycle keep their push order."""
        due = 37
        plan = [(0, 0, 0, due + TURN), (1, 1, 0, due), (0, 0, 1, due + TURN)]
        runs = {}
        for backend in ("object", "soa"):
            sim, seen = self._arrivals(tiny_params, backend, plan)
            sim.run_cycles(due + TURN + 200)
            assert sim.engine.delivered_packets == len(plan)
            runs[backend] = sim, seen
        (obj, obj_seen), (soa, soa_seen) = runs["object"], runs["soa"]
        assert soa_seen == [(1, due), (0, due + TURN), (2, due + TURN)] == obj_seen
        # The warp lands on both cycles and jumps the turn between them.
        assert soa.engine.cycles_skipped == obj.engine.cycles_skipped > TURN - 200
        assert _calendars_empty(soa.engine)

    def test_an_event_turns_ahead_pops_exactly_on_its_cycle(self, tiny_params):
        sim, seen = self._arrivals(tiny_params, "soa", [(2, 1, 0, 3 * TURN + 5)])
        engine = sim.engine
        assert list(engine._core.calendars()["arrival"]) == [3 * TURN + 5]
        assert engine._calendar_horizon() == 3 * TURN + 5
        sim.run_cycles(3 * TURN + 5)
        assert seen == [] and engine.total_buffered_packets() == 1
        sim.run_cycles(1)
        assert seen == [(0, 3 * TURN + 5)]

    def test_degraded_links_turns_long_match_object(self, tiny_params):
        """Every link ``latency_factor`` times slower: arrivals and credit
        returns are booked a wheel turn or more ahead by the grants
        themselves."""
        topo = create_topology(tiny_params.topology)
        factor = TURN // min(tiny_params.local_link_latency, tiny_params.global_link_latency)
        degraded = {
            (rid, port): DegradedLink(latency_factor=factor)
            for rid in range(topo.num_routers)
            for port in range(topo.router_radix)
            if topo.neighbor(rid, port) is not None
        }
        runs = {}
        for backend in ("object", "soa"):
            sim = Simulator(
                tiny_params.with_backend(backend), "MIN", "UN", 0.005, seed=5,
                fault_model=FaultModel(degraded_links=degraded),
            )
            result = sim.run_steady_state(100, TURN + 1_000)
            runs[backend] = sim.engine, result_fingerprint(result), result.delivered_packets
        (obj, obj_print, delivered), (soa, soa_print, _) = runs["object"], runs["soa"]
        assert soa_print == obj_print and delivered > 0
        assert soa.cycles_skipped == obj.cycles_skipped


class TestSchedule:
    def test_refuses_what_the_chain_could_not_pop(self, tiny_params):
        """``Core.schedule`` takes events from outside: a calendar it does
        not have, an event of the wrong shape or with a negative index, an
        arrival without a packet and a due a router phase already popped are
        refused, and nothing is planted.  (``schedule_arrival`` clamps to the
        engine's cycle, which the warp may have moved past the calendars'.)"""
        sim = _sim(tiny_params)
        core = sim.engine._core
        packet = _packet(0, 0, 4)
        with pytest.raises(ValueError, match="no calendar 'service'"):
            core.schedule("service", 9, (0, 0, 4, None))
        with pytest.raises(ValueError, match="a link arrival must be a tuple of 3 fields"):
            core.schedule("arrival", 9, (0, 0))
        with pytest.raises(IndexError, match="negative index"):
            core.schedule("credit", 9, (-1, 0, 0, 4))
        with pytest.raises(TypeError, match="a link arrival carries a packet"):
            core.schedule("arrival", 9, (0, 0, None))
        assert _calendars_empty(sim.engine)
        core.schedule("arrival", 3, (0, 0, packet))
        assert core.calendars()["arrival"] == {3: [(0, 0, packet)]}
        sim.run_cycles(4)  # the router phase of cycle 3 pops it
        with pytest.raises(ValueError, match=r"due at 3 is behind the calendars' clock \(4\)"):
            core.schedule("arrival", 3, (0, 1, _packet(1, 0, 4)))
        assert not core.calendars()["arrival"]


class TestPools:
    def test_a_built_core_allocates_no_calendar(self, tiny_params):
        core = _sim(tiny_params).engine._core
        assert sys.getsizeof(core) == sys.getsizeof(type(core).__new__(type(core)))

    def test_the_pools_follow_the_events_in_flight_not_the_hops(self, tiny_params):
        sim = Simulator(tiny_params.with_backend("soa"), "Base", "UN", 0.3, seed=2)
        engine = sim.engine
        sim.run_cycles(400)  # past the warm-up: the in-flight count has peaked
        size, delivered = sys.getsizeof(engine._core), engine.delivered_packets
        assert size > sys.getsizeof(type(engine._core).__new__(type(engine._core)))
        sim.run_cycles(2_000)
        assert engine.delivered_packets > 5 * delivered
        assert sys.getsizeof(engine._core) == size
        # Drained, the pools keep their size for the next burst: recycled.
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(1_000)
        assert engine.total_buffered_packets() == 0 and _calendars_empty(engine)
        assert sys.getsizeof(engine._core) == size


class TestCollector:
    def test_a_cycle_through_a_packet_only_a_calendar_holds_is_collected(self, tiny_params):
        """engine -> core -> calendar -> packet -> engine: without the core
        visiting its pooled packets the collector could not see the cycle."""
        sim = _sim(tiny_params)
        packet = _Anchored(pid=0, src=23, dst=0, size_phits=4, creation_cycle=0)
        packet.engine = sim.engine
        sim.engine.schedule_arrival(0, 0, 10**6, 0, packet)
        sim.run_cycles(10)
        gone = weakref.ref(packet)
        del sim, packet
        gc.collect()
        assert gone() is None

    def test_packets_on_the_links_add_no_tracked_tuple(self, tiny_params):
        """Mid-run, no object the collector tracks holds a packet in flight:
        the events are C structs, not tuples."""
        sim = Simulator(tiny_params.with_backend("soa"), "Base", "UN", 0.3, seed=2)
        sim.run_cycles(300)
        on_links = sim.engine._core.in_flight()
        assert on_links > 20
        holders = [
            o for o in gc.get_objects()
            if type(o) is tuple and any(type(x) is Packet for x in o)
        ]
        assert holders == []
