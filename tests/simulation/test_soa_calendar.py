"""The SoA engine's event calendars: due-cycle buckets instead of port scans.

Credit returns, link arrivals and output-port releases live in three
``cycle -> [events]`` calendars (:class:`repro.simulation.soa.state.SoAState`).
These tests pin the traps of that design on hand-built micro-states: events
sharing a cycle apply exactly once and in the object engine's (router, port)
order, grants booked onto one port start on the wire at the cycles the
object engine sends them, and the warp horizon / stall watchdog read the
calendars the way they used to read the per-router event caches.
"""

import dataclasses

import pytest

from repro.network.packet import Packet
from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator

pytestmark = pytest.mark.soa_core


def _sim(params, routing="MIN", backend="soa", **kwargs):
    return Simulator(
        params.with_backend(backend), routing, "UN", offered_load=0.0, seed=1, **kwargs
    )


def _packet(pid, dst, size):
    return Packet(pid=pid, src=23, dst=dst, size_phits=size, creation_cycle=0)


def _calendars_empty(st):
    return not st.cred_cal and not st.arr_cal and not st.svc_cal


class TestSameCycleEvents:
    def test_credits_and_arrivals_apply_once_in_router_port_order(self, tiny_params):
        sim = _sim(tiny_params, "Base")  # Base has an on_packet_arrival hook
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
            st.cred_cal[due].append((rid, g, q, size))
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
        assert due not in st.cred_cal and due not in st.arr_cal

        sim.run_cycles(200)
        assert engine.delivered_packets == 3
        assert engine.total_buffered_packets() == 0 and _calendars_empty(st)

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
            # behind a busy link: ``object`` wakes there, so the bucket exists
            # (empty) and the warp cannot jump it.
            assert st.svc_cal.get(due + 1 + latency) == []
            assert st.link_busy[0] == 0  # nothing on the wire yet
        assert st.link_booked[0] == departs[-1] + size
        assert st.out_committed[0] + size * len(released) == size * len(heads)
        run_watching(200 - (due + 2))

        assert [cycle for cycle, _ in released] == departs
        assert sorted(p.pid for _, p in released) == [p.pid for p in packets]
        assert [p.delivered_cycle for p in packets] == [p.delivered_cycle for p in sent]
        assert engine.cycles_skipped == reference.engine.cycles_skipped
        assert st.link_busy[0] == departs[-1] + size
        assert st.out_committed[0] == 0 and _calendars_empty(st)

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
        assert min(soa._st.arr_cal) == 250
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
        assert _calendars_empty(st)
        assert st.active == [0] and engine.delivered_packets == 0
