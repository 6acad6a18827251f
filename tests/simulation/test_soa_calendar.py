"""The SoA engine's event calendars: due-cycle buckets instead of port scans.

Credit returns, link arrivals and output-port service events live in three
``cycle -> [events]`` calendars (:class:`repro.simulation.soa.state.SoAState`).
These tests pin the traps of that design on hand-built micro-states: events
sharing a cycle apply exactly once and in the object engine's (router, port)
order, a port with two events on one cycle is served once, and the warp
horizon / stall watchdog read the calendars the way they used to read the
per-router event caches.
"""

import pytest

from repro.network.packet import Packet
from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator


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

    def test_ready_and_link_free_on_one_cycle_send_one_packet(self, tiny_params):
        sim = _sim(tiny_params)
        engine, st = sim.engine, sim.engine._st
        size = tiny_params.packet_size_phits
        now = 5
        g = 0  # router 0, ejection port 0
        waiting, ready = _packet(0, 0, size), _packet(1, 0, size)
        # ``waiting`` sits in the output buffer behind a link that frees at
        # ``now`` (its link-free event is scheduled); ``ready`` leaves the
        # router pipeline on the same cycle.
        st.out_q[g].append(waiting)
        st.link_busy[g] = st.tx_wait[g] = now
        st.svc_cal[now].append(g)
        st.pipeline[g].append((now, ready))
        st.svc_cal[now].append(g)
        st.out_committed[g] += 2 * size
        st.out_free[g] -= 2 * size

        sim.run_cycles(now + 1)
        assert engine.delivered_packets == 1
        assert waiting.delivered_cycle == now + size
        assert list(st.out_q[g]) == [ready] and not st.pipeline[g]
        # Exactly one follow-up: the link-free event for the queued packet.
        assert dict(st.svc_cal) == {now + size: [g]}
        assert st.tx_wait[g] == st.link_busy[g] == now + size

        sim.run_cycles(3 * size)
        assert engine.delivered_packets == 2
        assert ready.delivered_cycle == now + 2 * size
        assert st.out_committed[g] == 0 and _calendars_empty(st)


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
