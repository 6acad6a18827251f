"""Stall-watchdog behaviour: warp parity, disabling, drops, diagnostics."""

import pytest

from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel
from repro.topology.registry import create_topology


def _isolate_links(topology, rid):
    return tuple(
        (rid, port)
        for port in range(topology.router_radix)
        if topology.neighbor(rid, port) is not None
    )


class TestStallWatchdog:
    def test_warp_and_no_warp_detect_at_the_same_cycle(
        self, tiny_params, wedge_ejection_ports
    ):
        """Time warp must not overshoot (or miss) the stall detection point."""
        detection_cycles = []
        for warp in (True, False):
            sim = Simulator(
                tiny_params,
                "MIN",
                "UN",
                offered_load=0.2,
                seed=1,
                stall_watchdog_cycles=200,
                time_warp=warp,
            )
            wedge_ejection_ports(sim)
            with pytest.raises(SimulationStallError):
                sim.run_cycles(5_000)
            detection_cycles.append(sim.engine.cycle)
        assert detection_cycles[0] == detection_cycles[1]

    def test_watchdog_none_disables_detection(self, tiny_params, wedge_ejection_ports):
        sim = Simulator(
            tiny_params,
            "MIN",
            "UN",
            offered_load=0.2,
            seed=1,
            stall_watchdog_cycles=None,
        )
        wedge_ejection_ports(sim)
        sim.run_cycles(2_000)  # wedged solid, but nothing raises
        assert sim.engine.delivered_packets == 0

    def test_unreachable_traffic_drops_instead_of_stalling(self, tiny_params):
        """Partition-stranded packets must count as progress, not wedge."""
        topo = create_topology(tiny_params.topology)
        fm = FaultModel(
            failed_links=_isolate_links(topo, 0), allow_partition=True
        )
        sim = Simulator(
            tiny_params,
            "MIN",
            "UN",
            offered_load=0.3,
            seed=5,
            fault_model=fm,
            stall_watchdog_cycles=500,
        )
        result = sim.run_steady_state(150, 300)  # no SimulationStallError
        assert result.dropped_packets > 0
        assert result.delivered_packets > 0

    def test_stall_error_carries_diagnostics(self, tiny_params, wedge_ejection_ports):
        sim = Simulator(
            tiny_params,
            "MIN",
            "UN",
            offered_load=0.2,
            seed=1,
            stall_watchdog_cycles=100,
        )
        wedge_ejection_ports(sim)
        with pytest.raises(SimulationStallError) as excinfo:
            sim.run_cycles(2_000)
        message = str(excinfo.value)
        assert "stall diagnostics" in message
        assert "occupied VCs" in message
        assert "oldest buffered packet" in message
        assert "pid=" in message

    def test_the_diagnostics_name_the_oldest_packets_valiant_router(
        self, tiny_params, wedge_ejection_ports
    ):
        sim = Simulator(
            tiny_params, "VAL", "UN", offered_load=0.2, seed=1, stall_watchdog_cycles=100
        )
        wedge_ejection_ports(sim)
        with pytest.raises(SimulationStallError) as excinfo:
            sim.run_cycles(2_000)
        engine = sim.engine
        oldest = min(
            (packet for _, _, packets in engine._stall_census() for packet in packets),
            key=lambda packet: packet.creation_cycle,
        )
        named = f"pid={oldest.pid} {oldest.src}->{oldest.dst} via={{}} hops="
        assert named.format(oldest.valiant_router) in str(excinfo.value)
        # A packet still on its Valiant leg shows the router it heads for.
        oldest.valiant_router = 3
        assert named.format(3) in engine._stall_snapshot(engine.cycle)
