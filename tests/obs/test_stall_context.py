"""Probe-enriched stall diagnostics (`SimulationStallError`)."""

import pytest

from repro.obs import ObservationConfig
from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator


def _stall_message(tiny_params, wedge_ejection_ports, backend):
    sim = Simulator(
        tiny_params.with_backend(backend),
        "Base",
        "UN",
        offered_load=0.2,
        seed=1,
        stall_watchdog_cycles=100,
        observation=ObservationConfig(),
    )
    wedge_ejection_ports(sim)
    with pytest.raises(SimulationStallError) as excinfo:
        sim.run_cycles(2_000)
    return str(excinfo.value)


@pytest.mark.parametrize("backend", ["object", "soa"])
def test_stall_error_includes_the_recorded_flight_path(
    tiny_params, wedge_ejection_ports, backend
):
    message = _stall_message(tiny_params, wedge_ejection_ports, backend)
    assert "stall diagnostics" in message
    assert "recorded flight path of pid=" in message
    # One formatter serves both backends: stall cycle, buffered count,
    # busiest routers, oldest packet and flight path are string-equal.
    other = "soa" if backend == "object" else "object"
    assert message == _stall_message(tiny_params, wedge_ejection_ports, other)


def test_stall_error_without_probes_keeps_the_base_diagnostics(
    tiny_params, wedge_ejection_ports
):
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
    assert "oldest buffered packet" in message
    assert "recorded flight path" not in message
