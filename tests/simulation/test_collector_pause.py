"""``Engine.run`` pauses the cyclic collector and gives the caller's setting back.

A run leaves no cyclic garbage (``tests/obs/test_no_garbage.py``), so the
collector is off for its duration on both backends; whatever the caller had
— collector on or off — holds again when ``run`` returns, raises, or returns
from a run nested inside another.
"""

import gc

import pytest

from repro.simulation.engine import SimulationStallError
from repro.simulation.simulator import Simulator

BACKENDS = ("object", "soa")


@pytest.fixture
def collector():
    """Restores the process's collector setting after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _sim(tiny_params, backend, **kwargs):
    return Simulator(tiny_params.with_backend(backend), "Base", "UN", 0.3, seed=3, **kwargs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_callers_setting_holds_after_the_run(tiny_params, collector, backend, enabled):
    sim = _sim(tiny_params, backend)
    seen = []
    (gc.enable if enabled else gc.disable)()
    sim.engine.run(200, until=lambda: seen.append(gc.isenabled()))
    assert seen and not any(seen)  # off for the whole run
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_callers_setting_holds_after_a_stall(
    tiny_params, wedge_ejection_ports, collector, backend
):
    sim = _sim(tiny_params, backend, stall_watchdog_cycles=100)
    wedge_ejection_ports(sim)
    gc.enable()
    with pytest.raises(SimulationStallError):
        sim.run_cycles(2_000)
    assert gc.isenabled()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_nested_run_leaves_the_outer_one_paused(tiny_params, collector, backend):
    """A run started from inside another (here from its ``until``) returns
    with the collector still paused for the rest of the outer run."""
    outer, inner = _sim(tiny_params, backend), _sim(tiny_params, backend)
    after_inner = []

    def until():
        if not after_inner:
            inner.engine.run(50)
            assert inner.engine.cycle == 50
        after_inner.append(gc.isenabled())
        return False

    gc.enable()
    outer.engine.run(100, until=until)
    assert len(after_inner) > 1 and not any(after_inner)
    assert gc.isenabled()
