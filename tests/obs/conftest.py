"""Shared helpers for the observability tests.

Every traced run here uses the ``tiny`` preset with a moderate adversarial
load so the contention triggers actually fire, and sample rate 1.0 so the
flight recorder is exhaustive — the cross-backend equality assertions then
pin the full stream, not a lucky subset.
"""

from __future__ import annotations

import pytest

from repro.obs import ObservationConfig
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultEvent, FaultModel, FaultSchedule
from repro.topology.registry import create_topology


@pytest.fixture
def traced_run(tiny_params):
    """Run one seeded tiny point with probes attached; returns (sim, result)."""

    def _run(
        backend="object",
        routing="Base",
        pattern="ADV+1",
        load=0.45,
        seed=7,
        observation=None,
        warmup=100,
        measure=200,
        **sim_kwargs,
    ):
        if observation is None:
            observation = ObservationConfig(snapshot_period=50)
        sim = Simulator(
            tiny_params.with_backend(backend),
            routing,
            pattern,
            load,
            seed=seed,
            observation=observation,
            **sim_kwargs,
        )
        result = sim.run_steady_state(warmup, measure)
        return sim, result

    return _run


@pytest.fixture
def fault_run(tiny_params):
    """A traced VAL run whose last router is isolated at cycle 120.

    The in-flight packets are re-steered (``fault`` hops) and the ones
    addressed to the victim's nodes are dropped (``drop`` events).
    """

    def _run(backend="soa"):
        topology = create_topology(tiny_params.topology)
        victim = topology.num_routers - 1
        links = [
            (victim, port)
            for port in range(topology.router_radix)
            if topology.neighbor(victim, port) is not None
        ]
        model = FaultModel(
            schedule=FaultSchedule(
                events=tuple(FaultEvent(120, link, "fail") for link in links)
            ),
            allow_partition=True,
        )
        sim = Simulator(
            tiny_params.with_backend(backend),
            "VAL",
            "UN",
            0.4,
            seed=5,
            fault_model=model,
            stall_watchdog_cycles=2_000,
            observation=ObservationConfig(),
        )
        sim.run_steady_state(150, 400)
        return sim

    return _run
