"""Reduced experiment scales for the figure-harness claims.

The claims that run a whole figure harness (``repro.experiments.run_figure*``,
``run_cross_topology``, ``run_fault_sweep``) use these scales: one seed and short windows, so each
figure costs well under a second.  The harnesses accept ``TINY_SCALE``,
``SMALL_SCALE`` and ``TRANSIENT_SCALE`` for higher-fidelity runs (see
EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config.parameters import DragonflyConfig, SimulationParameters
from repro.experiments.scales import TINY_SCALE, TRANSIENT_SCALE, ExperimentScale


@pytest.fixture(scope="session")
def steady_scale() -> ExperimentScale:
    """Steady-state figures: the tiny preset with one seed and two loads."""
    return dataclasses.replace(
        TINY_SCALE,
        warmup_cycles=200,
        measure_cycles=400,
        seeds=(1,),
        un_loads=(0.2, 0.5),
        adv_loads=(0.1, 0.3),
        mixed_load=0.3,
    )


@pytest.fixture(scope="session")
def transient_scale() -> ExperimentScale:
    """Transient figures: a mid-sized balanced Dragonfly (p=4, a=4, h=4, 272
    nodes) driven hard enough that source-side contention appears, with a
    short observation window."""
    return dataclasses.replace(
        TRANSIENT_SCALE,
        params=dataclasses.replace(
            SimulationParameters.transient(), topology=DragonflyConfig(p=4, a=4, h=4)
        ),
        warmup_cycles=250,
        transient_observe_before=40,
        transient_observe_after=160,
        transient_bin=20,
        transient_load=0.3,
        seeds=(1,),
    )
