"""Simulation backend registry.

Two router models run under the one cycle driver of
:class:`~repro.simulation.engine.Engine` (see ``SimulationParameters.backend``):

* ``"soa"`` (default) — the struct-of-arrays model
  (:class:`~repro.simulation.soa.SoAEngine`);
* ``"object"`` — the per-object router model (``Engine`` itself), the
  bit-identical reference the cross-backend suites compare ``"soa"`` against.

Each engine builds the router state it steps in its constructor — ``"soa"``
its flat arrays, ``"object"`` the network's ``Router`` graph — so a
:class:`~repro.network.network.Network` itself holds only nodes.

The SoA package is imported on first use, so it stays off the import path of
``repro.simulation.simulator`` and ``repro.service``; that first use also
builds its compiled core (:mod:`repro.simulation.soa._loader`).  Where the
core cannot be built — no C compiler — ``"soa"`` runs the ``"object"`` engine
with a ``RuntimeWarning``: same results, slower.
"""

from __future__ import annotations

import warnings
from typing import Optional

from repro.config.parameters import VALID_BACKENDS
from repro.metrics.collector import MetricsCollector
from repro.network.network import Network
from repro.simulation.engine import Engine
from repro.traffic.bernoulli import BernoulliTrafficGenerator

__all__ = ["create_engine"]


def create_engine(
    backend: str,
    network: Network,
    traffic: BernoulliTrafficGenerator,
    metrics: Optional[MetricsCollector] = None,
    stall_watchdog_cycles: Optional[int] = 20_000,
    time_warp: bool = True,
    faults=None,
) -> Engine:
    """Build the engine implementation selected by ``backend``."""
    if backend not in VALID_BACKENDS:
        raise ValueError(f"unknown backend {backend!r} (valid: {sorted(VALID_BACKENDS)})")
    engine_class = Engine
    if backend == "soa":
        from repro.simulation.soa import CoreUnavailable, SoAEngine, load_core

        try:
            load_core()
            engine_class = SoAEngine
        except CoreUnavailable as exc:
            # The backends are bit-identical by contract (and cache keys
            # exclude the backend), so the reference engine stands in.
            warnings.warn(
                f"backend 'soa' needs its compiled core, which is unavailable; "
                f"running the slower, bit-identical 'object' engine instead: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )

    return engine_class(
        network,
        traffic,
        metrics=metrics,
        stall_watchdog_cycles=stall_watchdog_cycles,
        time_warp=time_warp,
        faults=faults,
    )
