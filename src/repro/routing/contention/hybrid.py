"""Hybrid: contention counters combined with credit occupancy (Section III-C).

Hybrid keeps one threshold for the contention counters and another (relative)
threshold for the output credits; traffic is diverted nonminimally when
*either* trigger fires.  Because each individual threshold can be set higher
than in the pure mechanisms while keeping the same overall sensitivity, the
excessive-misrouting problems of a too-low threshold are avoided.  The paper
reports that Hybrid peaks the throughput under uniform traffic at the cost of
slightly higher latency than Base/ECtN at low loads (it occasionally diverts
traffic on the credit criterion, like OLM).  Hybrid declares both signals
(``contention_threshold`` and ``congestion_threshold``).
"""

from __future__ import annotations

from repro.routing.contention.base_contention import BaseContentionRouting

__all__ = ["HybridContentionRouting"]


class HybridContentionRouting(BaseContentionRouting):
    """Contention OR congestion (credit) misrouting trigger."""

    name = "Hybrid"

    def __init__(self, topology, params, rng):
        super().__init__(topology, params, rng)
        self.contention_threshold = params.hybrid_contention_threshold
        self.congestion_threshold = params.hybrid_congestion_threshold
