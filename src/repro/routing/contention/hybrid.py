"""Hybrid: contention counters combined with credit occupancy (Section III-C).

Hybrid keeps one threshold for the contention counters and another (relative)
threshold for the output credits; traffic is diverted nonminimally when
*either* trigger fires.  Because each individual threshold can be set higher
than in the pure mechanisms while keeping the same overall sensitivity, the
excessive-misrouting problems of a too-low threshold are avoided.  The paper
reports that Hybrid peaks the throughput under uniform traffic at the cost of
slightly higher latency than Base/ECtN at low loads (it occasionally diverts
traffic on the credit criterion, like OLM).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.network.packet import Packet
from repro.routing.contention.base_contention import BaseContentionRouting
from repro.routing.misrouting import MisrouteCandidate

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.router import Router

__all__ = ["HybridContentionRouting"]


class HybridContentionRouting(BaseContentionRouting):
    """Contention OR congestion (credit) misrouting trigger."""

    name = "Hybrid"

    @property
    def contention_threshold(self) -> int:
        return self.params.hybrid_contention_threshold

    @property
    def congestion_threshold(self) -> float:
        return self.params.hybrid_congestion_threshold

    def trigger_observation(self, router: "Router", packet: Packet) -> dict:
        """Both Hybrid trigger inputs: the counter and the credit occupancy."""
        observation = super().trigger_observation(router, packet)
        observation["signal"] = "contention+congestion"
        observation["occupancy"] = router.output_occupancy(observation["port"])
        observation["congestion_threshold"] = self.congestion_threshold
        return observation

    def _credit_preferred(
        self, router: "Router", minimal_port: int, candidates: Sequence[MisrouteCandidate]
    ) -> List[MisrouteCandidate]:
        """OLM-style relative occupancy comparison with the Hybrid threshold."""
        threshold = self.congestion_threshold
        occ_min = router.output_occupancy(minimal_port)
        if occ_min < 2 * self.params.packet_size_phits:
            return []
        return [
            candidate
            for candidate in candidates
            if router.output_occupancy(candidate.port) < threshold * occ_min
        ]

    def _contention_or_credit(
        self,
        router: "Router",
        minimal_port: int,
        candidates: Sequence[MisrouteCandidate],
    ) -> Optional[MisrouteCandidate]:
        contention = self._contention_preferred(router, minimal_port, candidates)
        if contention:
            return self.pick_random(contention)
        return self.pick_random(self._credit_preferred(router, minimal_port, candidates))

    def choose_global_misroute(
        self,
        router: "Router",
        port: int,
        packet: Packet,
        minimal_port: int,
        candidates: Sequence[MisrouteCandidate],
        cycle: int,
    ) -> Optional[MisrouteCandidate]:
        return self._contention_or_credit(router, minimal_port, candidates)

    def choose_local_misroute(
        self,
        router: "Router",
        port: int,
        packet: Packet,
        minimal_port: int,
        candidates: Sequence[MisrouteCandidate],
        cycle: int,
    ) -> Optional[MisrouteCandidate]:
        return self._contention_or_credit(router, minimal_port, candidates)
