"""Base: contention-counter misrouting trigger (Section III-B).

The packet at the head of an input queue is diverted to a nonminimal path
when the contention counter of its minimal output port exceeds the fixed
misrouting threshold ``th`` (Table I: ``th = 6`` at the paper scale).  The
nonminimal path is chosen uniformly at random among the available candidate
ports whose own contention counter is *under* the threshold.  The trigger
uses only local information and is completely independent of the buffer
size, which yields MIN-like latency under uniform traffic and an almost
immediate reaction to traffic-pattern changes (Figs. 5 and 7).

The trigger is policy-agnostic: on group topologies (Dragonfly, flattened
butterfly) it steers the MM+L global/local misroute candidates, and on the
torus it steers the nonminimal ring-direction escape — in every case the
packet is diverted only towards candidates whose own contention counter is
under the threshold.  Base declares one signal, the contention counter
(``contention_threshold``; see :mod:`repro.routing.adaptive`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet
from repro.routing.adaptive import AdaptiveInTransitRouting
from repro.routing.contention.counters import ContentionTracker
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.router import Router

__all__ = ["BaseContentionRouting"]


class BaseContentionRouting(AdaptiveInTransitRouting):
    """Contention-counter based in-transit adaptive routing."""

    name = "Base"

    def __init__(self, topology: Topology, params: SimulationParameters, rng):
        super().__init__(topology, params, rng)
        self.tracker = ContentionTracker(topology)
        # Direct reference to the tracker's per-router counter objects: the
        # trigger reads them for every blocked head on every round.
        self._counter_arrays = self.tracker._counters
        self.contention_threshold = params.base_contention_threshold

    # ----------------------------------------------------------------- faults
    def attach_faults(self, faults) -> None:
        """Seed counter bias on degraded ports (degraded = high contention).

        A degraded link's counter starts at ``bias_packets`` instead of 0, so
        the contention trigger sees it as persistently loaded and steers
        packets away exactly like it would from a genuinely contended port.
        The bias is a constant baseline: increments/decrements stay balanced
        on top of it, so the counters never underflow.
        """
        super().attach_faults(faults)
        for (rid, port), deg in faults.degraded.items():
            self._counter_arrays[rid].counts[port] += deg.bias_packets

    # ----------------------------------------------------------------- hooks
    def on_packet_head(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        self.tracker.on_head(router, packet)

    def on_packet_leave_input(
        self, router: "Router", port: int, vc: int, packet: Packet, cycle: int
    ) -> None:
        self.tracker.on_leave(router, packet)
