"""OLM: Opportunistic Local Misrouting (Garcia et al., ICPP 2013).

OLM is the paper's reference for *congestion-based in-transit* adaptive
routing.  The misrouting trigger compares credit-estimated occupancies of the
candidate output ports: a nonminimal port is preferred when its occupancy is
strictly below a percentage (the *relative misrouting threshold*, 50 % in
Table I) of the minimal port's occupancy.  Global misrouting can be chosen at
injection or after the first hop (PAR-style) with MM+L candidates; local
misrouting is applied in the intermediate and destination groups to avoid
saturated local links.

Like the contention mechanisms, OLM rides the topology-dispatched policy
layer of :class:`~repro.routing.adaptive.AdaptiveInTransitRouting`: the
MM+L policy above on group topologies (Dragonfly, flattened butterfly), the
nonminimal ring-direction escape on the torus and the uplink multipath on
the fat tree.  It declares one signal, the credit occupancy
(``congestion_threshold``).

Because the trigger depends on buffer occupancy it shares the shortcomings
analysed in Section II of the paper: it reacts only after queues build up,
its reaction time grows with the buffer size (Figs. 7–8), and it occasionally
misroutes under uniform traffic when transient queues form (the latency gap
to MIN in Fig. 5a).
"""

from __future__ import annotations

from repro.routing.adaptive import AdaptiveInTransitRouting

__all__ = ["OLMRouting"]


class OLMRouting(AdaptiveInTransitRouting):
    """Credit-occupancy-based in-transit adaptive routing."""

    name = "OLM"

    def __init__(self, topology, params, rng):
        super().__init__(topology, params, rng)
        self.congestion_threshold = params.olm_congestion_threshold
