"""Routing algorithms: oblivious and adaptive baselines plus the paper's
contention-based mechanisms.

Use :func:`create_routing` to instantiate a mechanism by name (the names used
throughout the paper's figures): ``MIN``, ``VAL``, ``UGAL``, ``PB``, ``OLM``,
``Base``, ``Hybrid``, ``ECtN``.  MIN, VAL and UGAL run on every registered
topology.  The in-transit adaptive family (OLM, Base, Hybrid) runs wherever
the topology declares a path policy for it — the MM+L group policy on the
Dragonfly and the flattened butterfly, the ring escape on the torus, the
uplink multipath on the fat tree — and raises :class:`UnsupportedTopologyError` elsewhere (the
full mesh).  PB and ECtN additionally need the Dragonfly's intra-group ECN
/ broadcast structure and stay Dragonfly-only.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.config.parameters import SimulationParameters
from repro.routing.adaptive import AdaptiveInTransitRouting
from repro.routing.base import (
    RoutingAlgorithm,
    RoutingDecision,
    UnsupportedTopologyError,
)
from repro.routing.contention import (
    BaseContentionRouting,
    ContentionCounters,
    ContentionTracker,
    ECtNRouting,
    HybridContentionRouting,
)
from repro.routing.minimal import MinimalRouting
from repro.routing.misrouting import MisrouteCandidate
from repro.routing.olm import OLMRouting
from repro.routing.piggyback import PiggybackRouting
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import ValiantRouting
from repro.topology.base import Topology

__all__ = [
    "RoutingAlgorithm",
    "RoutingDecision",
    "UnsupportedTopologyError",
    "AdaptiveInTransitRouting",
    "MinimalRouting",
    "ValiantRouting",
    "UGALRouting",
    "PiggybackRouting",
    "OLMRouting",
    "BaseContentionRouting",
    "HybridContentionRouting",
    "ECtNRouting",
    "ContentionCounters",
    "ContentionTracker",
    "MisrouteCandidate",
    "ROUTING_REGISTRY",
    "available_routings",
    "create_routing",
]

#: Mechanism name (as used in the paper's figures) -> implementation class.
ROUTING_REGISTRY: Dict[str, Type[RoutingAlgorithm]] = {
    "MIN": MinimalRouting,
    "VAL": ValiantRouting,
    "UGAL": UGALRouting,
    "PB": PiggybackRouting,
    "OLM": OLMRouting,
    "Base": BaseContentionRouting,
    "Hybrid": HybridContentionRouting,
    "ECtN": ECtNRouting,
}


def available_routings() -> List[str]:
    """Names of all implemented routing mechanisms."""
    return list(ROUTING_REGISTRY)


def create_routing(
    name: str, topology: Topology, params: SimulationParameters, rng
) -> RoutingAlgorithm:
    """Instantiate the routing mechanism called ``name`` (case-insensitive)."""
    for key, cls in ROUTING_REGISTRY.items():
        if key.lower() == name.lower():
            return cls(topology, params, rng)
    raise ValueError(
        f"Unknown routing {name!r}; available: {', '.join(ROUTING_REGISTRY)}"
    )
