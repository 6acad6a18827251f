"""Traffic-pattern interface.

A traffic pattern maps a source node (and the current cycle, so that
time-varying patterns such as the transient switch of Figs. 7–9 can be
expressed) to a destination node.  Patterns are purely functional objects;
the Bernoulli injection process that decides *when* packets are generated
lives in :mod:`repro.traffic.bernoulli`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import draws
from repro.topology.base import Topology

__all__ = ["TrafficPattern"]


class TrafficPattern(ABC):
    """Maps source nodes to destination nodes."""

    #: Human-readable name used in experiment tables.
    name: str = "abstract"

    def __init__(self, topology: Topology):
        self.topology = topology

    @abstractmethod
    def destination(self, src: int, cycle: int, rng: np.random.Generator) -> int:
        """Destination node for a packet generated at ``src`` in ``cycle``.

        Must return a node id different from ``src`` whenever the topology
        has more than one node.
        """

    # -- helpers for subclasses ------------------------------------------------
    def _random_node_excluding(
        self, candidates_low: int, candidates_high: int, exclude: int, rng: np.random.Generator
    ) -> int:
        """Uniform node in ``[low, high)`` different from ``exclude``."""
        span = candidates_high - candidates_low
        if span <= 1:
            only = candidates_low
            if only == exclude:
                raise ValueError("cannot pick a destination different from the source")
            return only
        dst = draws.integers(rng, candidates_low, candidates_high)
        while dst == exclude:
            dst = draws.integers(rng, candidates_low, candidates_high)
        return dst
