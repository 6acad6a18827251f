"""Accepted-load (throughput) statistics."""

from __future__ import annotations

import math
from typing import Dict

__all__ = ["ThroughputStats"]


class ThroughputStats:
    """Counts delivered packets/phits inside a measurement window."""

    __slots__ = ("num_nodes", "delivered_packets", "delivered_phits", "_window_cycles")

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.delivered_packets = 0
        self.delivered_phits = 0
        self._window_cycles = 0

    def record_delivery(self, size_phits: int) -> None:
        self.delivered_packets += 1
        self.delivered_phits += size_phits

    def set_window(self, cycles: int) -> None:
        """Length (in cycles) of the measurement window used for normalisation."""
        if cycles < 0:
            raise ValueError("window length cannot be negative")
        self._window_cycles = cycles

    @property
    def accepted_load(self) -> float:
        """Delivered phits per node per cycle (the paper's y-axis in Fig. 5)."""
        if self._window_cycles <= 0:
            return math.nan
        return self.delivered_phits / (self.num_nodes * self._window_cycles)

    def summary(self) -> Dict[str, float]:
        return {
            "delivered_packets": float(self.delivered_packets),
            "delivered_phits": float(self.delivered_phits),
            "accepted_load": self.accepted_load,
        }
