"""Per-cycle (binned) time series of latency and misrouting.

The transient experiments of the paper (Figs. 7–9) plot the evolution of the
average packet latency and of the percentage of misrouted packets around a
traffic-pattern change.  Packets are binned by their *generation* cycle, so a
bin describes the fate of the traffic injected at that moment — which is what
makes the reaction time of the misrouting trigger visible.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["TimeSeriesRecorder", "TimeSeriesPoint"]


class TimeSeriesPoint:
    """Aggregated statistics of one time bin."""

    __slots__ = ("bin_start", "count", "latency_sum", "misrouted", "delivered_phits")

    def __init__(self, bin_start: int):
        self.bin_start = bin_start
        self.count = 0
        self.latency_sum = 0
        self.misrouted = 0
        self.delivered_phits = 0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.count if self.count else math.nan

    @property
    def misrouted_fraction(self) -> float:
        return self.misrouted / self.count if self.count else math.nan


class TimeSeriesRecorder:
    """Bins delivered packets by generation cycle.

    Binning is by *generation* cycle of each delivered packet, so a time-warp
    engine that jumps over quiet stretches produces exactly the same bins as
    a cycle-by-cycle engine: bins with no generated packets simply never
    materialise, warped or not.
    """

    __slots__ = ("bin_size", "start_cycle", "end_cycle", "_bins")

    def __init__(self, bin_size: int = 1, start_cycle: int = 0, end_cycle: Optional[int] = None):
        if bin_size < 1:
            raise ValueError("bin_size must be >= 1")
        self.bin_size = bin_size
        self.start_cycle = start_cycle
        self.end_cycle = end_cycle
        self._bins: Dict[int, TimeSeriesPoint] = {}

    def record(
        self,
        creation_cycle: int,
        latency: int,
        *,
        globally_misrouted: bool,
        size_phits: int,
    ) -> None:
        if creation_cycle < self.start_cycle:
            return
        if self.end_cycle is not None and creation_cycle >= self.end_cycle:
            return
        bin_start = (
            (creation_cycle - self.start_cycle) // self.bin_size
        ) * self.bin_size + self.start_cycle
        point = self._bins.get(bin_start)
        if point is None:
            point = TimeSeriesPoint(bin_start)
            self._bins[bin_start] = point
        point.count += 1
        point.latency_sum += latency
        point.delivered_phits += size_phits
        if globally_misrouted:
            point.misrouted += 1

    # -- output -----------------------------------------------------------------
    def points(self) -> List[TimeSeriesPoint]:
        return [self._bins[k] for k in sorted(self._bins)]
