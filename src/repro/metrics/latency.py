"""Packet-latency statistics."""

from __future__ import annotations

import math
from typing import List

import numpy as np

__all__ = ["LatencyStats"]


class LatencyStats:
    """End-to-end packet latencies (in cycles); the
    :class:`~repro.metrics.collector.MetricsCollector` appends the samples."""

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: List[int] = []

    @property
    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return float(np.mean(self._samples))

    def percentile(self, q: float) -> float:
        if not self._samples:
            return math.nan
        return float(np.percentile(self._samples, q))
