"""Metrics collector fed by the simulation engine."""

from __future__ import annotations

import math
from typing import Optional

from repro.metrics.latency import LatencyStats
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.network.packet import Packet

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """The one sink of delivered packets: latency, accepted load and
    misrouting inside a window.

    ``measure_start``/``measure_end`` bound the measurement window in cycles.
    Latency and misrouting are attributed to packets *generated* inside the
    window (and delivered before the simulation ends); throughput counts the
    phits *delivered* inside the window, the usual accepted-load definition.
    An optional :class:`~repro.metrics.timeseries.TimeSeriesRecorder` receives
    every delivered packet for the transient experiments.
    """

    __slots__ = (
        "num_nodes",
        "measure_start",
        "measure_end",
        "latency",
        "timeseries",
        "generated_in_window",
        "delivered_packets",
        "delivered_phits",
        "globally_misrouted",
        "locally_misrouted",
        "hops_sum",
        "dropped_packets",
        "dropped_in_window",
        "fault_rerouted_delivered",
    )

    def __init__(
        self,
        num_nodes: int,
        measure_start: int = 0,
        measure_end: Optional[int] = None,
        timeseries: Optional[TimeSeriesRecorder] = None,
    ):
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.measure_start = measure_start
        self.measure_end = measure_end
        #: One sample per window packet delivered.
        self.latency = LatencyStats()
        self.timeseries = timeseries
        self.generated_in_window = 0
        # --- deliveries inside the window (throughput) ----------------------
        self.delivered_packets = 0
        self.delivered_phits = 0
        # --- window packets delivered (misrouting) --------------------------
        self.globally_misrouted = 0
        self.locally_misrouted = 0
        self.hops_sum = 0
        # --- fault accounting (zero on healthy runs) -----------------------
        #: Packets dropped because no surviving path reached the destination.
        self.dropped_packets = 0
        #: Dropped packets whose creation cycle fell in the window.
        self.dropped_in_window = 0
        #: Delivered packets that took at least one fault-fallback hop.
        self.fault_rerouted_delivered = 0

    # -- window helpers ---------------------------------------------------------
    def in_window(self, cycle: int) -> bool:
        if cycle < self.measure_start:
            return False
        return self.measure_end is None or cycle < self.measure_end

    @property
    def delivered_in_window(self) -> int:
        """Window packets delivered so far (one latency sample each)."""
        return len(self.latency._samples)

    def unsettled_packets(self) -> int:
        """Packets generated in the window and neither delivered nor dropped
        yet.  More can still be generated until the window closes."""
        return self.generated_in_window - self.delivered_in_window - self.dropped_in_window

    def window_settled(self) -> bool:
        """Every packet generated in the window was delivered or dropped.

        Meaningful once the window has closed: from then on no result field
        can change (latency, misrouting and the time series are attributed to
        window packets, throughput to deliveries inside the window), so a
        drain that stops here yields the result of a longer one.
        """
        return self.unsettled_packets() == 0

    # -- event sinks --------------------------------------------------------------
    def record_generated(self, packet: Packet) -> None:
        if self.in_window(packet.creation_cycle):
            self.generated_in_window += 1

    def record_delivery(self, packet: Packet, cycle: int) -> None:
        latency = packet.delivered_cycle - packet.creation_cycle
        if latency < 0:
            raise ValueError("latency cannot be negative")
        if self.in_window(packet.delivered_cycle):
            self.delivered_packets += 1
            self.delivered_phits += packet.size_phits
            if packet.fault_mode:
                self.fault_rerouted_delivered += 1
        if self.in_window(packet.creation_cycle):
            self.latency._samples.append(latency)
            self.hops_sum += packet.hops
            if packet.globally_misrouted:
                self.globally_misrouted += 1
            if packet.locally_misrouted:
                self.locally_misrouted += 1
        if self.timeseries is not None:
            self.timeseries.record(
                packet.creation_cycle,
                latency,
                globally_misrouted=packet.globally_misrouted,
                size_phits=packet.size_phits,
            )

    def record_dropped(self, packet: Packet, cycle: int) -> None:
        """A packet was dropped: its destination became unreachable."""
        self.dropped_packets += 1
        if self.in_window(packet.creation_cycle):
            self.dropped_in_window += 1

    # -- results ------------------------------------------------------------------
    @property
    def accepted_load(self) -> float:
        """Phits delivered in the window per node per cycle (the paper's
        y-axis in Fig. 5); NaN without a closed, non-empty window."""
        if self.measure_end is None or self.measure_end <= self.measure_start:
            return math.nan
        return self.delivered_phits / (
            self.num_nodes * (self.measure_end - self.measure_start)
        )

    @property
    def global_misroute_fraction(self) -> float:
        return self._per_window_packet(self.globally_misrouted)

    @property
    def local_misroute_fraction(self) -> float:
        return self._per_window_packet(self.locally_misrouted)

    @property
    def mean_hops(self) -> float:
        return self._per_window_packet(self.hops_sum)

    def _per_window_packet(self, total: int) -> float:
        delivered = self.delivered_in_window
        return total / delivered if delivered else math.nan
