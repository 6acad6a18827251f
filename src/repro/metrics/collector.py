"""Metrics collector fed by the simulation engine."""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.latency import LatencyStats
from repro.metrics.misrouting import MisroutingStats
from repro.metrics.throughput import ThroughputStats
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.network.packet import Packet

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Aggregates latency, throughput and misrouting inside a window.

    ``measure_start``/``measure_end`` bound the measurement window in cycles.
    Latency and misrouting are attributed to packets *generated* inside the
    window (and delivered before the simulation ends); throughput counts the
    phits *delivered* inside the window, the usual accepted-load definition.
    An optional :class:`~repro.metrics.timeseries.TimeSeriesRecorder` receives
    every delivered packet for the transient experiments.
    """

    __slots__ = (
        "measure_start",
        "measure_end",
        "latency",
        "throughput",
        "misrouting",
        "timeseries",
        "generated_in_window",
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
        self.measure_start = measure_start
        self.measure_end = measure_end
        self.latency = LatencyStats()
        self.throughput = ThroughputStats(num_nodes)
        self.misrouting = MisroutingStats()
        self.timeseries = timeseries
        self.generated_in_window = 0
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

    def unsettled_packets(self) -> int:
        """Packets generated in the window and neither delivered nor dropped
        yet.  More can still be generated until the window closes."""
        return (
            self.generated_in_window
            - self.misrouting.delivered
            - self.dropped_in_window
        )

    def window_settled(self) -> bool:
        """Every packet generated in the window was delivered or dropped.

        Meaningful once the window has closed: from then on no result field
        can change (latency, misrouting and the time series are attributed to
        window packets, throughput to deliveries inside the window), so a
        drain that stops here yields the result of a longer one.
        """
        return self.unsettled_packets() == 0

    def finalize_window(self) -> None:
        """Set the throughput normalisation once the window bounds are known."""
        if self.measure_end is None:
            raise ValueError("measure_end must be set before finalizing the window")
        self.throughput.set_window(self.measure_end - self.measure_start)

    # -- event sinks --------------------------------------------------------------
    def record_generated(self, packet: Packet) -> None:
        if self.in_window(packet.creation_cycle):
            self.generated_in_window += 1

    def record_delivery(self, packet: Packet, cycle: int) -> None:
        assert packet.delivered_cycle is not None
        if self.in_window(packet.delivered_cycle):
            self.throughput.record_delivery(packet.size_phits)
            if packet.fault_mode:
                self.fault_rerouted_delivered += 1
        if self.in_window(packet.creation_cycle):
            latency = packet.latency
            assert latency is not None
            self.latency.record(latency)
            self.misrouting.record(
                globally_misrouted=packet.globally_misrouted,
                locally_misrouted=packet.locally_misrouted,
                hops=packet.hops,
            )
        if self.timeseries is not None:
            latency = packet.latency
            assert latency is not None
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

    # -- summaries ---------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        out.update({f"latency_{k}": v for k, v in self.latency.summary().items()})
        out.update(self.throughput.summary())
        out.update(self.misrouting.summary())
        out["generated_in_window"] = float(self.generated_in_window)
        out["dropped_packets"] = float(self.dropped_packets)
        out["fault_rerouted_delivered"] = float(self.fault_rerouted_delivered)
        return out
