"""Tests for the delivery collector, latency samples, time series and aggregation."""

import math

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyStats
from repro.metrics.statistics import aggregate_rows, aggregate_scalar, average_series
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.network.packet import Packet


class TestLatencyStats:
    def test_mean_and_percentile(self):
        stats = LatencyStats()
        stats._samples.extend([100, 120, 140, 160, 180])
        assert stats.mean == pytest.approx(140)
        assert stats.percentile(50) == pytest.approx(140)
        assert stats.percentile(99) >= stats.percentile(50)

    def test_empty_stats_are_nan(self):
        stats = LatencyStats()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.percentile(99))


class TestTimeSeriesRecorder:
    def test_binning_by_creation_cycle(self):
        recorder = TimeSeriesRecorder(bin_size=10, start_cycle=0, end_cycle=40)
        recorder.record(5, 100, globally_misrouted=False, size_phits=8)
        recorder.record(7, 200, globally_misrouted=True, size_phits=8)
        recorder.record(25, 300, globally_misrouted=True, size_phits=8)
        recorder.record(45, 400, globally_misrouted=True, size_phits=8)  # outside window
        points = recorder.points()
        assert [p.bin_start for p in points] == [0, 20]
        assert [p.mean_latency for p in points] == [150.0, 300.0]
        assert [p.misrouted_fraction for p in points] == [0.5, 1.0]
        assert points[0].count == 2

    def test_rejects_bad_bin_size(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(bin_size=0)


def _delivered_packet(created, delivered, *, misrouted=False, local=False, hops=3):
    p = Packet(pid=0, src=0, dst=1, size_phits=8, creation_cycle=created)
    p.delivered_cycle = delivered
    p.globally_misrouted = misrouted
    p.locally_misrouted = local
    p.hops = hops
    return p


class TestMetricsCollector:
    def test_window_filtering(self):
        collector = MetricsCollector(num_nodes=4, measure_start=100, measure_end=200)
        # Created before the window: throughput counts it, latency does not.
        collector.record_delivery(_delivered_packet(50, 150), 150)
        # Created and delivered inside the window: both count.
        collector.record_delivery(_delivered_packet(120, 180, misrouted=True), 180)
        # Delivered after the window: latency counts (created inside), throughput not.
        collector.record_delivery(_delivered_packet(150, 250), 250)
        assert collector.latency.mean == pytest.approx((60 + 100) / 2)
        assert collector.delivered_packets == 2
        assert collector.delivered_phits == 16
        assert collector.delivered_in_window == 2
        assert collector.globally_misrouted == 1

    def test_accepted_load_normalisation(self):
        collector = MetricsCollector(num_nodes=10, measure_start=0, measure_end=100)
        for _ in range(50):
            collector.record_delivery(_delivered_packet(0, 10), 10)
        assert collector.accepted_load == pytest.approx(400 / 1000)

    def test_without_a_closed_window_the_load_is_nan(self):
        collector = MetricsCollector(num_nodes=10, measure_start=0, measure_end=None)
        collector.record_delivery(_delivered_packet(0, 10), 10)
        assert math.isnan(collector.accepted_load)

    def test_fractions_and_mean_hops(self):
        collector = MetricsCollector(num_nodes=4, measure_start=0, measure_end=100)
        collector.record_delivery(_delivered_packet(0, 10, misrouted=True, hops=5), 10)
        collector.record_delivery(_delivered_packet(0, 10, local=True, hops=3), 10)
        collector.record_delivery(_delivered_packet(0, 10, hops=2), 10)
        assert collector.global_misroute_fraction == pytest.approx(1 / 3)
        assert collector.local_misroute_fraction == pytest.approx(1 / 3)
        assert collector.mean_hops == pytest.approx(10 / 3)

    def test_empty_is_nan(self):
        collector = MetricsCollector(num_nodes=4, measure_start=0, measure_end=100)
        assert math.isnan(collector.global_misroute_fraction)
        assert math.isnan(collector.mean_hops)

    def test_negative_latency_rejected(self):
        collector = MetricsCollector(num_nodes=4)
        with pytest.raises(ValueError, match="latency cannot be negative"):
            collector.record_delivery(_delivered_packet(10, 9), 9)

    def test_rejects_no_nodes(self):
        with pytest.raises(ValueError):
            MetricsCollector(num_nodes=0)


class TestAggregation:
    def test_aggregate_scalar(self):
        result = aggregate_scalar([10.0, 12.0, 14.0])
        assert result.mean == pytest.approx(12.0)
        assert result.n == 3
        assert result.ci95 > 0

    def test_aggregate_scalar_ignores_nan(self):
        result = aggregate_scalar([10.0, float("nan"), 14.0])
        assert result.mean == pytest.approx(12.0)
        assert result.n == 2

    def test_aggregate_scalar_empty(self):
        assert math.isnan(aggregate_scalar([]).mean)

    def test_aggregate_rows(self):
        rows = [{"latency": 10.0, "load": 0.5}, {"latency": 20.0, "load": 0.5}]
        out = aggregate_rows(rows, ["latency", "load"])
        assert out["latency"].mean == pytest.approx(15.0)
        assert out["load"].std == pytest.approx(0.0)

    def test_average_series_handles_ragged_and_nan(self):
        merged = average_series([[1.0, 2.0, 3.0], [3.0, float("nan")]])
        assert merged[0] == pytest.approx(2.0)
        assert merged[1] == pytest.approx(2.0)
        assert merged[2] == pytest.approx(3.0)

    def test_average_series_empty(self):
        assert average_series([]) == []
