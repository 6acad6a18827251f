"""Measurement: the delivery collector, latency samples, time series, aggregation."""

from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyStats
from repro.metrics.statistics import (
    AggregateResult,
    aggregate_rows,
    aggregate_scalar,
    average_series,
)
from repro.metrics.timeseries import TimeSeriesPoint, TimeSeriesRecorder

__all__ = [
    "MetricsCollector",
    "LatencyStats",
    "TimeSeriesRecorder",
    "TimeSeriesPoint",
    "AggregateResult",
    "aggregate_scalar",
    "aggregate_rows",
    "average_series",
]
