"""The compiled core's delivery sink leaves the collector as the Python one does.

On the ``soa`` backend the stock ``MetricsCollector.record_delivery`` /
``record_generated`` (with ``in_window`` and ``TimeSeriesRecorder.record``)
run as the core's C transcription; on ``object`` they run as written.  Each
case attaches a collector with its own window (and, for the transient cases,
a time series whose bins do not line up with the window) to the same seeded
run on both backends and compares every counter, every latency sample in
order and every bin.
"""

from __future__ import annotations

import pytest

from repro.config.parameters import SimulationParameters
from repro.metrics.collector import MetricsCollector
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

CYCLES = 250

#: ``(routing, pattern, load)``: VAL misroutes every remote packet globally,
#: Base misroutes adaptively under the adversarial shift.
TRAFFIC = {
    "VAL-UN": ("VAL", "UN", 0.4),
    "Base-ADV+1": ("Base", "ADV+1", 0.4),
}


def _collector_state(metrics: MetricsCollector) -> dict:
    state = {
        name: getattr(metrics, name)
        for name in MetricsCollector.__slots__
        if name not in ("latency", "timeseries")
    }
    state["samples"] = list(metrics.latency._samples)
    series = metrics.timeseries
    if series is not None:
        state["bins"] = [
            (p.bin_start, p.count, p.latency_sum, p.misrouted, p.delivered_phits)
            for p in series.points()
        ]
    return state


def _run(backend, traffic, window, series=None, fault_model=None) -> dict:
    routing, pattern, load = TRAFFIC[traffic]
    sim = Simulator(
        SimulationParameters.tiny().with_backend(backend),
        routing,
        pattern,
        load,
        seed=3,
        fault_model=fault_model,
    )
    start, end = window
    timeseries = None if series is None else TimeSeriesRecorder(*series)
    metrics = MetricsCollector(
        num_nodes=sim.topology.num_nodes,
        measure_start=start,
        measure_end=end,
        timeseries=timeseries,
    )
    sim.engine.metrics = metrics
    sim.engine.run(CYCLES)
    return _collector_state(metrics)


@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
@pytest.mark.parametrize(
    "window",
    [(0, None), (0, 150), (47, 133), (150, None), (100, 100)],
    ids=["open", "closed", "inside", "late", "empty"],
)
def test_every_window_counts_alike(traffic, window):
    expected = _run("object", traffic, window)
    assert _run("soa", traffic, window) == expected
    if window[0] == window[1]:
        assert expected["delivered_packets"] == 0 and expected["samples"] == []
    else:
        assert expected["delivered_packets"] > 0 and expected["samples"]
        assert expected["globally_misrouted"] > 0


@pytest.mark.parametrize(
    "window, series",
    [((40, 160), (1, 40, 160)), ((0, 200), (7, 33, 171)), ((0, None), (5, 20, None))],
    ids=["bin-per-cycle", "offset-bins", "open-series"],
)
def test_every_time_series_bins_alike(window, series):
    expected = _run("object", "Base-ADV+1", window, series)
    assert _run("soa", "Base-ADV+1", window, series) == expected
    assert expected["bins"]


def test_fault_accounting_counts_alike():
    faults = FaultModel(link_failure_percent=10.0)
    expected = _run("object", "VAL-UN", (0, None), fault_model=faults)
    assert _run("soa", "VAL-UN", (0, None), fault_model=faults) == expected
    assert expected["fault_rerouted_delivered"] > 0
