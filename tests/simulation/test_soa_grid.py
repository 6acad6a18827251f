"""The off-suite object-vs-soa grid (slow; outside tier-1).

Every supported (topology, mechanism) pair on the tiny presets x
``router_latency`` in {default, 0, 1} x {clean, one degraded link, 10 %
failed links} x two loads, and every pair again x ``internal_speedup`` in
{1, 3} x {clean, 10 % failed links} at the higher load (no other test leaves
the default of 2 rounds).  Each point is run to completion on both backends
and compared on the result dict, its fingerprint, ``engine.cycle``,
``cycles_skipped`` and the delivered count.  Run with::

    PYTHONPATH=src python -m pytest -m slow tests/simulation/test_soa_grid.py
"""

from __future__ import annotations

import pytest

from repro.topology.faults import DegradedLink, FaultModel

from test_soa_backend import SUPPORTED_PAIRS, _first_link, _run

pytestmark = [pytest.mark.slow, pytest.mark.filterwarnings("ignore::UserWarning")]

_FAULTS = {
    "clean": lambda topology: None,
    "degraded": lambda topology: FaultModel(
        degraded_links=(
            (_first_link(topology), DegradedLink(bandwidth_factor=3, latency_factor=2)),
        )
    ),
    "failed10": lambda topology: FaultModel(link_failure_percent=10.0),
}

GRID = [
    pytest.param(
        {
            "topology": topology,
            "routing": routing,
            "pattern": "ADV+1",
            "load": load,
            "seed": 11,
            "faults": False,
            "fault_model": make_fault_model(topology),
            **({} if latency is None else {"router_latency": latency}),
        },
        id=f"{topology}-{routing}-rl{'default' if latency is None else latency}-{fault}-{load}",
    )
    for topology, routing in SUPPORTED_PAIRS
    for latency in (None, 0, 1)
    for fault, make_fault_model in _FAULTS.items()
    for load in (0.2, 0.6)
]

SPEEDUP_GRID = [
    pytest.param(
        {
            "topology": topology,
            "routing": routing,
            "pattern": "ADV+1",
            "load": 0.6,
            "seed": 11,
            "faults": False,
            "fault_model": _FAULTS[fault](topology),
            "internal_speedup": speedup,
        },
        id=f"{topology}-{routing}-speedup{speedup}-{fault}",
    )
    for topology, routing in SUPPORTED_PAIRS
    for speedup in (1, 3)
    for fault in ("clean", "failed10")
]


@pytest.mark.parametrize("combo", GRID + SPEEDUP_GRID)
def test_object_and_soa_agree_bit_for_bit(combo):
    assert _run("soa", combo) == _run("object", combo)
