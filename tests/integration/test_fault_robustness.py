"""Paper-level robustness claim under link failures.

The nonminimal adaptive mechanisms route around failed links with the same
candidate machinery they use against congestion, so under moderate fault
rates they must retain at least MIN's throughput — on the Dragonfly *and*
on the torus, where the fault detours additionally thread the dateline VC
schedule.
"""

from statistics import mean

import pytest

from repro.config.parameters import SimulationParameters
from repro.experiments import run_fault_sweep
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel
from repro.topology.registry import topology_preset

SEEDS = (1, 2, 3)


def _mean_accepted(topology_name, routing, failure_percent):
    accepted = []
    for seed in SEEDS:
        params = SimulationParameters.tiny(topology_preset(topology_name))
        sim = Simulator(
            params,
            routing,
            "UN",
            0.3,
            seed=seed,
            fault_model=FaultModel(link_failure_percent=failure_percent),
        )
        result = sim.run_steady_state(150, 300)
        assert result.dropped_packets == 0  # fault set keeps the graph connected
        accepted.append(result.accepted_load)
    return mean(accepted)


@pytest.mark.parametrize("topology_name", ["dragonfly", "torus"])
@pytest.mark.parametrize("failure_percent", [5.0, 10.0])
class TestAdaptiveRetainsMinThroughput:
    def test_base_and_hybrid_at_least_min(self, topology_name, failure_percent):
        min_accepted = _mean_accepted(topology_name, "MIN", failure_percent)
        assert min_accepted > 0.1  # MIN itself must keep moving traffic
        for routing in ("Base", "Hybrid"):
            accepted = _mean_accepted(topology_name, routing, failure_percent)
            # >= MIN with a small seed-noise tolerance.
            assert accepted >= 0.95 * min_accepted, (
                f"{routing} on {topology_name} at {failure_percent}% failures: "
                f"accepted {accepted:.4f} vs MIN {min_accepted:.4f}"
            )


@pytest.mark.parametrize("routing", ("Base", "Hybrid", "ECtN"))
def test_degradation_sweep_reroutes_without_drops(steady_scale, routing):
    """The degradation-curve harness, healthy vs 5 % failed links on the
    Dragonfly: nothing drops on the connected surviving graph, the failures
    do reroute packets, at most 20 % of the throughput is lost, and the
    contention mechanism retains at least MIN's share."""
    rows = run_fault_sweep(
        scale=steady_scale, routings=("MIN", routing), failure_percents=(0.0, 5.0)
    )
    assert len(rows) == 4
    assert all(not row["failures"] for row in rows)
    assert all(row["dropped_packets"] == 0 for row in rows)
    faulted = {row["routing"]: row for row in rows if row["link_failure_percent"] == 5.0}
    assert all(row["fault_rerouted_packets"] > 0 for row in faulted.values())
    assert all(row["throughput_retained"] >= 0.8 for row in faulted.values())
    assert (
        faulted[routing]["throughput_retained"]
        >= 0.95 * faulted["MIN"]["throughput_retained"]
    )
