"""Qualitative cross-topology claims: the adversarial MIN-vs-VAL crossover.

The paper's central trade-off — minimal routing collapses under adversarial
traffic while Valiant-style nonminimal routing sustains it, at the cost of
extra latency under benign traffic — is topology-generic.  These tests pin
it on the flattened butterfly, the full mesh, and the torus: under ``ADV+1``
the region shift saturates the direct minimal channel at ``1/p`` of the
injection bandwidth, while VAL (and the source-adaptive UGAL) spread the
same traffic over the other regions' links.  On the torus the hard pattern
is the tornado (``ADV+h`` = a half-ring slab shift): minimal dimension-order
routing funnels every packet the same way around the last ring and caps at
``1/(2p)``, while VAL uses both directions and all intermediate slabs.
"""

import pytest

from repro.config.parameters import (
    FatTreeConfig,
    FlattenedButterflyConfig,
    FullMeshConfig,
    SimulationParameters,
    TorusConfig,
)
from repro.experiments import run_cross_topology
from repro.simulation.simulator import Simulator


def _steady(params, routing, pattern, load, seed=1):
    sim = Simulator(params, routing, pattern, load, seed=seed)
    return sim.run_steady_state(warmup_cycles=300, measure_cycles=600)


@pytest.fixture(scope="module")
def fb_params():
    # p == rows == cols == 4: MIN's adversarial ceiling is 1/p = 0.25 while
    # VAL's per-dimension ceiling is (k-1)/(2p) = 0.375 (see the config
    # preset notes), so a 0.35 offered load separates them cleanly.
    return SimulationParameters.tiny(FlattenedButterflyConfig(p=4, rows=4, cols=4))


@pytest.fixture(scope="module")
def mesh_params():
    return SimulationParameters.tiny(FullMeshConfig(p=4, a=8))


class TestFlattenedButterflyCrossover:
    def test_val_out_delivers_min_under_adversarial(self, fb_params):
        min_result = _steady(fb_params, "MIN", "ADV+1", 0.35)
        val_result = _steady(fb_params, "VAL", "ADV+1", 0.35)
        # MIN saturates near its 1/p = 0.25 ceiling; VAL sails past it.
        assert min_result.accepted_load < 0.27
        assert val_result.accepted_load > 1.2 * min_result.accepted_load
        assert val_result.mean_latency < min_result.mean_latency
        assert min_result.global_misroute_fraction == 0.0

    def test_ugal_tracks_the_better_mechanism(self, fb_params):
        min_result = _steady(fb_params, "MIN", "ADV+1", 0.35)
        ugal_result = _steady(fb_params, "UGAL", "ADV+1", 0.35)
        assert ugal_result.accepted_load > 1.1 * min_result.accepted_load

    def test_min_beats_val_latency_under_uniform(self, fb_params):
        min_result = _steady(fb_params, "MIN", "UN", 0.2)
        val_result = _steady(fb_params, "VAL", "UN", 0.2)
        assert min_result.mean_latency < val_result.mean_latency
        assert min_result.global_misroute_fraction == 0.0


class TestFlattenedButterflyContentionCrossover:
    """In-transit contention routing (MM+L policy) beyond the Dragonfly:
    under the row-shift adversary the contention counters divert traffic
    over the other rows' column links well past MIN's 1/p ceiling, while at
    low load the counters stay under threshold and the latency is MIN's."""

    def test_base_and_hybrid_beat_min_throughput_under_adversarial(
        self, fb_params
    ):
        min_result = _steady(fb_params, "MIN", "ADV+1", 0.35)
        base_result = _steady(fb_params, "Base", "ADV+1", 0.35)
        hybrid_result = _steady(fb_params, "Hybrid", "ADV+1", 0.35)
        assert base_result.accepted_load >= 1.3 * min_result.accepted_load
        assert hybrid_result.accepted_load >= 1.3 * min_result.accepted_load
        # The gain comes from contention-triggered global (column) detours.
        assert base_result.global_misroute_fraction > 0.0

    def test_base_matches_min_latency_at_low_load(self, fb_params):
        min_result = _steady(fb_params, "MIN", "ADV+1", 0.1)
        base_result = _steady(fb_params, "Base", "ADV+1", 0.1)
        assert base_result.mean_latency <= 1.05 * min_result.mean_latency
        # Under threshold nothing is diverted.
        assert base_result.global_misroute_fraction < 0.02


class TestTorusContentionCrossover:
    """The nonminimal ring-escape policy under the tornado: minimal DOR
    funnels every packet one way around the last ring; the contention
    trigger sends part of the traffic the other direction, using capacity
    MIN cannot reach, with MIN's latency when the counters stay cold."""

    def test_base_and_hybrid_beat_min_throughput_under_tornado(
        self, torus_params
    ):
        min_result = _steady(torus_params, "MIN", "ADV+h", 0.25)
        base_result = _steady(torus_params, "Base", "ADV+h", 0.25)
        hybrid_result = _steady(torus_params, "Hybrid", "ADV+h", 0.25)
        assert base_result.accepted_load >= 1.3 * min_result.accepted_load
        assert hybrid_result.accepted_load >= 1.3 * min_result.accepted_load
        # A torus has no global links: the escape is a local misroute.
        assert base_result.global_misroute_fraction == 0.0
        assert base_result.local_misroute_fraction > 0.0

    def test_base_matches_min_latency_at_low_load(self, torus_params):
        min_result = _steady(torus_params, "MIN", "ADV+h", 0.08)
        base_result = _steady(torus_params, "Base", "ADV+h", 0.08)
        assert base_result.mean_latency <= 1.05 * min_result.mean_latency
        assert base_result.local_misroute_fraction < 0.02


@pytest.fixture(scope="module")
def ft_params():
    # 4-ary 2-tree, p=4: ADV+1 shifts every leaf's traffic one root subtree
    # over, and destination-funneled minimal routing concentrates each
    # leaf's k uplink-loads onto a single uplink (a 1/p = 0.25 ceiling).
    # The adaptive uplink multipath spreads the same traffic over all k
    # equal-cost uplinks, whose aggregate capacity covers full injection.
    return SimulationParameters.tiny(FatTreeConfig.small())


class TestFatTreeContentionCrossover:
    """The uplink-multipath policy under the subtree shift: contention
    counters divert blocked heads onto sibling uplinks (equal cost, no
    global links involved), sailing past MIN's funnel ceiling while
    matching MIN's latency when the counters stay cold."""

    def test_base_and_hybrid_beat_min_throughput_under_subtree_shift(
        self, ft_params
    ):
        min_result = _steady(ft_params, "MIN", "ADV+1", 0.35)
        base_result = _steady(ft_params, "Base", "ADV+1", 0.35)
        hybrid_result = _steady(ft_params, "Hybrid", "ADV+1", 0.35)
        # MIN saturates near the 1/p = 0.25 funnel ceiling.
        assert min_result.accepted_load < 0.27
        assert base_result.accepted_load >= 1.3 * min_result.accepted_load
        assert hybrid_result.accepted_load >= 1.3 * min_result.accepted_load
        # A fat tree has no global links: every divert is a local misroute
        # onto a sibling uplink.
        assert min_result.global_misroute_fraction == 0.0
        assert base_result.global_misroute_fraction == 0.0
        assert base_result.local_misroute_fraction > 0.0

    def test_base_matches_min_latency_at_low_load(self, ft_params):
        min_result = _steady(ft_params, "MIN", "ADV+1", 0.1)
        base_result = _steady(ft_params, "Base", "ADV+1", 0.1)
        assert base_result.mean_latency <= 1.05 * min_result.mean_latency
        assert base_result.local_misroute_fraction < 0.02


class TestFullMeshCrossover:
    def test_val_and_ugal_out_deliver_min_under_adversarial(self, mesh_params):
        min_result = _steady(mesh_params, "MIN", "ADV+1", 0.35)
        val_result = _steady(mesh_params, "VAL", "ADV+1", 0.35)
        ugal_result = _steady(mesh_params, "UGAL", "ADV+1", 0.35)
        assert min_result.accepted_load < 0.27
        assert val_result.accepted_load > 1.5 * min_result.accepted_load
        assert ugal_result.accepted_load > 1.5 * min_result.accepted_load


@pytest.fixture(scope="module")
def torus_params():
    # 4x4 torus, p=2: ADV+h is the tornado (slab shift by dims[-1]//2 = 2).
    # Minimal DOR concentrates the whole last-ring load on one direction
    # (two consecutive plus hops per packet -> per-link load 2*p*rho, a
    # 1/(2p) = 0.25 theoretical ceiling, roughly halved by the tiny
    # buffers), while VAL's dateline VCs let it spread over both directions
    # and the intermediate slabs.
    return SimulationParameters.tiny(TorusConfig.tiny())


class TestTorusCrossover:
    def test_val_out_delivers_min_under_tornado(self, torus_params):
        min_result = _steady(torus_params, "MIN", "ADV+h", 0.25)
        val_result = _steady(torus_params, "VAL", "ADV+h", 0.25)
        assert min_result.accepted_load < 0.14
        assert val_result.accepted_load > 1.5 * min_result.accepted_load
        assert val_result.mean_latency < min_result.mean_latency
        # No global links: neither mechanism misroutes globally.
        assert min_result.global_misroute_fraction == 0.0
        assert val_result.global_misroute_fraction == 0.0

    def test_ugal_tracks_the_better_mechanism(self, torus_params):
        min_result = _steady(torus_params, "MIN", "ADV+h", 0.25)
        ugal_result = _steady(torus_params, "UGAL", "ADV+h", 0.25)
        assert ugal_result.accepted_load > 1.15 * min_result.accepted_load

    def test_min_beats_val_latency_under_uniform(self, torus_params):
        min_result = _steady(torus_params, "MIN", "UN", 0.1)
        val_result = _steady(torus_params, "VAL", "UN", 0.1)
        assert min_result.mean_latency < val_result.mean_latency
        # A torus has no global links: VAL's detours are local misroutes.
        assert min_result.local_misroute_fraction == 0.0
        assert min_result.global_misroute_fraction == 0.0
        assert val_result.global_misroute_fraction == 0.0
        assert val_result.local_misroute_fraction > 0.5


@pytest.mark.parametrize(
    "topology,routing,pattern",
    [
        ("flattened_butterfly", "VAL", "ADV+1"),
        ("torus", "VAL", "ADV+h"),
        ("torus", "Base", "ADV+h"),
        ("fat_tree", "Base", "ADV+1"),
    ],
)
def test_cross_topology_sweep_has_the_adversarial_shape(
    steady_scale, topology, routing, pattern
):
    """The cross-topology sweep harness, MIN against a nonminimal mechanism
    under each topology's adversary: one row per routing and load, all
    tagged with the topology; at the highest load the nonminimal mechanism
    delivers at least 95 % of MIN's throughput.  MIN never misroutes
    globally, and on the torus and the fat tree (no global links) neither
    does the other mechanism."""
    rows = run_cross_topology(
        topologies=(topology,), routings=("MIN", routing), pattern=pattern,
        scale=steady_scale,
    )
    assert len(rows) == 2 * len(steady_scale.adv_loads)
    assert all(row["topology"] == topology for row in rows)
    high_load = max(steady_scale.adv_loads)
    accepted = {
        row["routing"]: row["accepted_load"]
        for row in rows
        if row["offered_load"] == high_load
    }
    assert accepted[routing] >= 0.95 * accepted["MIN"]
    for row in rows:
        if row["routing"] == "MIN" or topology != "flattened_butterfly":
            assert row["global_misroute_fraction"] == 0.0, row["routing"]
