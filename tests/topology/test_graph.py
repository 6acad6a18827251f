"""Tests for the networkx export and graph statistics."""

import pytest

from repro.config.parameters import DragonflyConfig
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.graph import link_census, router_graph_stats, to_networkx


@pytest.fixture
def topology() -> DragonflyTopology:
    return DragonflyTopology(DragonflyConfig(p=2, a=3, h=1))


def test_to_networkx_edge_counts(topology):
    g = to_networkx(topology)
    assert g.number_of_nodes() == topology.num_routers
    groups = topology.num_regions
    a = topology.config.a
    local_edges = groups * a * (a - 1) // 2
    global_edges = groups * (groups - 1) // 2
    assert g.number_of_edges() == local_edges + global_edges


def test_router_graph_is_connected_with_small_diameter(topology):
    stats = router_graph_stats(topology)
    assert stats["connected"] == 1.0
    assert stats["diameter"] <= 3
    assert stats["avg_shortest_path"] <= 3


def test_link_census_counts_unidirectional_links(topology):
    census = link_census(topology)
    groups = topology.num_regions
    a = topology.config.a
    assert census["local"] == groups * a * (a - 1)
    assert census["global"] == groups * (groups - 1)
    assert census["injection"] == topology.num_routers * topology.config.p
