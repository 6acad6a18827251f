"""The router-pair and port tables of ``Topology``, on every registered topology.

``minimal_output_port`` reads one byte table filled by the topology's
``_route_port``, and so does ``minimal_route_to_router`` everywhere but on
the fat tree, whose router targets have a table of their own filled by
breadth-first search; ``router_hops`` memoises
``len(minimal_router_path) - 1`` in a byte table allocated on its first call
on every topology, and the router behind each port
is read from a peer table filled by ``neighbor``.  The SoA core reads the
same tables, so an entry that disagreed with the topology's own rule would
change every backend's routes at once.
"""

import pytest

from repro.topology.registry import available_topologies, create_topology, topology_preset

UNSET = 0xFF

CASES = [(name, preset) for name in available_topologies() for preset in ("tiny", "small")]


@pytest.fixture(params=CASES, ids=[f"{name}-{preset}" for name, preset in CASES])
def topology(request):
    name, preset = request.param
    return create_topology(topology_preset(name, preset))


def _pairs(topology):
    """Every (router, destination node) pair."""
    return [
        (router, node)
        for router in range(topology.num_routers)
        for node in range(topology.num_nodes)
    ]


def test_the_route_table_starts_unset_and_sized_per_router_pair(topology):
    R = topology.num_routers
    table = topology._route_table
    assert type(table) is bytearray and len(table) == R * R
    assert set(table) == {UNSET}


def test_minimal_output_port_ejects_at_home_else_reads_route_port(topology):
    for router, node in _pairs(topology):
        home = topology.node_router(node)
        port = topology.minimal_output_port(router, node)
        if router == home:
            assert port == topology.node_port(node)
        else:
            assert port == topology._route_port(router, home)


def test_a_repeated_query_hits_the_filled_entry(topology, monkeypatch):
    R = topology.num_routers
    first = {pair: topology.minimal_output_port(*pair) for pair in _pairs(topology)}
    filled = bytes(topology._route_table)
    for router, node in first:
        home = topology.node_router(node)
        if router != home:
            assert filled[router * R + home] == first[router, node]

    def no_fill(router, dst_router):
        raise AssertionError(f"entry ({router}, {dst_router}) filled twice")

    monkeypatch.setattr(topology, "_route_port", no_fill)
    assert {pair: topology.minimal_output_port(*pair) for pair in first} == first
    assert bytes(topology._route_table) == filled


def test_router_hops_is_the_length_of_the_minimal_router_path(topology):
    R = topology.num_routers
    for a in range(R):
        for b in range(R):
            path = topology.minimal_router_path(a, b)
            assert path[0] == a and path[-1] == b
            assert topology.router_hops(a, b) == len(path) - 1
    memo = topology._hop_table
    assert type(memo) is bytearray and len(memo) == R * R and UNSET not in memo


def test_the_hop_memo_is_allocated_on_first_use_only(topology):
    assert topology._hop_table is None
    topology.router_hops(0, topology.num_routers - 1)
    assert topology._hop_table is not None


def test_minimal_route_to_router_raises_on_the_diagonal(topology):
    for router in range(topology.num_routers):
        with pytest.raises(ValueError, match="already at the destination router"):
            topology.minimal_route_to_router(router, router)


def test_router_targets_read_the_route_table_except_on_the_fat_tree(topology):
    own = type(topology).__name__ == "FatTreeTopology"
    assert (topology._target_table is topology._route_table) is not own
    assert len(topology._target_table) == topology.num_routers ** 2


def test_the_peer_table_starts_unset_and_fills_from_neighbor(topology):
    R, P = topology.num_routers, topology.router_radix
    table = topology._peer_table
    assert table.typecode == "q" and len(table) == R * P and set(table) == {-1}
    for router in range(R):
        for port in range(P):
            nbr = topology.neighbor(router, port)
            assert topology._link_peer(router, port) == (-2 if nbr is None else nbr[0])
    assert -1 not in table
