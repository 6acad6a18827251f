"""Topology-invariant property suite, run over every registered topology.

Every topology behind the registry must satisfy the structural contract the
network model and the routing layer rely on: bidirectional kind-consistent
links, a port-kind partition covering the radix, dense node<->router
mapping, contiguous equal-size regions, minimal routing that reaches every
destination within the declared diameter, and a path model whose MIN and
Valiant hop shapes walk strictly increasing buffer classes (the
topology-generic deadlock-freedom argument).
"""

import pytest

from repro.config.parameters import SimulationParameters
from repro.routing.deadlock import validate_path_model
from repro.topology.base import PortKind


@pytest.fixture
def topo(every_tiny_topology):
    """Every registered topology on its tiny preset (shared conftest fixture)."""
    return every_tiny_topology


class TestStructuralInvariants:
    def test_validate_passes(self, topo):
        """Neighbor symmetry / round-trip and port-kind consistency."""
        topo.validate()

    def test_port_kind_partition_covers_radix(self, topo):
        """Every port has exactly one kind; injection ports match p."""
        kinds = [topo.port_kind(port) for port in range(topo.router_radix)]
        assert len(kinds) == topo.router_radix
        assert kinds.count(PortKind.INJECTION) == topo.nodes_per_router
        assert tuple(kinds) == topo.port_kinds
        with pytest.raises(ValueError):
            topo.port_kind(topo.router_radix)
        if not topo.path_model.has_global_ports:
            assert PortKind.GLOBAL not in kinds

    def test_node_router_mapping_is_bijective(self, topo):
        """node -> (router, port) is a bijection onto injection ports."""
        seen = set()
        for node in range(topo.num_nodes):
            router = topo.node_router(node)
            port = topo.node_port(node)
            assert 0 <= router < topo.num_routers
            assert topo.port_kind(port) is PortKind.INJECTION
            seen.add((router, port))
        assert len(seen) == topo.num_nodes
        for router in range(topo.num_routers):
            for node in topo.router_nodes(router):
                assert topo.node_router(node) == router

    def test_neighbor_round_trip(self, topo):
        for router in range(topo.num_routers):
            for port in range(topo.router_radix):
                nbr = topo.neighbor(router, port)
                if topo.port_kind(port) is PortKind.INJECTION:
                    assert nbr is None
                    continue
                if not topo.port_connected(router, port):
                    # Boundary ports (fat-tree leaf down / root up links)
                    # carry no link.
                    assert nbr is None
                    continue
                assert nbr is not None and nbr[0] != router
                assert topo.neighbor(*nbr) == (router, port)

    def test_regions_partition_routers_and_nodes(self, topo):
        assert topo.num_regions * topo.routers_per_region == topo.num_routers
        all_routers = []
        all_nodes = []
        for region in range(topo.num_regions):
            routers = topo.region_routers(region)
            assert all(topo.router_region(r) == region for r in routers)
            all_routers.extend(routers)
            low, high = topo.region_node_range(region)
            assert all(topo.node_region(n) == region for n in range(low, high))
            all_nodes.extend(range(low, high))
        assert all_routers == list(range(topo.num_routers))
        assert all_nodes == list(range(topo.num_nodes))

    def test_port_target_region_matches_neighbor(self, topo):
        for router in range(topo.num_routers):
            for port in range(topo.router_radix):
                if topo.port_kind(port) is PortKind.INJECTION:
                    continue
                if not topo.port_connected(router, port):
                    continue
                nbr = topo.neighbor(router, port)
                assert topo.port_target_region(router, port) == topo.router_region(
                    nbr[0]
                )


class TestMinimalRouting:
    def test_minimal_routing_reaches_every_destination(self, topo):
        """Walking minimal_output_port from any router reaches any node
        within the declared diameter, and the final port ejects to the node."""
        max_hops = topo.path_model.max_minimal_hops
        for router in range(topo.num_routers):
            for dst in range(topo.num_nodes):
                r = router
                hops = 0
                while r != topo.node_router(dst):
                    port = topo.minimal_output_port(r, dst)
                    assert topo.port_kind(port) is not PortKind.INJECTION
                    r = topo.neighbor(r, port)[0]
                    hops += 1
                    assert hops <= max_hops, (router, dst)
                assert topo.minimal_output_port(r, dst) == topo.node_port(dst)

    def test_the_minimal_walk_and_router_hops_match_an_independent_oracle(
        self, topo, independent_hops
    ):
        """The hops of the ``minimal_output_port`` walk and ``router_hops``
        of the two nodes' routers equal a count from the wiring alone (the
        breadth-first distance; the local-global-local rule on the
        Dragonfly)."""
        for src in range(0, topo.num_nodes, max(1, topo.nodes_per_router)):
            for dst in range(topo.num_nodes):
                r = topo.node_router(src)
                hops = 0
                while r != topo.node_router(dst):
                    r = topo.neighbor(r, topo.minimal_output_port(r, dst))[0]
                    hops += 1
                a, b = topo.node_router(src), topo.node_router(dst)
                assert hops == topo.router_hops(a, b) == independent_hops(topo, a, b)

    def test_router_hops_counts_the_minimal_router_path(self, topo):
        """``router_hops`` (the memoised path walk) is the hop count of
        ``minimal_router_path``."""
        for router in range(topo.num_routers):
            for dst_router in range(topo.num_routers):
                path = topo.minimal_router_path(router, dst_router)
                assert topo.router_hops(router, dst_router) == len(path) - 1

    def test_minimal_route_to_router_consistent(self, topo):
        for router in range(topo.num_routers):
            with pytest.raises(ValueError):
                topo.minimal_route_to_router(router, router)
            for dst_router in range(topo.num_routers):
                if dst_router == router:
                    continue
                path = topo.minimal_router_path(router, dst_router)
                assert path[0] == router and path[-1] == dst_router
                port = topo.minimal_route_to_router(router, dst_router)
                assert topo.neighbor(router, port)[0] == path[1]


class TestPathModel:
    def test_declared_paths_are_deadlock_free_within_vc_budget(self, topo):
        """MIN and Valiant hop shapes walk strictly increasing buffer
        classes under the Table I VC budget (the cross-topology
        deadlock-freedom invariant)."""
        params = SimulationParameters.tiny(topo.config)
        validate_path_model(
            topo.path_model,
            local_vcs=params.local_port_vcs_oblivious,
            global_vcs=params.global_port_vcs,
            include_valiant=True,
        )

    def test_declared_adaptive_paths_are_deadlock_free(self, topo):
        """Topologies that declare an in-transit adaptive policy must also
        prove its path shapes (MM+L hop kinds / long-way ring traversals)
        deadlock-free under the nonminimal VC budget."""
        model = topo.path_model
        if not model.supports_in_transit_adaptive:
            pytest.skip("no in-transit adaptive policy declared")
        assert model.vc_schedule in ("path_stage", "dateline", "up_down")
        params = SimulationParameters.tiny(topo.config)
        validate_path_model(
            model,
            local_vcs=params.local_port_vcs_oblivious,
            global_vcs=params.global_port_vcs,
            include_valiant=True,
            include_adaptive=True,
        )

    def test_hop_kind_sequences_match_port_kinds(self, topo):
        model = topo.path_model
        kinds = {"local", "global"}
        for seq in model.minimal_hop_kinds + model.valiant_hop_kinds:
            assert set(seq) <= kinds
            if not model.has_global_ports:
                assert "global" not in seq
        assert model.max_minimal_hops == max(
            len(s) for s in model.minimal_hop_kinds
        )
        assert model.max_valiant_hops >= model.max_minimal_hops

    def test_minimal_walks_stay_within_declared_shapes(self, topo):
        """Observed minimal hop-kind sequences are declared by the model."""
        declared = set(topo.path_model.minimal_hop_kinds)
        observed = set()
        for router in range(topo.num_routers):
            for dst in range(topo.num_nodes):
                r = router
                seq = []
                while r != topo.node_router(dst):
                    port = topo.minimal_output_port(r, dst)
                    seq.append(topo.port_kind(port).value)
                    r = topo.neighbor(r, port)[0]
                if seq:
                    observed.add(tuple(seq))
        assert observed <= declared
