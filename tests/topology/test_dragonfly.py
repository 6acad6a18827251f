"""Tests for the canonical Dragonfly topology."""

import pytest

from repro.config.parameters import DragonflyConfig
from repro.topology.base import PortKind
from repro.topology.dragonfly import DragonflyTopology


@pytest.fixture(params=["palmtree", "consecutive"])
def topology(request) -> DragonflyTopology:
    return DragonflyTopology(DragonflyConfig(p=2, a=3, h=2, global_arrangement=request.param))


class TestStructure:
    def test_sizes(self, topology):
        cfg = topology.config
        assert topology.num_regions == cfg.a * cfg.h + 1 == 7
        assert topology.num_routers == 21
        assert topology.num_nodes == 42
        assert topology.router_radix == 2 + 2 + 2

    def test_port_kind_layout(self, topology):
        kinds = [topology.port_kind(p) for p in range(topology.router_radix)]
        assert kinds == [
            PortKind.INJECTION,
            PortKind.INJECTION,
            PortKind.LOCAL,
            PortKind.LOCAL,
            PortKind.GLOBAL,
            PortKind.GLOBAL,
        ]
        with pytest.raises(ValueError):
            topology.port_kind(topology.router_radix)

    def test_validate_structural_invariants(self, topology):
        # Checks bidirectional links and node attachment for every router.
        topology.validate()

    def test_each_group_pair_joined_by_exactly_one_global_link(self, topology):
        seen = {}
        for r in range(topology.num_routers):
            g = topology.router_region(r)
            for port in topology.global_ports:
                dst = topology.port_target_region(r, port)
                assert dst != g
                key = (g, dst)
                assert key not in seen, f"duplicate global link {key}"
                seen[key] = (r, port)
        expected_pairs = topology.num_regions * (topology.num_regions - 1)
        assert len(seen) == expected_pairs

    def test_global_link_endpoint_is_inverse_of_target_group(self, topology):
        for g in range(topology.num_regions):
            for d in range(topology.num_regions):
                if g == d:
                    continue
                router, port = topology.global_link_endpoint(g, d)
                assert topology.router_region(router) == g
                assert topology.port_target_region(router, port) == d

    def test_port_target_region_matches_the_wiring(self, topology):
        # The arithmetic over ``_offset_to_group`` answers what a neighbor
        # walk would, on every local and global port of every router.
        for router in range(topology.num_routers):
            for port in range(topology.router_radix):
                if topology.port_kind(port) is PortKind.INJECTION:
                    with pytest.raises(ValueError, match="injection port"):
                        topology.port_target_region(router, port)
                    continue
                nbr_router, _ = topology.neighbor(router, port)
                assert topology.port_target_region(router, port) == topology.router_region(
                    nbr_router
                )

    def test_region_gateway_leads_into_the_target_region(self, topology):
        for router in range(topology.num_routers):
            group = topology.router_region(router)
            with pytest.raises(ValueError, match="already inside"):
                topology.region_gateway(router, group)
            for target in range(topology.num_regions):
                if target == group:
                    continue
                port, is_global = topology.region_gateway(router, target)
                assert is_global == (topology.port_kind(port) is PortKind.GLOBAL)
                if not is_global:
                    # One local hop to the owner of the group's link.
                    router_next, _ = topology.neighbor(router, port)
                    assert topology.router_region(router_next) == group
                    port, is_global = topology.region_gateway(router_next, target)
                    assert is_global
                    router_here = router_next
                else:
                    router_here = router
                assert (router_here, port) == topology.global_link_endpoint(group, target)
                assert topology.port_target_region(router_here, port) == target

    def test_local_ports_form_complete_graph(self, topology):
        a = topology.config.a
        for pos in range(a):
            peers = set()
            for port in topology.local_ports:
                peers.add(topology.local_port_peer(pos, port))
            assert peers == set(range(a)) - {pos}

    def test_local_port_to_roundtrip(self, topology):
        a = topology.config.a
        for me in range(a):
            for peer in range(a):
                if me == peer:
                    with pytest.raises(ValueError):
                        topology.local_port_to(me, peer)
                    continue
                port = topology.local_port_to(me, peer)
                assert topology.local_port_peer(me, port) == peer


class TestAddressing:
    def test_router_group_position_roundtrip(self, topology):
        for r in range(topology.num_routers):
            g = topology.router_region(r)
            pos = topology.router_position(r)
            assert topology.router_id(g, pos) == r

    def test_router_id_bounds(self, topology):
        with pytest.raises(ValueError):
            topology.router_id(topology.num_regions, 0)
        with pytest.raises(ValueError):
            topology.router_id(0, topology.config.a)

    def test_node_router_mapping(self, topology):
        for n in range(topology.num_nodes):
            r = topology.node_router(n)
            assert n in topology.router_nodes(r)
            assert topology.node_port(n) < topology.config.p
            assert topology.node_region(n) == topology.router_region(r)

    def test_group_nodes_partition(self, topology):
        all_nodes = []
        for g in range(topology.num_regions):
            all_nodes.extend(topology.region_nodes(g))
        assert sorted(all_nodes) == list(range(topology.num_nodes))


class TestMinimalRouting:
    def test_minimal_path_length_at_most_diameter(self, topology):
        # Dragonfly diameter is 3 router-to-router hops (l-g-l).
        nodes = range(topology.num_nodes)
        for src in list(nodes)[:8]:
            for dst in list(nodes)[::5]:
                if src == dst:
                    continue
                assert topology.minimal_path_length(src, dst) <= 3

    def test_minimal_output_port_reaches_destination(self, topology):
        # Following minimal_output_port hop by hop must arrive at the
        # destination router within 3 hops for every (router, node) pair.
        for src_router in range(topology.num_routers):
            for dst in range(0, topology.num_nodes, 3):
                dst_router = topology.node_router(dst)
                r = src_router
                for _ in range(4):
                    if r == dst_router:
                        break
                    port = topology.minimal_output_port(r, dst)
                    assert topology.port_kind(port) is not PortKind.INJECTION
                    r = topology.neighbor(r, port)[0]
                assert r == dst_router

    def test_minimal_output_port_is_ejection_at_destination(self, topology):
        dst = 5
        router = topology.node_router(dst)
        port = topology.minimal_output_port(router, dst)
        assert topology.port_kind(port) is PortKind.INJECTION
        assert port == topology.node_port(dst)

    def test_minimal_route_to_router_progresses(self, topology):
        src, dst = 0, topology.num_routers - 1
        path = topology.minimal_router_path(src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) <= 4
        with pytest.raises(ValueError):
            topology.minimal_route_to_router(src, src)

    def test_one_route_table_answers_both_queries_like_the_uncached_route(self, topology):
        R = topology.num_routers
        table = topology._route_table
        assert type(table) is bytearray and len(table) == R * R and set(table) == {0xFF}
        for router in range(R):
            for dst_router in range(R):
                if router == dst_router:
                    continue
                expected = topology._route_port(router, dst_router)
                dst = topology.router_nodes(dst_router)[0]
                # Odd pairs are filled by one query and read back by the
                # other: the two share every entry.
                first, second = (
                    (topology.minimal_route_to_router, topology.minimal_output_port)
                    if (router + dst_router) % 2
                    else (topology.minimal_output_port, topology.minimal_route_to_router)
                )
                for query in (first, second, first):
                    target = dst if query == topology.minimal_output_port else dst_router
                    assert query(router, target) == expected
        assert topology._route_table is table
        # Only the diagonal (never asked for) is still unset.
        assert [key for key, port in enumerate(table) if port == 0xFF] == [
            router * R + router for router in range(R)
        ]

    def test_router_hops_is_the_hop_count_of_the_minimal_path(self, topology):
        R = topology.num_routers
        for router in range(R):
            for dst_router in range(R):
                path = topology.minimal_router_path(router, dst_router)
                assert topology.router_hops(router, dst_router) == len(path) - 1

    def test_group_link_offsets_index_the_link_between_two_groups(self, topology):
        G, h = topology.num_regions, topology.config.h
        first_global = min(topology.global_ports)
        for group in range(G):
            for dst_group in range(G):
                offset = topology.group_link_offsets[group * G + dst_group]
                if group == dst_group:
                    assert offset == -1
                    continue
                router, port = topology.global_link_endpoint(group, dst_group)
                assert offset == topology.router_position(router) * h + port - first_global

    def test_a_minimal_path_crosses_one_global_link_between_the_two_regions(self, topology):
        for src_router in range(topology.num_routers):
            src_group = topology.router_region(src_router)
            for dst_router in range(topology.num_routers):
                path = topology.minimal_router_path(src_router, dst_router)
                global_hops = [
                    (a, b)
                    for a, b in zip(path, path[1:])
                    if topology.router_region(a) != topology.router_region(b)
                ]
                dst_group = topology.router_region(dst_router)
                if dst_group == src_group:
                    assert global_hops == []
                    continue
                [(gateway, landing)] = global_hops
                assert topology.router_region(gateway) == src_group
                assert topology.router_region(landing) == dst_group
                assert gateway == topology.global_link_endpoint(src_group, dst_group)[0]

    def test_a_radix_the_memo_byte_cannot_hold_is_rejected(self):
        DragonflyTopology(DragonflyConfig(p=249, a=4, h=2))  # radix 254
        with pytest.raises(ValueError, match="byte-sized route memo"):
            DragonflyTopology(DragonflyConfig(p=250, a=4, h=2))


def test_paper_scale_topology_constructs():
    topo = DragonflyTopology(DragonflyConfig.paper())
    assert topo.num_nodes == 16_512
    assert topo.num_routers == 2_064
    # Spot-check a minimal path across groups at full scale.
    assert topo.minimal_path_length(0, topo.num_nodes - 1) <= 3
