"""Topology-specific tests for the flattened butterfly and the full mesh."""

import pytest

from repro.config.parameters import FlattenedButterflyConfig, FullMeshConfig
from repro.topology.base import PortKind
from repro.topology.flattened_butterfly import FlattenedButterflyTopology
from repro.topology.full_mesh import FullMeshTopology


@pytest.fixture
def fb():
    return FlattenedButterflyTopology(FlattenedButterflyConfig(p=2, rows=3, cols=4))


@pytest.fixture
def mesh():
    return FullMeshTopology(FullMeshConfig.tiny())


class TestFlattenedButterfly:
    def test_sizes_and_port_layout(self, fb):
        assert fb.num_routers == 12
        assert fb.num_nodes == 24
        # radix = p + (cols-1) row ports + (rows-1) column ports.
        assert fb.router_radix == 2 + 3 + 2
        assert list(fb.injection_ports) == [0, 1]
        assert [fb.port_kind(p) for p in fb.row_ports] == [PortKind.LOCAL] * 3
        assert [fb.port_kind(p) for p in fb.column_ports] == [PortKind.GLOBAL] * 2

    def test_coords_round_trip(self, fb):
        for router in range(fb.num_routers):
            x, y = fb.router_coords(router)
            assert fb.router_id(x, y) == router

    def test_rows_are_regions(self, fb):
        assert fb.num_regions == 3
        assert fb.routers_per_region == 4
        for router in range(fb.num_routers):
            _, y = fb.router_coords(router)
            assert fb.router_region(router) == y

    def test_row_links_stay_in_row_column_links_in_column(self, fb):
        for router in range(fb.num_routers):
            x, y = fb.router_coords(router)
            for port in fb.row_ports:
                nx, ny = fb.router_coords(fb.neighbor(router, port)[0])
                assert ny == y and nx != x
            for port in fb.column_ports:
                nx, ny = fb.router_coords(fb.neighbor(router, port)[0])
                assert nx == x and ny != y

    def test_minimal_routing_is_row_first(self, fb):
        # (0, 0) -> router (2, 1): first hop must be the row hop to column 2.
        dst_router = fb.router_id(2, 1)
        dst = fb.router_nodes(dst_router)[0]
        port = fb.minimal_output_port(fb.router_id(0, 0), dst)
        assert fb.port_kind(port) is PortKind.LOCAL
        step = fb.neighbor(fb.router_id(0, 0), port)[0]
        assert fb.router_coords(step) == (2, 0)
        # Second hop corrects the row through a column (GLOBAL) link.
        port2 = fb.minimal_output_port(step, dst)
        assert fb.port_kind(port2) is PortKind.GLOBAL
        assert fb.neighbor(step, port2)[0] == dst_router

    def test_minimal_path_lengths(self, fb):
        same_row = fb.router_nodes(fb.router_id(3, 0))[0]
        same_col = fb.router_nodes(fb.router_id(0, 2))[0]
        diagonal = fb.router_nodes(fb.router_id(3, 2))[0]
        src = fb.router_nodes(fb.router_id(0, 0))[0]
        for dst, hops in ((src, 0), (same_row, 1), (same_col, 1), (diagonal, 2)):
            assert fb.router_hops(fb.node_router(src), fb.node_router(dst)) == hops

    def test_each_row_pair_joined_by_one_link_per_column(self, fb):
        links = set()
        for router in range(fb.num_routers):
            x, y = fb.router_coords(router)
            for port in fb.column_ports:
                peer = fb.neighbor(router, port)[0]
                _, py = fb.router_coords(peer)
                links.add((x, y, py))
        # cols columns x rows*(rows-1) ordered row pairs.
        assert len(links) == 4 * 3 * 2


class TestFullMesh:
    def test_sizes_and_port_layout(self, mesh):
        assert mesh.num_routers == 6
        assert mesh.num_nodes == 12
        assert mesh.router_radix == 2 + 5
        assert not mesh.path_model.has_global_ports
        assert all(
            mesh.port_kind(p) is PortKind.LOCAL for p in mesh.mesh_ports
        )
        assert len(list(mesh.global_ports)) == 0

    def test_every_router_directly_linked(self, mesh):
        for a in range(mesh.num_routers):
            peers = {mesh.neighbor(a, p)[0] for p in mesh.mesh_ports}
            assert peers == set(range(mesh.num_routers)) - {a}

    def test_every_router_is_its_own_region(self, mesh):
        assert mesh.num_regions == mesh.num_routers
        assert mesh.routers_per_region == 1
        for r in range(mesh.num_routers):
            assert mesh.router_region(r) == r
            assert mesh.router_position(r) == 0

    def test_minimal_paths_are_single_hop(self, mesh):
        for src in range(mesh.num_nodes):
            for dst in range(mesh.num_nodes):
                expected = (
                    0 if mesh.node_router(src) == mesh.node_router(dst) else 1
                )
                assert mesh.router_hops(mesh.node_router(src), mesh.node_router(dst)) == expected
