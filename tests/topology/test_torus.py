"""Torus topology: structure, dimension-order routing, dateline VC schedule."""

import pytest

from repro.config.parameters import SimulationParameters, TorusConfig
from repro.network.packet import Packet
from repro.routing.deadlock import validate_dateline_shapes, validate_path_model
from repro.topology.base import PortKind
from repro.topology.registry import create_topology, topology_preset
from repro.topology.torus import TorusTopology


def make_torus(p=2, dims=(4, 4)):
    return TorusTopology(TorusConfig(p=p, dims=dims))


def make_packet(src=0, dst=0, leg=0):
    packet = Packet(pid=0, src=src, dst=dst, size_phits=2, creation_cycle=0)
    packet.vc_leg = leg
    return packet


class TestConfig:
    def test_derived_sizes(self):
        cfg = TorusConfig(p=3, dims=(4, 5))
        assert cfg.num_routers == 20
        assert cfg.num_nodes == 60
        assert cfg.router_radix == 3 + 4  # p + 2 ring ports per dimension

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            TorusConfig(p=2, dims=(4,))
        with pytest.raises(ValueError):
            TorusConfig(p=2, dims=(4, 4, 4, 4))
        with pytest.raises(ValueError):
            TorusConfig(p=2, dims=(4, 1))
        with pytest.raises(ValueError):
            TorusConfig(p=0, dims=(4, 4))

    def test_registry_round_trip(self):
        cfg = topology_preset("torus", "tiny")
        assert isinstance(cfg, TorusConfig)
        topo = create_topology(cfg)
        assert isinstance(topo, TorusTopology)


@pytest.mark.parametrize("dims", [(4, 4), (3, 5), (2, 3), (3, 3, 4), (4, 4, 4)])
class TestStructure:
    def test_validate_2d_and_3d(self, dims):
        topo = make_torus(dims=dims)
        topo.validate()

    def test_coords_round_trip(self, dims):
        topo = make_torus(dims=dims)
        for router in range(topo.num_routers):
            coords = topo.router_coords(router)
            assert len(coords) == len(dims)
            assert all(0 <= c < k for c, k in zip(coords, dims))
            assert topo.router_id(coords) == router

    def test_neighbors_differ_in_exactly_one_coordinate(self, dims):
        topo = make_torus(dims=dims)
        for router in range(topo.num_routers):
            coords = topo.router_coords(router)
            for port in topo.ring_ports:
                dim, direction = topo.port_dimension(port)
                peer, _ = topo.neighbor(router, port)
                peer_coords = topo.router_coords(peer)
                for d, (a, b) in enumerate(zip(coords, peer_coords)):
                    if d == dim:
                        assert b == (a + direction) % dims[d]
                    else:
                        assert a == b

    def test_regions_are_last_dimension_slabs(self, dims):
        topo = make_torus(dims=dims)
        assert topo.num_regions == dims[-1]
        for router in range(topo.num_routers):
            assert topo.router_region(router) == topo.router_coords(router)[-1]


class TestMinimalRouting:
    @pytest.mark.parametrize("dims", [(4, 4), (3, 5), (3, 3, 4)])
    def test_dimension_order_and_shortest_way(self, dims):
        """Minimal walks correct dimensions in ascending order, never revisit
        a corrected dimension, and match the ring distance sum."""
        topo = make_torus(dims=dims)
        p = topo.nodes_per_router
        for src_router in range(topo.num_routers):
            for dst in range(0, topo.num_nodes, max(1, p)):
                r = src_router
                dims_visited = []
                hops = 0
                while r != topo.node_router(dst):
                    port = topo.minimal_output_port(r, dst)
                    dim, _ = topo.port_dimension(port)
                    if not dims_visited or dims_visited[-1] != dim:
                        dims_visited.append(dim)
                    r = topo.neighbor(r, port)[0]
                    hops += 1
                assert dims_visited == sorted(dims_visited)
                assert len(set(dims_visited)) == len(dims_visited)
                ring_distances = sum(
                    min((d - s) % k, (s - d) % k)
                    for s, d, k in zip(
                        topo.router_coords(src_router),
                        topo.router_coords(topo.node_router(dst)),
                        dims,
                    )
                )
                assert hops == ring_distances
                assert topo.router_hops(src_router, topo.node_router(dst)) == hops

    def test_per_ring_hops_bounded_by_half(self):
        topo = make_torus(dims=(5, 4))
        assert topo.path_model.max_minimal_hops == 2 + 2
        # Distance 2 on the even ring of length 4 ties; plus direction wins.
        port = topo.minimal_output_port(0, topo.router_nodes(topo.router_id((2, 0)))[0])
        assert topo.port_dimension(port) == (0, +1)

    def test_tornado_offset(self):
        assert make_torus(dims=(4, 4)).hard_adversarial_offset == 2
        assert make_torus(dims=(4, 6)).hard_adversarial_offset == 3
        assert make_torus(dims=(3, 3, 3)).hard_adversarial_offset == 1


class TestDatelineSchedule:
    def test_dateline_links_are_the_wrap_links(self):
        topo = make_torus(dims=(4, 3))
        for router in range(topo.num_routers):
            coords = topo.router_coords(router)
            for port in topo.ring_ports:
                dim, direction = topo.port_dimension(port)
                expected = coords[dim] == (topo.dims[dim] - 1 if direction == +1 else 0)
                _, stride, k, wrap_coord, _ = topo._ring_info[port]
                assert ((router // stride) % k == wrap_coord) == expected

    def test_ring_vc_bumps_at_dateline_and_resets_across_dimensions(self):
        topo = make_torus(dims=(4, 4))
        packet = make_packet()
        plus0 = topo.ring_port(0, +1)
        # Walk dimension 0 from coordinate 2: 2 -> 3 (no wrap), 3 -> 0 (wrap).
        r = topo.router_id((2, 0))
        assert topo.ring_vc(packet, r, plus0) == 0
        topo.commit_ring_hop(packet, r, plus0)
        r = topo.router_id((3, 0))
        assert topo.ring_vc(packet, r, plus0) == 1  # the wrap hop itself bumps
        topo.commit_ring_hop(packet, r, plus0)
        r = topo.router_id((0, 0))
        assert topo.ring_vc(packet, r, plus0) == 1  # and stays bumped
        # Entering dimension 1 starts a fresh traversal: back to class 0.
        plus1 = topo.ring_port(1, +1)
        assert topo.ring_vc(packet, r, plus1) == 0

    def test_second_leg_uses_disjoint_class_block(self):
        topo = make_torus(dims=(4, 4))
        packet = make_packet(leg=1)
        plus0 = topo.ring_port(0, +1)
        r = topo.router_id((3, 0))
        assert topo.ring_vc(packet, r, plus0) == 3  # 2 * leg + crossed
        packet2 = make_packet(leg=1)
        assert topo.ring_vc(packet2, topo.router_id((1, 0)), plus0) == 2

    def test_ejection_hop_does_not_touch_ring_state(self):
        topo = make_torus(dims=(4, 4))
        packet = make_packet()
        plus0 = topo.ring_port(0, +1)
        topo.commit_ring_hop(packet, topo.router_id((3, 0)), plus0)
        assert packet.ring_dim == 0 and packet.ring_crossed
        topo.commit_ring_hop(packet, topo.router_id((0, 0)), 0)  # ejection port
        assert packet.ring_dim == 0 and packet.ring_crossed

    @pytest.mark.parametrize("dims", [(4, 4), (3, 3, 4)])
    def test_minimal_walk_vcs_never_decrease_within_a_dimension(self, dims):
        """Driving the real state machine over every minimal walk yields
        (leg, dim, crossed) classes in lexicographically non-decreasing
        order — the runtime counterpart of the declared shapes."""
        topo = make_torus(dims=dims)
        p = topo.nodes_per_router
        for src_router in range(topo.num_routers):
            for dst in range(0, topo.num_nodes, max(1, p)):
                packet = make_packet(dst=dst)
                r = src_router
                classes = []
                while r != topo.node_router(dst):
                    port = topo.minimal_output_port(r, dst)
                    vc = topo.ring_vc(packet, r, port)
                    dim, _ = topo.port_dimension(port)
                    classes.append((packet.vc_leg, dim, vc % 2))
                    assert vc == 2 * packet.vc_leg + (vc % 2)
                    assert vc <= 1  # minimal traffic stays on leg 0
                    topo.commit_ring_hop(packet, r, port)
                    r = topo.neighbor(r, port)[0]
                assert classes == sorted(classes)

    def test_path_model_declares_dateline_schedule(self):
        model = make_torus(dims=(3, 3, 4)).path_model
        assert model.vc_schedule == "dateline"
        assert not model.has_global_ports
        assert model.dateline_minimal_shapes
        assert model.dateline_valiant_shapes
        # One maximal shape per leg structure, covering every dimension.
        (minimal,) = model.dateline_minimal_shapes
        assert minimal == tuple((0, d, c) for d in range(3) for c in (0, 1))
        (valiant,) = model.dateline_valiant_shapes
        assert valiant[: len(minimal)] == minimal
        assert valiant[len(minimal) :] == tuple(
            (1, d, c) for d in range(3) for c in (0, 1)
        )


class TestDatelineValidator:
    def test_accepts_the_torus_shapes_within_the_oblivious_budget(self):
        params = SimulationParameters.tiny(TorusConfig.tiny())
        validate_path_model(
            make_torus().path_model,
            local_vcs=params.local_port_vcs_oblivious,
            global_vcs=params.global_port_vcs,
            include_valiant=True,
        )

    def test_minimal_only_fits_two_ring_vcs(self):
        validate_path_model(
            make_torus().path_model,
            local_vcs=2,
            global_vcs=1,
            include_valiant=False,
        )

    def test_rejects_valiant_shapes_without_the_extra_vcs(self):
        with pytest.raises(ValueError, match="ring VC"):
            validate_path_model(
                make_torus().path_model,
                local_vcs=3,
                global_vcs=2,
                include_valiant=True,
            )

    def test_rejects_dateline_reset_going_backwards(self):
        # Re-entering an earlier dimension on the same leg is a cycle risk.
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_dateline_shapes(
                [((0, 0, 0), (0, 1, 0), (0, 0, 1))], ring_vcs=4
            )

    def test_rejects_uncrossing_a_dateline(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_dateline_shapes([((0, 0, 1), (0, 0, 0))], ring_vcs=4)

    def test_rejects_malformed_classes(self):
        with pytest.raises(ValueError, match="malformed"):
            validate_dateline_shapes([((0, 0, 2),)], ring_vcs=4)


class TestSimulation:
    @pytest.mark.parametrize("routing", ["MIN", "VAL", "UGAL"])
    def test_delivers_deadlock_free_under_tornado(self, routing):
        from repro.simulation.simulator import Simulator

        params = SimulationParameters.tiny(TorusConfig.tiny())
        sim = Simulator(params, routing, "ADV+h", offered_load=0.15, seed=9)
        result = sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
        assert result.delivered_packets > 0
        assert result.global_misroute_fraction == 0.0  # no global ports

    def test_three_dimensional_torus_simulates(self):
        from repro.simulation.simulator import Simulator

        params = SimulationParameters.tiny(TorusConfig(p=1, dims=(3, 3, 3)))
        sim = Simulator(params, "VAL", "ADV+1", offered_load=0.15, seed=3)
        result = sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
        assert result.delivered_packets > 0
        assert result.accepted_load == pytest.approx(0.15, abs=0.05)
