"""Cross-topology routing: UGAL, topology-agnostic VAL, capability gates."""

import pytest

from repro.config.parameters import (
    FatTreeConfig,
    FlattenedButterflyConfig,
    FullMeshConfig,
    SimulationParameters,
    TorusConfig,
)
from repro.network.packet import Packet
from repro.routing import UnsupportedTopologyError, available_routings
from repro.simulation.simulator import Simulator
from repro.topology.base import PortKind
from repro.topology.registry import topology_preset


def fb_params():
    return SimulationParameters.tiny(FlattenedButterflyConfig.tiny())


def mesh_params():
    return SimulationParameters.tiny(FullMeshConfig.tiny())


def torus_params():
    return SimulationParameters.tiny(TorusConfig.tiny())


def ft_params():
    return SimulationParameters.tiny(FatTreeConfig.tiny())


def make_packet(src, dst, size=2):
    return Packet(pid=0, src=src, dst=dst, size_phits=size, creation_cycle=0)


class TestValiantOnNewTopologies:
    @pytest.mark.parametrize("params_factory", [fb_params, mesh_params, torus_params])
    def test_intermediate_router_never_in_source_region(self, params_factory):
        sim = Simulator(params_factory(), "VAL", "UN", offered_load=0.0, seed=7)
        topo = sim.topology
        for source_router in range(topo.num_routers):
            src_region = topo.router_region(source_router)
            for _ in range(20):
                intermediate = sim.routing.random_intermediate_router(source_router)
                assert 0 <= intermediate < topo.num_routers
                assert topo.router_region(intermediate) != src_region

    def test_fat_tree_intermediate_is_always_a_root(self):
        """The up/down schedule only covers up-then-down paths, so the fat
        tree constrains the Valiant turn point to a top-level switch."""
        sim = Simulator(ft_params(), "VAL", "UN", offered_load=0.0, seed=7)
        topo = sim.topology
        top = topo.config.levels - 1
        for source_router in range(topo.num_routers):
            for _ in range(20):
                intermediate = sim.routing.random_intermediate_router(source_router)
                assert topo._rid_level[intermediate] == top

    @pytest.mark.parametrize(
        "params_factory, pattern",
        [
            (fb_params, "ADV+1"),
            (mesh_params, "ADV+1"),
            (torus_params, "ADV+1"),
            (ft_params, "ADV+1"),
        ],
    )
    def test_valiant_delivers_under_adversarial_traffic(self, params_factory, pattern):
        sim = Simulator(params_factory(), "VAL", pattern, offered_load=0.15, seed=2)
        result = sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
        assert result.delivered_packets > 0
        assert result.accepted_load == pytest.approx(0.15, abs=0.05)

    def test_full_mesh_valiant_detour_counts_as_local_misroute(self):
        sim = Simulator(mesh_params(), "VAL", "ADV+1", offered_load=0.2, seed=4)
        result = sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
        assert result.global_misroute_fraction == 0.0
        assert result.local_misroute_fraction > 0.0


class TestUGAL:
    def test_stays_minimal_on_empty_network(self):
        """With empty queues the UGAL comparison never prefers Valiant."""
        sim = Simulator(fb_params(), "UGAL", "UN", offered_load=0.0, seed=7)
        topo = sim.topology
        router = sim.network.routers[0]
        dst = topo.num_nodes - 1
        packet = make_packet(0, dst)
        sim.routing.on_inject(router, packet, cycle=0)
        assert packet.valiant_router is None

    def test_intra_region_traffic_never_diverted(self):
        sim = Simulator(fb_params(), "UGAL", "UN", offered_load=0.0, seed=7)
        topo = sim.topology
        router = sim.network.routers[0]
        # A destination on another router of the same region (row).
        same_region_router = topo.region_routers(0)[1]
        packet = make_packet(0, topo.router_nodes(same_region_router)[0])
        sim.routing.on_inject(router, packet, cycle=0)
        assert packet.valiant_router is None

    def test_delivers_on_every_topology(self, every_topology):
        params = SimulationParameters.tiny(topology_preset(every_topology))
        sim = Simulator(params, "UGAL", "ADV+1", offered_load=0.2, seed=3)
        result = sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
        assert result.delivered_packets > 0
        assert result.accepted_load == pytest.approx(0.2, abs=0.06)

    def test_uses_oblivious_vc_budget(self):
        params = fb_params()
        sim = Simulator(params, "UGAL", "UN", offered_load=0.0, seed=1)
        assert sim.routing.needs_extra_local_vc
        assert sim.routing.num_vcs(PortKind.LOCAL) == params.local_port_vcs_oblivious


class TestCapabilityGates:
    @pytest.mark.parametrize("routing", ["OLM", "Base", "Hybrid", "ECtN", "PB"])
    def test_mesh_rejects_every_gated_mechanism(self, routing):
        """The full mesh has neither in-transit policy nor group ECN."""
        params = mesh_params()
        with pytest.raises(UnsupportedTopologyError) as excinfo:
            Simulator(params, routing, "UN", offered_load=0.1)
        # The error must name the rejected topology and an alternative,
        # not just refuse.
        assert "UGAL" in str(excinfo.value)
        assert params.topology.kind in str(excinfo.value)

    @pytest.mark.parametrize("routing", ["ECtN", "PB"])
    @pytest.mark.parametrize(
        "params_factory", [fb_params, mesh_params, torus_params, ft_params]
    )
    def test_dragonfly_broadcast_mechanisms_fail_loudly(
        self, routing, params_factory
    ):
        """PB/ECtN need the Dragonfly's intra-group ECN / broadcast even on
        topologies where the in-transit adaptive policy itself exists."""
        params = params_factory()
        with pytest.raises(UnsupportedTopologyError) as excinfo:
            Simulator(params, routing, "UN", offered_load=0.1)
        assert "UGAL" in str(excinfo.value)
        assert params.topology.kind in str(excinfo.value)

    @pytest.mark.parametrize("routing", ["OLM", "Base", "Hybrid"])
    @pytest.mark.parametrize("params_factory", [fb_params, torus_params, ft_params])
    def test_in_transit_adaptive_constructs_beyond_dragonfly(
        self, routing, params_factory
    ):
        """The in-transit family runs wherever a path policy is declared:
        MM+L on the flattened butterfly, the ring escape on the torus, the
        uplink multipath on the fat tree."""
        sim = Simulator(params_factory(), routing, "UN", offered_load=0.0)
        assert sim.routing.uses_in_transit_adaptive

    @pytest.mark.parametrize("routing", available_routings())
    def test_every_mechanism_constructs_on_dragonfly(self, routing):
        Simulator(SimulationParameters.tiny(), routing, "UN", offered_load=0.0)

    def test_sibling_uplinks_on_different_up_down_vcs_are_refused(self, monkeypatch):
        """A diverted uplink hop keeps its minimal hop's up/down class (the
        ``soa`` engine stores one misroute VC per captured uplink head), so
        the routing checks once, at construction, that the siblings of every
        uplink share one VC — not per head, where an ``assert`` would vanish
        under ``python -O``."""
        from repro.topology.fat_tree import FatTreeTopology

        stock = FatTreeTopology.updown_port_vcs.fget

        def one_uplink_moved_to_the_down_class(self):
            vcs = list(stock(self))
            vcs[self.uplink_ports[-1]] = 1
            return tuple(vcs)

        params = SimulationParameters.tiny(FatTreeConfig(p=2, k=3, levels=2))
        Simulator(params, "Base", "UN", offered_load=0.0)  # the real table passes
        monkeypatch.setattr(
            FatTreeTopology, "updown_port_vcs", property(one_uplink_moved_to_the_down_class)
        )
        with pytest.raises(ValueError, match="sibling uplinks of port .* up/down VCs"):
            Simulator(params, "Base", "UN", offered_load=0.0)
