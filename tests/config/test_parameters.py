"""Tests for the Table I parameter sets and their validation."""

import dataclasses

import numpy as np
import pytest

from repro.config.parameters import (
    PAPER_PARAMETERS,
    SMALL_PARAMETERS,
    TINY_PARAMETERS,
    DragonflyConfig,
    SimulationParameters,
    validate_parameters,
)
from repro.routing import create_routing
from repro.topology.base import PortKind
from repro.topology.dragonfly import DragonflyTopology


class TestDragonflyConfig:
    def test_paper_preset_matches_table1(self):
        cfg = DragonflyConfig.paper()
        assert (cfg.p, cfg.a, cfg.h) == (8, 16, 8)
        assert cfg.num_groups == 129
        assert cfg.num_routers == 129 * 16
        assert cfg.num_nodes == 16_512
        assert cfg.router_radix == 31  # 8 injection + 15 local + 8 global
        assert cfg.global_links_per_group == 128

    def test_small_preset_is_balanced(self):
        cfg = DragonflyConfig.small()
        assert cfg.a == 2 * cfg.h  # balanced dragonfly proportions
        assert cfg.num_groups == cfg.a * cfg.h + 1

    def test_derived_quantities_consistent(self):
        cfg = DragonflyConfig(p=3, a=5, h=2)
        assert cfg.num_groups == 11
        assert cfg.routers_per_group == 5
        assert cfg.local_ports_per_router == 4
        assert cfg.nodes_per_group == 15
        assert cfg.num_nodes == cfg.num_groups * 15
        assert cfg.router_radix == 3 + 4 + 2

    @pytest.mark.parametrize("bad", [dict(p=0, a=2, h=1), dict(p=1, a=0, h=1), dict(p=1, a=2, h=0)])
    def test_rejects_nonpositive_parameters(self, bad):
        with pytest.raises(ValueError):
            DragonflyConfig(**bad)

    def test_rejects_unknown_arrangement(self):
        with pytest.raises(ValueError):
            DragonflyConfig(p=1, a=2, h=1, global_arrangement="ring")


class TestSimulationParameters:
    def test_paper_defaults_match_table1(self):
        p = PAPER_PARAMETERS
        assert p.router_latency == 5
        assert p.internal_speedup == 2
        assert p.local_link_latency == 10
        assert p.global_link_latency == 100
        assert p.packet_size_phits == 8
        assert p.global_port_vcs == 2
        assert p.local_port_vcs == 3
        assert p.injection_vcs == 3
        assert p.local_port_vcs_oblivious == 4
        assert p.output_buffer_phits == 32
        assert p.local_input_buffer_phits == 32
        assert p.global_input_buffer_phits == 256
        assert p.base_contention_threshold == 6
        assert p.hybrid_contention_threshold == 7
        assert p.ectn_combined_threshold == 10
        assert p.ectn_update_period == 100

    def test_presets_validate(self):
        for preset in (PAPER_PARAMETERS, SMALL_PARAMETERS, TINY_PARAMETERS,
                       SimulationParameters.transient()):
            validate_parameters(preset)  # should not raise

    def test_routing_vc_budget(self):
        """The budget the routers use (``RoutingAlgorithm.num_vcs``) on the
        Table I parameters."""
        p = PAPER_PARAMETERS
        topology = DragonflyTopology(p.topology)
        minimal = create_routing("MIN", topology, p, np.random.default_rng(0))
        valiant = create_routing("VAL", topology, p, np.random.default_rng(0))
        for routing in (minimal, valiant):
            assert routing.num_vcs(PortKind.INJECTION) == 3
            assert routing.num_vcs(PortKind.GLOBAL) == 2
        assert minimal.num_vcs(PortKind.LOCAL) == 3
        assert valiant.num_vcs(PortKind.LOCAL) == 4

    def test_input_buffer_phits_by_kind(self):
        p = PAPER_PARAMETERS
        assert p.input_buffer_phits("global") == 256
        assert p.input_buffer_phits("local") == 32
        assert p.input_buffer_phits("injection") == 32

    def test_with_buffers_returns_modified_copy(self):
        p = SMALL_PARAMETERS
        q = p.with_buffers(local=128, global_=512)
        assert q.local_input_buffer_phits == 128
        assert q.global_input_buffer_phits == 512
        assert p.local_input_buffer_phits != 128  # original untouched

    def test_with_threshold_returns_modified_copy(self):
        q = SMALL_PARAMETERS.with_threshold(9)
        assert q.base_contention_threshold == 9
        assert SMALL_PARAMETERS.base_contention_threshold != 9

    def test_with_topology(self):
        cfg = DragonflyConfig(p=1, a=2, h=1)
        q = SMALL_PARAMETERS.with_topology(cfg)
        assert q.topology is cfg

    def test_as_dict_contains_key_parameters(self):
        d = PAPER_PARAMETERS.as_dict()
        assert d["nodes"] == 16_512
        assert d["router_radix"] == 31
        assert d["packet_size_phits"] == 8
        assert d["base_contention_threshold"] == 6

    def test_as_dict_reports_every_field(self):
        d = PAPER_PARAMETERS.as_dict()
        for f in dataclasses.fields(SimulationParameters):
            if f.name != "topology":
                assert d[f.name] == getattr(PAPER_PARAMETERS, f.name), f.name

    def test_buffer_must_hold_a_packet(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY_PARAMETERS, output_buffer_phits=1)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY_PARAMETERS, olm_congestion_threshold=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(TINY_PARAMETERS, ectn_update_period=0)

    @pytest.mark.parametrize(
        "name",
        [
            "base_contention_threshold",
            "hybrid_contention_threshold",
            "ectn_local_contention_threshold",
            "ectn_combined_threshold",
        ],
    )
    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_contention_thresholds_below_one(self, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(TINY_PARAMETERS, **{name: value})

    def test_rejects_fewer_oblivious_vcs_than_adaptive(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY_PARAMETERS, local_port_vcs_oblivious=1)

    def test_rejects_zero_link_latency(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY_PARAMETERS, local_link_latency=0)
