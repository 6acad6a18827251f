"""Tests for the synthetic traffic patterns."""

import numpy as np
import pytest

from repro.traffic import (
    AdversarialTraffic,
    MixedTraffic,
    TransientTraffic,
    UniformTraffic,
    create_pattern,
)


class TestUniformTraffic:
    def test_destinations_valid_and_never_self(self, tiny_topology, rng):
        pattern = UniformTraffic(tiny_topology)
        for src in range(tiny_topology.num_nodes):
            for _ in range(5):
                dst = pattern.destination(src, 0, rng)
                assert 0 <= dst < tiny_topology.num_nodes
                assert dst != src

    def test_destinations_cover_many_groups(self, tiny_topology, rng):
        pattern = UniformTraffic(tiny_topology)
        groups = {tiny_topology.node_region(pattern.destination(0, 0, rng)) for _ in range(200)}
        assert len(groups) >= tiny_topology.num_regions - 1


class TestAdversarialTraffic:
    def test_adv1_targets_next_group(self, tiny_topology, rng):
        pattern = AdversarialTraffic(tiny_topology, offset=1)
        for src in range(tiny_topology.num_nodes):
            dst = pattern.destination(src, 0, rng)
            expected = (tiny_topology.node_region(src) + 1) % tiny_topology.num_regions
            assert tiny_topology.node_region(dst) == expected

    def test_adv_offset_wraps_around(self, tiny_topology, rng):
        offset = tiny_topology.num_regions + 1  # equivalent to +1 after wrap
        pattern = AdversarialTraffic(tiny_topology, offset=offset)
        dst = pattern.destination(0, 0, rng)
        assert tiny_topology.node_region(dst) == 1 % tiny_topology.num_regions

    def test_rejects_degenerate_offset(self, tiny_topology):
        with pytest.raises(ValueError):
            AdversarialTraffic(tiny_topology, offset=tiny_topology.num_regions)

    def test_name_reflects_offset(self, tiny_topology):
        assert AdversarialTraffic(tiny_topology, offset=3).name == "ADV+3"


class TestMixedTraffic:
    def test_pure_fraction_matches_component(self, tiny_topology, rng):
        adv = AdversarialTraffic(tiny_topology, offset=1)
        mixed = MixedTraffic(tiny_topology, [(adv, 1.0), (UniformTraffic(tiny_topology), 0.0)])
        for src in range(0, tiny_topology.num_nodes, 3):
            dst = mixed.destination(src, 0, rng)
            assert tiny_topology.node_region(dst) == (tiny_topology.node_region(src) + 1) % tiny_topology.num_regions

    def test_blend_produces_both_components(self, tiny_topology, rng):
        adv = AdversarialTraffic(tiny_topology, offset=1)
        uni = UniformTraffic(tiny_topology)
        mixed = MixedTraffic(tiny_topology, [(adv, 0.5), (uni, 0.5)])
        groups = {tiny_topology.node_region(mixed.destination(0, 0, rng)) for _ in range(300)}
        assert len(groups) > 1  # not everything to group +1

    def test_rejects_invalid_weights(self, tiny_topology):
        uni = UniformTraffic(tiny_topology)
        with pytest.raises(ValueError):
            MixedTraffic(tiny_topology, [])
        with pytest.raises(ValueError):
            MixedTraffic(tiny_topology, [(uni, -1.0)])
        with pytest.raises(ValueError):
            MixedTraffic(tiny_topology, [(uni, 0.0)])


class TestTransientTraffic:
    def test_switches_pattern_at_cycle(self, tiny_topology, rng):
        before = AdversarialTraffic(tiny_topology, offset=1)
        after = AdversarialTraffic(tiny_topology, offset=2)
        transient = TransientTraffic(tiny_topology, before, after, switch_cycle=100)
        dst_before = transient.destination(0, 99, rng)
        dst_after = transient.destination(0, 100, rng)
        assert tiny_topology.node_region(dst_before) == 1
        assert tiny_topology.node_region(dst_after) == 2
        assert transient.active_pattern(99) is before
        assert transient.active_pattern(100) is after


class TestCreatePattern:
    def test_create_by_name(self, tiny_topology):
        assert create_pattern("UN", tiny_topology).name == "UN"
        assert create_pattern("ADV+1", tiny_topology).name == "ADV+1"

    def test_adv_h_uses_topology_h(self, tiny_topology):
        pattern = create_pattern("ADV+h", tiny_topology)
        assert pattern.offset == tiny_topology.config.h

    def test_unknown_pattern_rejected(self, tiny_topology):
        with pytest.raises(ValueError):
            create_pattern("tornado", tiny_topology)
