"""Fat-tree structure: wiring, ancestor tables, and the up/down contract.

The registry-driven invariant suite already proves the generic topology
contract on the fat tree; this file pins the properties specific to the
k-ary n-tree — the digit-rewrite wiring, ancestor coverage, destination
funneling, the equal-cost-uplink claim the adaptive multipath policy rests
on, the port-indexed up/down VC table, and the unconnected boundary ports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.parameters import FatTreeConfig
from repro.routing.misrouting import compute_uplink_candidates
from repro.topology.base import PortKind
from repro.topology.fat_tree import FatTreeTopology


def build(p=2, k=2, levels=3) -> FatTreeTopology:
    return FatTreeTopology(FatTreeConfig(p=p, k=k, levels=levels))


CONFIGS = [dict(p=2, k=2, levels=3), dict(p=4, k=4, levels=2), dict(p=1, k=4, levels=3)]


@pytest.fixture(params=CONFIGS, ids=lambda c: f"k{c['k']}l{c['levels']}")
def topo(request) -> FatTreeTopology:
    return build(**request.param)


def _walk_hops(topo, router, dst):
    """Minimal-walk hop count from ``router`` to node ``dst``."""
    r = router
    hops = 0
    while r != topo.node_router(dst):
        r = topo.neighbor(r, topo.minimal_output_port(r, dst))[0]
        hops += 1
    return hops


class TestConfigValidation:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError, match="p >= 1"):
            FatTreeConfig(p=0, k=2, levels=2)
        with pytest.raises(ValueError, match="k >= 2"):
            FatTreeConfig(p=2, k=1, levels=2)
        with pytest.raises(ValueError, match="levels"):
            FatTreeConfig(p=2, k=2, levels=1)

    def test_presets_describe_their_size(self):
        tiny = FatTreeConfig.tiny()
        assert (tiny.num_routers, tiny.num_nodes) == (12, 8)
        small = FatTreeConfig.small()
        assert (small.num_routers, small.num_nodes) == (8, 16)


class TestStructure:
    def test_counts_follow_the_k_ary_n_tree_formulas(self, topo):
        cfg = topo.config
        m = cfg.k ** (cfg.levels - 1)
        assert topo.num_routers == cfg.levels * m
        assert topo.num_nodes == m * cfg.p
        assert topo.router_radix == cfg.p + 2 * cfg.k
        per_level = [0] * cfg.levels
        for rid in range(topo.num_routers):
            per_level[topo._rid_level[rid]] += 1
        assert per_level == [m] * cfg.levels

    def test_up_port_rewrites_exactly_the_level_digit(self, topo):
        """Up port j of <l, w> reaches <l+1, w[l := j]> — the defining
        wiring of the k-ary n-tree."""
        k = topo.config.k
        for rid in range(topo.num_routers):
            level = topo._rid_level[rid]
            if level == topo.config.levels - 1:
                continue
            w = topo._rid_label[rid]
            for j in range(k):
                parent, back = topo.neighbor(rid, min(topo.uplink_ports) + j)
                assert topo._rid_level[parent] == level + 1
                pw = topo._rid_label[parent]
                assert (pw // k**level) % k == j
                # Every other digit is preserved.
                assert pw - ((pw // k**level) % k) * k**level == w - (
                    (w // k**level) % k
                ) * k**level
                assert back == min(topo.downlink_ports) + (w // k**level) % k

    def test_ancestors_cover_contiguous_leaf_blocks(self, topo):
        """<l, w> reaches (descending only) exactly the k**l leaves sharing
        its digits at positions >= l."""
        k = topo.config.k
        for rid in range(topo.num_routers):
            level = topo._rid_level[rid]
            w = topo._rid_label[rid]
            reachable = {w} if level == 0 else set()
            frontier = [rid] if level > 0 else []
            while frontier:
                nxt = []
                for r in frontier:
                    for port in topo.downlink_ports:
                        child = topo.neighbor(r, port)
                        if child is None:
                            continue
                        if topo._rid_level[child[0]] == 0:
                            reachable.add(topo._rid_label[child[0]])
                        else:
                            nxt.append(child[0])
                frontier = nxt
            block = k**level
            assert reachable == set(
                range((w // block) * block, (w // block) * block + block)
            )

    def test_boundary_ports_are_unconnected(self, topo):
        top = topo.config.levels - 1
        for rid in range(topo.num_routers):
            level = topo._rid_level[rid]
            for port in topo.downlink_ports:
                assert topo.port_connected(rid, port) == (level > 0)
                if level == 0:
                    assert topo.neighbor(rid, port) is None
            for port in topo.uplink_ports:
                assert topo.port_connected(rid, port) == (level < top)
                if level == top:
                    assert topo.neighbor(rid, port) is None

    def test_regions_are_msd_subtrees(self, topo):
        k = topo.config.k
        B = topo.config.switches_per_level // k
        assert topo.num_regions == k
        for rid in range(topo.num_routers):
            assert topo.router_region(rid) == topo._rid_label[rid] // B


class TestMinimalRouting:
    def test_path_length_is_twice_the_turn_height(self, topo):
        k = topo.config.k
        p = topo.config.p
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                w1, w2 = src // p, dst // p
                h = 0
                while w1 != w2:
                    w1 //= k
                    w2 //= k
                    h += 1
                assert topo.router_hops(topo.node_router(src), topo.node_router(dst)) == 2 * h
                assert _walk_hops(topo, topo.node_router(src), dst) == 2 * h

    def test_minimal_routing_is_destination_funneled(self, topo):
        """All traffic towards one leaf funnels through the same uplink of
        any given non-ancestor switch — the hotspot the adaptive multipath
        spreads."""
        for rid in range(topo.num_routers):
            for dst_leaf in range(topo.config.switches_per_level):
                ports = {
                    topo.minimal_output_port(rid, dst_leaf * topo.config.p + i)
                    for i in range(topo.config.p)
                }
                if topo.node_router(dst_leaf * topo.config.p) == rid:
                    assert ports == set(range(topo.config.p))
                else:
                    assert len(ports) == 1


class TestUplinkMultipath:
    def test_every_sibling_uplink_is_equal_cost(self, topo):
        """Whenever the minimal port is an uplink, diverting through any
        other uplink reaches the destination in the same number of hops —
        the claim compute_uplink_candidates rests on."""
        checked = 0
        for rid in range(topo.num_routers):
            for dst in range(topo.num_nodes):
                if topo.node_router(dst) == rid:
                    continue
                minimal_port = topo.minimal_output_port(rid, dst)
                candidates = compute_uplink_candidates(topo, minimal_port)
                if minimal_port not in topo.uplink_ports:
                    assert candidates == []
                    continue
                assert len(candidates) == topo.config.k - 1
                baseline = 1 + _walk_hops(
                    topo, topo.neighbor(rid, minimal_port)[0], dst
                )
                for cand in candidates:
                    assert cand.kind is PortKind.LOCAL
                    diverted = 1 + _walk_hops(
                        topo, topo.neighbor(rid, cand.port)[0], dst
                    )
                    assert diverted == baseline, (rid, dst, cand.port)
                    checked += 1
        assert checked > 0

    def test_updown_vcs_are_a_pure_function_of_the_port(self, topo):
        vcs = topo.updown_port_vcs
        assert len(vcs) == topo.router_radix
        for port in topo.injection_ports:
            assert vcs[port] == 0
        for port in topo.uplink_ports:
            assert vcs[port] == 0
        for port in topo.downlink_ports:
            assert vcs[port] == 1

    def test_path_model_declares_the_multipath_capability(self, topo):
        model = topo.path_model
        # The one in-transit flag, and the schedule that picks the uplink
        # multipath among the policies.
        assert model.supports_in_transit_adaptive
        assert model.vc_schedule == "up_down"
        assert model.updown_link_levels == topo.config.levels - 1
        assert not model.has_global_ports
        assert model.updown_adaptive_shapes == model.updown_minimal_shapes


class TestValiant:
    def test_intermediate_is_a_uniform_root(self, topo):
        rng = np.random.default_rng(9)
        top = topo.config.levels - 1
        seen = set()
        for _ in range(200):
            intermediate = topo.valiant_intermediate_router(0, rng)
            assert topo._rid_level[intermediate] == top
            seen.add(intermediate)
        assert len(seen) == topo.config.switches_per_level

    def test_root_tables_descend_only(self, topo):
        """From a root every router-path is pure descent, so both Valiant
        legs keep the up-then-down shape."""
        roots = [
            rid
            for rid in range(topo.num_routers)
            if topo._rid_level[rid] == topo.config.levels - 1
        ]
        for leaf in range(topo.config.switches_per_level):
            target = topo.node_router(leaf * topo.nodes_per_router)
            for root in roots:
                path = topo.minimal_router_path(root, target)
                levels = [topo._rid_level[r] for r in path]
                assert levels == list(range(topo.config.levels - 1, -1, -1))
