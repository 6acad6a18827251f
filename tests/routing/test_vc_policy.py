"""The path-stage VC rule, tested through the functions the routers call.

A built routing's :meth:`~repro.routing.base.RoutingAlgorithm.next_vc` and
:meth:`~repro.routing.base.RoutingAlgorithm.num_vcs` are what every
path-stage decision uses; :func:`repro.routing.deadlock.path_stage_vc` is
their one body, and the construction-time deadlock check ranks the classes
it yields.  The guard at the end keeps the formula written once.
"""

import ast
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.config.parameters import SimulationParameters
from repro.network.packet import Packet
from repro.routing import create_routing
from repro.routing.deadlock import (
    BUFFER_CLASS_ORDER,
    class_rank,
    path_buffer_classes,
    path_stage_vc,
)
from repro.topology.base import PortKind
from repro.topology.dragonfly import DragonflyTopology


def build_routing(name):
    params = SimulationParameters.tiny()
    return create_routing(
        name, DragonflyTopology(params.topology), params, np.random.default_rng(0)
    )


@pytest.fixture
def routing():
    """VAL on the tiny Dragonfly: Table I's nonminimal budget (4 local,
    2 global, 3 injection VCs)."""
    return build_routing("VAL")


def make_packet(global_hops=0, local_in_group=0):
    p = Packet(pid=0, src=0, dst=1, size_phits=4, creation_cycle=0)
    p.global_hops = global_hops
    p.local_hops_in_group = local_in_group
    return p


class TestVCAssignment:
    def test_source_group_local_hops(self, routing):
        assert routing.next_vc(make_packet(0, 0), PortKind.LOCAL) == 0
        assert routing.next_vc(make_packet(0, 1), PortKind.LOCAL) == 1

    def test_intermediate_group_local_hops(self, routing):
        assert routing.next_vc(make_packet(1, 0), PortKind.LOCAL) == 1
        assert routing.next_vc(make_packet(1, 1), PortKind.LOCAL) == 2

    def test_destination_group_after_misroute(self, routing):
        assert routing.next_vc(make_packet(2, 0), PortKind.LOCAL) == 3

    def test_global_hops(self, routing):
        assert routing.next_vc(make_packet(0, 0), PortKind.GLOBAL) == 0
        assert routing.next_vc(make_packet(1, 0), PortKind.GLOBAL) == 1

    def test_injection_always_vc0(self, routing):
        assert routing.next_vc(make_packet(1, 1), PortKind.INJECTION) == 0

    def test_vc_capped_by_available_vcs(self):
        small = build_routing("MIN")  # 3 local VCs
        assert small.num_vcs(PortKind.LOCAL) == 3
        assert small.next_vc(make_packet(2, 1), PortKind.LOCAL) == 2

    def test_next_vc_is_path_stage_vc_over_the_budget(self, routing):
        local_vcs = routing.num_vcs(PortKind.LOCAL)
        global_vcs = routing.num_vcs(PortKind.GLOBAL)
        for g in range(3):
            for l in range(3):
                for kind in PortKind:
                    assert routing.next_vc(make_packet(g, l), kind) == path_stage_vc(
                        g, l, kind, local_vcs, global_vcs
                    )

    def test_minimal_decision_rides_next_vc(self, routing):
        topo = routing.topology
        dst = topo.num_nodes - 1
        for rid in range(topo.num_routers):
            port = topo.minimal_output_port(rid, dst)
            kind = topo.port_kinds[port]
            for g in range(3):
                for l in range(2):
                    packet = make_packet(g, l)
                    packet.dst = dst
                    decision = routing.minimal_decision(
                        SimpleNamespace(router_id=rid), packet
                    )
                    assert decision.output_port == port
                    assert decision.vc == routing.next_vc(packet, kind)

    def test_num_vcs(self, routing):
        assert routing.num_vcs(PortKind.LOCAL) == 4
        assert routing.num_vcs(PortKind.GLOBAL) == 2
        assert routing.num_vcs(PortKind.INJECTION) == 3
        minimal = build_routing("MIN")
        assert minimal.num_vcs(PortKind.LOCAL) == 3
        assert minimal.num_vcs(PortKind.GLOBAL) == 2
        assert minimal.num_vcs(PortKind.INJECTION) == 3

    @pytest.mark.parametrize("name", ["global_port_vcs", "local_port_vcs", "injection_vcs"])
    def test_rejects_zero_vcs(self, name):
        with pytest.raises(ValueError):
            replace(SimulationParameters.tiny(), **{name: 0})


#: Every path shape the routing mechanisms may produce, as hop-kind strings.
ALLOWED_PATHS = [
    # minimal paths
    [],
    ["local"],
    ["global"],
    ["local", "global"],
    ["global", "local"],
    ["local", "global", "local"],
    # minimal with a local misroute at the destination group
    ["local", "global", "local", "local"],
    ["global", "local", "local"],
    # intra-group local misroute
    ["local", "local"],
    # MM+L global misroute (with and without the local proxy hop, with and
    # without local misrouting in the intermediate group)
    ["global", "local", "global", "local"],
    ["local", "global", "local", "global", "local"],
    ["local", "global", "local", "local", "global", "local"],
    ["global", "local", "local", "global", "local"],
    # Valiant through an intermediate router in another group
    ["local", "global", "local", "local", "global", "local"],
]


class TestBufferClassOrdering:
    def test_order_definition(self):
        assert BUFFER_CLASS_ORDER[0] == ("local", 0)
        assert BUFFER_CLASS_ORDER[-1] == ("local", 3)
        assert class_rank("global", 0) < class_rank("local", 1)
        assert class_rank("local", 2) < class_rank("global", 1)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            class_rank("local", 9)

    @pytest.mark.parametrize("path", ALLOWED_PATHS, ids=lambda p: "-".join(p) or "ejection-only")
    def test_allowed_paths_visit_strictly_increasing_classes(self, routing, path):
        """The classes ``next_vc`` gives a packet hop by hop are the ones the
        deadlock check ranks, and they strictly increase."""
        packet = make_packet()
        walked = []
        for hop in path:
            kind = PortKind.GLOBAL if hop == "global" else PortKind.LOCAL
            walked.append((hop, routing.next_vc(packet, kind)))
            packet.record_hop(is_global=hop == "global")
        assert walked == path_buffer_classes(
            path, routing.num_vcs(PortKind.LOCAL), routing.num_vcs(PortKind.GLOBAL)
        )
        ranks = [class_rank(kind, vc) for kind, vc in walked]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks), "buffer classes must be strictly increasing"

    def test_path_buffer_classes_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            path_buffer_classes(["optical"], 4, 2)


# ------------------------------------------------------------------ one formula
def _terms(node):
    """``(sign, term)`` pairs of an unparenthesized ``a + b - c ...`` chain
    (Python parses it left-associatively, so the chain is the left spine)."""
    terms = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        terms.append((1 if isinstance(node.op, ast.Add) else -1, node.right))
        node = node.left
    terms.append((1, node))
    return terms


def _doubled(node):
    """``2 * g`` (either order) with ``g`` a name or an attribute."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for two, g in ((node.left, node.right), (node.right, node.left)):
        if isinstance(two, ast.Constant) and two.value == 2:
            return isinstance(g, (ast.Name, ast.Attribute))
    return False


def _is_path_stage_local_vc(node):
    """``2 * g - 1 + l`` in any term order: a doubled term, a subtracted 1
    and another added term."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    terms = _terms(node)
    return (
        any(sign > 0 and _doubled(t) for sign, t in terms)
        and any(sign < 0 and isinstance(t, ast.Constant) and t.value == 1 for sign, t in terms)
        and any(
            sign > 0 and not isinstance(t, ast.Constant) and not _doubled(t)
            for sign, t in terms
        )
    )


def test_the_path_stage_formula_is_written_once():
    """Only ``repro.routing.deadlock.path_stage_vc`` computes the path-stage
    local VC: a copy elsewhere could drift from the rule the deadlock check
    proves."""
    package = Path(repro.__file__).parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {
            child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)
        }
        for node in ast.walk(tree):
            if not _is_path_stage_local_vc(node):
                continue
            owner = parents.get(node)
            while owner is not None and not isinstance(
                owner, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                owner = parents.get(owner)
            name = owner.name if owner is not None else "<module>"
            sites.append(f"{path.relative_to(package.parent)}:{name}")
    assert sites == ["repro/routing/deadlock.py:path_stage_vc"]
