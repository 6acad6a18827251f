"""The answers of the nonminimal topology queries, pinned.

``port_target_region``, the router-target routes (``minimal_route_to_router``
and ``router_hops``) and ``valiant_intermediate_router`` each have one body
on ``Topology``, reading tables the topology fills from its wiring.  The
literals below are what the per-topology bodies they replaced answered on
the ``tiny`` and ``small`` preset of every registered topology: a digest of
every port region and router-pair entry and the first 32 Valiant
intermediates from router 0.
"""

import hashlib

import numpy as np
import pytest

from repro.topology.base import PortKind
from repro.topology.registry import create_topology, topology_preset

#: ``"name-preset"`` -> (port-region digest, route digest, hop digest,
#: the first 32 Valiant intermediates from router 0 under ``default_rng(7)``).
PINNED = {
    "dragonfly-tiny": (
        "7e109eb3bf49d1e2", "a4b91551aa229f62", "212e4f01bb91a3de",
        [11, 8, 9, 11, 8, 9, 10, 5, 3, 5, 5, 10, 11, 3, 7, 10, 4, 10, 4, 7, 10, 5, 6, 5, 9, 5,
         11, 7, 7, 7, 8, 7],
    ),
    "dragonfly-small": (
        "20959417802a28f8", "f89aff4c1f88dce5", "427a9fe84410b4d5",
        [34, 24, 25, 32, 22, 28, 30, 11, 5, 13, 13, 31, 33, 4, 19, 30, 8, 29, 7, 18, 30, 13, 14,
         12, 27, 12, 35, 18, 19, 20, 22, 21],
    ),
    "flattened_butterfly-tiny": (
        "d9c87d98ea759de9", "3735e7557a9b64e7", "69576b650a4a1c77",
        [8, 6, 7, 8, 6, 7, 8, 4, 3, 4, 4, 8, 8, 3, 5, 7, 3, 7, 3, 5, 7, 4, 5, 4, 7, 4, 8, 5, 5,
         6, 6, 6],
    ),
    "flattened_butterfly-small": (
        "c7f1ada958902f6c", "2cddd9c0216bce66", "1cdb40428bb7994c",
        [15, 11, 12, 14, 10, 13, 14, 6, 4, 7, 7, 14, 14, 4, 9, 13, 5, 13, 5, 9, 13, 7, 8, 7, 12,
         7, 15, 9, 9, 10, 10, 10],
    ),
    "full_mesh-tiny": (
        "236faf6a015e5fae", "3dd1c6ad0f0c73c6", "cc0ffbbb6ae19bd0",
        [5, 4, 4, 5, 3, 4, 5, 2, 1, 2, 2, 5, 5, 1, 3, 5, 1, 4, 1, 3, 5, 2, 2, 2, 4, 2, 5, 3, 3,
         3, 3, 3],
    ),
    "full_mesh-small": (
        "cfbf0dccbb69cb0f", "bcc8724817244ddc", "769b3efc3fe16e07",
        [7, 5, 5, 7, 5, 6, 6, 2, 1, 3, 2, 7, 7, 1, 4, 6, 1, 6, 1, 4, 6, 3, 3, 2, 6, 2, 7, 4, 4,
         4, 5, 4],
    ),
    "torus-tiny": (
        "d687cae91e6b360d", "a7d9581c8fa1c951", "d49274913d4a1c72",
        [15, 11, 12, 14, 10, 13, 14, 6, 4, 7, 7, 14, 14, 4, 9, 13, 5, 13, 5, 9, 13, 7, 8, 7, 12,
         7, 15, 9, 9, 10, 10, 10],
    ),
    "torus-small": (
        "6a2ffc4b707ad364", "c3af1f44458f708a", "d49274913d4a1c72",
        [15, 11, 12, 14, 10, 13, 14, 6, 4, 7, 7, 14, 14, 4, 9, 13, 5, 13, 5, 9, 13, 7, 8, 7, 12,
         7, 15, 9, 9, 10, 10, 10],
    ),
    "fat_tree-tiny": (
        "3301ed1e9fa41b87", "c5e333b613db5d5a", "7ca826754e2f588b",
        [11, 10, 10, 11, 10, 11, 11, 4, 4, 5, 5, 11, 11, 4, 5, 11, 4, 11, 4, 5, 11, 5, 5, 5, 10,
         5, 11, 5, 5, 10, 10, 10],
    ),
    "fat_tree-small": (
        "ebfb41ddabd357d7", "cb25ca8e3635dbb8", "44fadf8124f794c9",
        [7, 5, 5, 7, 5, 7, 7, 1, 1, 3, 3, 7, 7, 1, 3, 7, 1, 7, 1, 3, 7, 3, 3, 3, 5, 3, 7, 3, 3,
         5, 5, 5],
    ),
}


def _digest(values):
    return hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest()[:16]


@pytest.fixture(params=sorted(PINNED))
def case(request):
    name, preset = request.param.rsplit("-", 1)
    return create_topology(topology_preset(name, preset)), PINNED[request.param]


def test_port_target_region_of_every_connected_port(case):
    topology, (regions, _, _, _) = case
    R, P = topology.num_routers, topology.router_radix
    assert _digest(
        topology.port_target_region(r, p)
        if topology.port_kinds[p] is not PortKind.INJECTION and topology.port_connected(r, p)
        else -1
        for r in range(R)
        for p in range(P)
    ) == regions


def test_router_target_routes_and_hops_of_every_router_pair(case):
    topology, (_, routes, hops, _) = case
    R = topology.num_routers
    pairs = [(a, b) for a in range(R) for b in range(R)]
    assert _digest(
        topology.minimal_route_to_router(a, b) if a != b else -1 for a, b in pairs
    ) == routes
    assert _digest(topology.router_hops(a, b) for a, b in pairs) == hops


def test_the_first_valiant_intermediates_from_router_zero(case):
    topology, (_, _, _, intermediates) = case
    rng = np.random.default_rng(7)
    assert [topology.valiant_intermediate_router(0, rng) for _ in range(32)] == intermediates

