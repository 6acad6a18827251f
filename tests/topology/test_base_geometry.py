"""``Topology`` writes the geometry once; a topology writes its wiring.

The sizes, the port layout, the node map and the region ranges are the base
class's on every topology, so the SoA core answers them through one stock
function or property per name.  A registered topology that defined one of
them again would be called by name on every hop; a new topology needs no
more than its wiring and the base initialiser.
"""

import pytest

from repro.topology.base import PathModel, PortKind, Topology
from repro.topology.registry import available_topologies, create_topology, topology_preset

#: What only ``Topology`` defines.
BASE_OWNED = (
    "num_routers", "num_nodes", "router_radix", "nodes_per_router", "num_regions",
    "routers_per_region", "path_model", "port_kind", "injection_ports", "router_nodes",
    "router_position", "node_router", "minimal_output_port", "region_node_range",
)


@pytest.mark.parametrize("name", available_topologies())
def test_no_registered_topology_defines_what_the_base_owns(name):
    cls = type(create_topology(topology_preset(name)))
    assert all(member in vars(Topology) for member in BASE_OWNED)
    assert [member for member in BASE_OWNED if member in vars(cls)] == []


class ToyRing(Topology):
    """A bidirectional ring of ``routers`` routers in two regions, with
    ``p`` nodes on every router or, with ``sparse``, on the even ones only.

    Port ``p`` leads to the next router, ``p + 1`` to the previous one."""

    def __init__(self, routers=8, p=2, sparse=False):
        self.sparse = sparse
        self.port_kinds = (PortKind.INJECTION,) * p + (PortKind.LOCAL,) * 2
        node_routers = None
        if sparse:
            node_routers = [2 * (node // p) for node in range(routers // 2 * p)]
        super().__init__(
            routers, p, p + 2, 2,
            PathModel.from_minimal_paths(
                "toy_ring", tuple(("local",) * hops for hops in range(1, routers // 2 + 1))
            ),
            node_routers,
        )

    def neighbor(self, router, port):
        if port == self._p:
            return (router + 1) % self._num_routers, self._p + 1
        if port == self._p + 1:
            return (router - 1) % self._num_routers, self._p
        return None

    def _distance(self, router, dst_router):
        """Hops the shorter way round, and whether that way is forwards."""
        forward = (dst_router - router) % self._num_routers
        backward = self._num_routers - forward
        return min(forward, backward), forward <= backward

    def _route_port(self, router, dst_router):
        return self._p if self._distance(router, dst_router)[1] else self._p + 1


@pytest.fixture(params=[False, True], ids=["dense", "sparse"])
def toy(request):
    return ToyRing(sparse=request.param)


def _brute_router(toy, node):
    """The router the toy puts ``node`` on, from its own construction."""
    return (2 if toy.sparse else 1) * (node // toy.nodes_per_router)


def test_a_topology_of_wiring_and_the_initialiser_validates(toy):
    toy.validate()
    assert toy.num_nodes == (8 if toy.sparse else 16)
    assert toy.routers_per_region == 4
    assert list(toy.injection_ports) == [0, 1]
    for router in range(toy.num_routers):
        for node in range(toy.num_nodes):
            port = toy.minimal_output_port(router, node)
            if router == _brute_router(toy, node):
                assert port == node % toy.nodes_per_router
            else:
                assert port == toy._route_port(router, _brute_router(toy, node))


def test_the_node_map_and_the_regions_agree_with_a_brute_force(toy):
    nodes = range(toy.num_nodes)
    for node in nodes:
        assert toy.node_router(node) == _brute_router(toy, node)
    for router in range(toy.num_routers):
        assert toy.router_nodes(router) == [n for n in nodes if _brute_router(toy, n) == router]
    for region in range(toy.num_regions):
        members = [
            n for n in nodes if _brute_router(toy, n) // toy.routers_per_region == region
        ]
        assert toy.region_node_range(region) == (members[0], members[-1] + 1)
        assert members == list(range(*toy.region_node_range(region)))


def test_router_hops_of_a_topology_of_wiring_is_its_ring_distance(toy):
    for router in range(toy.num_routers):
        for dst_router in range(toy.num_routers):
            hops = toy._distance(router, dst_router)[0]
            assert toy.router_hops(router, dst_router) == hops
