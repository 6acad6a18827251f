"""Shared fixtures for the test suite.

All simulation-based tests use the ``tiny`` parameter preset (a 24-node
Dragonfly with short link latencies) so that individual tests run in well
under a second; the integration tests that check the paper's qualitative
claims use the ``small`` preset with short measurement windows.

The registry-driven fixtures (``every_topology`` / ``every_routing`` /
``every_tiny_topology``) are the single source of truth for "run this over
everything registered": test files must parametrize through them instead of
hand-copying the registry lists, so a newly registered topology or routing
mechanism is picked up by the whole suite automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.parameters import DragonflyConfig, SimulationParameters
from repro.routing import available_routings
from repro.topology.base import Topology
from repro.topology.dragonfly import DragonflyTopology
from repro.topology.registry import (
    available_topologies,
    create_topology,
    topology_preset,
)


def pytest_collection_modifyitems(config, items):
    """``soa_core`` tests read the SoA engine's state (``engine._st``, the
    core's methods): where the compiled core cannot be built, ``backend="soa"``
    runs the ``object`` engine and they have nothing to look at."""
    needing = [item for item in items if item.get_closest_marker("soa_core")]
    if not needing:
        return
    from repro.simulation.soa import CoreUnavailable, load_core

    try:
        load_core()
    except CoreUnavailable as exc:
        reason = f"the compiled soa core is unavailable: {str(exc).splitlines()[0]}"
        for item in needing:
            item.add_marker(pytest.mark.skip(reason=reason))


@pytest.fixture
def tiny_params() -> SimulationParameters:
    return SimulationParameters.tiny()


@pytest.fixture
def small_params() -> SimulationParameters:
    return SimulationParameters.small()


@pytest.fixture
def tiny_topology(tiny_params) -> DragonflyTopology:
    return DragonflyTopology(tiny_params.topology)


@pytest.fixture
def small_topology(small_params) -> DragonflyTopology:
    return DragonflyTopology(small_params.topology)


@pytest.fixture
def paper_config() -> DragonflyConfig:
    return DragonflyConfig.paper()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _independent_hops(topology: Topology, src_router: int, dst_router: int) -> int:
    """Hops of the minimal path between two routers, from the wiring alone:
    on the Dragonfly the local hop to the owner of the link between the two
    groups, the link and the local hop from where it lands, each where
    needed; elsewhere the breadth-first distance over ``neighbor``."""
    if src_router == dst_router:
        return 0
    if isinstance(topology, DragonflyTopology):
        group, dst_group = topology.router_region(src_router), topology.router_region(dst_router)
        if group == dst_group:
            return 1
        gateway, port = topology.global_link_endpoint(group, dst_group)
        landing = topology.neighbor(gateway, port)[0]
        return 1 + (src_router != gateway) + (landing != dst_router)
    dist = {src_router: 0}
    frontier = [src_router]
    while dst_router not in dist:
        assert frontier, f"no link path joins router {src_router} to router {dst_router}"
        reached = []
        for router in frontier:
            for port in range(topology.nodes_per_router, topology.router_radix):
                nbr = topology.neighbor(router, port)
                if nbr is not None and nbr[0] not in dist:
                    dist[nbr[0]] = dist[router] + 1
                    reached.append(nbr[0])
        frontier = reached
    return dist[dst_router]


@pytest.fixture(scope="session")
def independent_hops():
    """``hops(topology, src_router, dst_router)``: an oracle for
    ``router_hops`` that never reads the route table."""
    return _independent_hops


# ---------------------------------------------------------- registry fixtures
@pytest.fixture(params=available_topologies())
def every_topology(request) -> str:
    """Registry name of each registered topology (parametrized)."""
    return request.param


@pytest.fixture(params=available_routings())
def every_routing(request) -> str:
    """Registry name of each registered routing mechanism (parametrized)."""
    return request.param


@pytest.fixture
def every_tiny_topology(every_topology) -> Topology:
    """Each registered topology instantiated on its ``tiny`` preset."""
    return create_topology(topology_preset(every_topology, "tiny"))


@pytest.fixture
def one_failed_one_degraded():
    """A function of a topology's registry name: the ``FaultModel`` that fails
    the first router-to-router link of its ``tiny`` preset and degrades the
    last (half bandwidth, three times the latency)."""
    from repro.topology.faults import DegradedLink, FaultModel

    def _model(topology_name: str) -> FaultModel:
        topology = create_topology(topology_preset(topology_name, "tiny"))
        links = [
            (rid, port)
            for rid in range(topology.num_routers)
            for port in range(topology.router_radix)
            if topology.neighbor(rid, port) is not None
        ]
        degraded = DegradedLink(bandwidth_factor=2, latency_factor=3)
        return FaultModel(
            failed_links=(links[0],), degraded_links={links[-1]: degraded}
        )

    return _model


# ------------------------------------------------------- backend-aware helpers
@pytest.fixture
def wedge_ejection_ports():
    """Block every ejection port forever — a guaranteed total stall.

    Returns a function of a built ``Simulator``.  The wedge goes through
    whichever state the engine backend actually reads: the SoA engine
    steps its flat arrays and has no object routers (reading
    ``network.routers`` there builds a graph nobody steps), so mutating
    object routers would be a silent no-op.  It books
    its links at grant time, so there the wedge is the booked horizon
    (``link_busy`` is only the record of the packet on the wire).
    """
    from repro.topology.base import PortKind

    def _wedge(sim):
        engine = sim.engine
        kinds = sim.network.topology.port_kinds
        ejection = [p for p, kind in enumerate(kinds) if kind is PortKind.INJECTION]
        if hasattr(engine, "_st"):
            st = engine._st
            for rid in range(st.R):
                for port in ejection:
                    st.link_booked[rid * st.P + port] = 10**9
            return
        for router in sim.network.routers:
            for port in ejection:
                router.output_ports[port].link_busy_until = 10**9

    return _wedge
