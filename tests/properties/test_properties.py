"""Property-based tests (hypothesis) for core data structures and invariants."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.parameters import DragonflyConfig, SimulationParameters
from repro.metrics.statistics import aggregate_scalar, average_series
from repro.network.allocator import AllocationRequest, SeparableAllocator
from repro.network.buffer import VCBuffer
from repro.network.packet import Packet
from repro.routing import create_routing
from repro.routing.deadlock import class_rank, path_buffer_classes
from repro.topology.base import PortKind
from repro.topology.dragonfly import DragonflyTopology

# --------------------------------------------------------------------------- topology

dragonfly_configs = st.builds(
    DragonflyConfig,
    p=st.integers(min_value=1, max_value=4),
    a=st.integers(min_value=2, max_value=5),
    h=st.integers(min_value=1, max_value=3),
    global_arrangement=st.sampled_from(["palmtree", "consecutive"]),
)


@given(dragonfly_configs)
@settings(max_examples=25, deadline=None)
def test_dragonfly_structure_invariants(config):
    """Every generated Dragonfly is well-formed: bidirectional links,
    consistent port kinds, one global link per group pair, diameter <= 3."""
    topo = DragonflyTopology(config)
    topo.validate()
    # Exactly one global link per ordered group pair.
    pairs = set()
    for r in range(topo.num_routers):
        for port in topo.global_ports:
            pairs.add((topo.router_region(r), topo.port_target_region(r, port)))
    assert len(pairs) == topo.num_regions * (topo.num_regions - 1)


@given(dragonfly_configs, st.data())
@settings(max_examples=25, deadline=None)
def test_minimal_paths_reach_destination_within_diameter(config, data):
    topo = DragonflyTopology(config)
    src = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    dst = data.draw(st.integers(min_value=0, max_value=topo.num_nodes - 1))
    router = topo.node_router(src)
    dst_router = topo.node_router(dst)
    hops = 0
    while router != dst_router:
        port = topo.minimal_output_port(router, dst)
        assert topo.port_kind(port) is not PortKind.INJECTION
        router = topo.neighbor(router, port)[0]
        hops += 1
        assert hops <= 3
    assert topo.minimal_path_length(src, dst) == hops


# --------------------------------------------------------------------------- buffers


@given(
    capacity=st.integers(min_value=4, max_value=64),
    sizes=st.lists(st.integers(min_value=1, max_value=8), max_size=30),
)
@settings(max_examples=50, deadline=None)
def test_vc_buffer_occupancy_never_exceeds_capacity(capacity, sizes):
    buf = VCBuffer(capacity)
    pushed = 0
    for i, size in enumerate(sizes):
        if buf.can_accept(size):
            buf.push(Packet(pid=i, src=0, dst=1, size_phits=size, creation_cycle=0))
            pushed += size
        assert 0 <= buf.occupied_phits <= capacity
        assert buf.occupied_phits == pushed
    # Draining returns the buffer to empty.
    while not buf.empty:
        pushed -= buf.pop().size_phits
    assert buf.occupied_phits == 0 == pushed


# --------------------------------------------------------------------------- allocator

requests_strategy = st.lists(
    st.builds(
        AllocationRequest,
        input_port=st.integers(min_value=0, max_value=7),
        input_vc=st.integers(min_value=0, max_value=3),
        output_port=st.integers(min_value=0, max_value=7),
        size_phits=st.just(4),
    ),
    max_size=40,
)


@given(requests_strategy)
@settings(max_examples=60, deadline=None)
def test_separable_allocator_grants_are_a_matching(requests):
    allocator = SeparableAllocator(num_ports=8, max_vcs=4)
    grants = allocator.allocate(requests)
    granted_inputs = [g.input_port for g in grants]
    granted_outputs = [g.output_port for g in grants]
    assert len(set(granted_inputs)) == len(granted_inputs)
    assert len(set(granted_outputs)) == len(granted_outputs)
    # Every grant corresponds to an actual request.
    keys = {(r.input_port, r.input_vc, r.output_port) for r in requests}
    assert all((g.input_port, g.input_vc, g.output_port) in keys for g in grants)
    # If there was at least one request, at least one grant is issued.
    if requests:
        assert grants


# --------------------------------------------------------------------------- VC policy


@given(
    st.lists(st.sampled_from(["local", "global"]), max_size=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_vc_assignment_never_decreases_within_a_class(hops, local_vcs, global_vcs):
    """Along any hop sequence, the VC index a routing's ``next_vc`` gives on
    each port class never decreases and stays inside its ``num_vcs`` (the
    capped path-stage assignment is monotone per class)."""
    params = replace(
        SimulationParameters.tiny(),
        local_port_vcs=local_vcs,
        local_port_vcs_oblivious=local_vcs,
        global_port_vcs=global_vcs,
    )
    routing = create_routing(
        "MIN", DragonflyTopology(params.topology), params, np.random.default_rng(0)
    )
    packet = Packet(pid=0, src=0, dst=1, size_phits=4, creation_cycle=0)
    last = {"local": -1, "global": -1}
    for hop in hops:
        kind = PortKind.LOCAL if hop == "local" else PortKind.GLOBAL
        vc = routing.next_vc(packet, kind)
        assert vc >= last[hop]
        assert vc < routing.num_vcs(kind)
        last[hop] = vc
        packet.record_hop(is_global=(hop == "global"))


@given(
    misroute_global=st.booleans(),
    src_local=st.booleans(),
    proxy=st.booleans(),
    int_local_misroute=st.booleans(),
    dst_local=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_allowed_dragonfly_paths_use_strictly_increasing_classes(
    misroute_global, src_local, proxy, int_local_misroute, dst_local
):
    """Every path shape the mechanisms can produce visits buffer classes in
    strictly increasing order (the deadlock-freedom invariant)."""
    hops = []
    if misroute_global:
        if proxy:
            hops.append("local")       # MM+L proxy step
        elif src_local:
            hops.append("local")       # minimal local step in the source group
        hops.append("global")          # nonminimal global hop
        hops.append("local")           # intermediate group, towards gateway
        if int_local_misroute:
            hops.append("local")       # local misroute in the intermediate group
        hops.append("global")          # second global hop
        if dst_local:
            hops.append("local")       # destination group
    else:
        if src_local:
            hops.append("local")
        hops.append("global")
        if dst_local:
            hops.append("local")
    # Table I's nonminimal budget: 4 local and 2 global VCs.
    ranks = [class_rank(kind, vc) for kind, vc in path_buffer_classes(hops, 4, 2)]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == len(ranks)


# --------------------------------------------------------------------------- statistics


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_aggregate_scalar_mean_within_bounds(values):
    result = aggregate_scalar(values)
    assert min(values) - 1e-6 <= result.mean <= max(values) + 1e-6
    assert result.n == len(values)
    assert result.std >= 0 and result.ci95 >= 0


@given(
    st.lists(
        st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=1, max_size=10),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=50, deadline=None)
def test_average_series_length_and_bounds(series):
    merged = average_series(series)
    assert len(merged) == max(len(s) for s in series)
    flat = [v for s in series for v in s]
    assert all(min(flat) - 1e-6 <= v <= max(flat) + 1e-6 for v in merged)
