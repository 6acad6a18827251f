"""``port_specs``: the one derivation both router models are built from.

The rows are checked against the parameters they come from, and then both
consumers against each other: every construction-time array of ``SoAState``
must equal what the object ports built from the same rows hold — the check
the SoA state used to pass trivially when it was a copy of those objects.
"""

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters
from repro.network.network import Network
from repro.network.specs import UNBOUNDED_PHITS, PortSpec, port_specs
from repro.routing import create_routing
from repro.simulation.simulator import Simulator
from repro.topology.base import PortKind
from repro.topology.faults import FaultRuntime
from repro.topology.registry import create_topology, topology_preset


def _params(topology_name: str) -> SimulationParameters:
    return SimulationParameters.tiny().with_topology(
        topology_preset(topology_name, "tiny")
    )


def _rows(params, routing_name="MIN", fault_model=None):
    topology = create_topology(params.topology)
    routing = create_routing(routing_name, topology, params, np.random.default_rng(1))
    faults = None
    if fault_model is not None:
        faults = FaultRuntime(topology, fault_model, np.random.default_rng(2))
    return topology, routing, faults, list(port_specs(topology, params, routing, faults))


class TestRows:
    def test_one_list_of_radix_rows_per_router(self, every_topology):
        topology, _, _, rows = _rows(_params(every_topology))
        assert len(rows) == topology.num_routers
        assert all(len(specs) == topology.router_radix for specs in rows)
        assert all(isinstance(spec, PortSpec) for specs in rows for spec in specs)

    def test_rows_are_streamed_not_tabulated(self):
        params = _params("dragonfly")
        topology, routing, _, _ = _rows(params)
        rows = port_specs(topology, params, routing)
        assert iter(rows) is rows  # a generator: nobody holds 64 k rows at paper scale

    def test_healthy_rows_follow_the_parameters(self, every_topology):
        params = _params(every_topology)
        topology, routing, _, rows = _rows(params)
        latency = {
            PortKind.INJECTION: 1,
            PortKind.LOCAL: params.local_link_latency,
            PortKind.GLOBAL: params.global_link_latency,
        }
        for rid, specs in enumerate(rows):
            for port, spec in enumerate(specs):
                kind = topology.port_kind(port)
                assert spec.kind is kind
                assert spec.num_vcs == routing.num_vcs(kind)
                assert spec.vc_capacity_phits == params.input_buffer_phits(kind.value)
                assert spec.output_buffer_phits == params.output_buffer_phits
                assert spec.link_latency == latency[kind]
                assert (spec.serialize_factor, spec.credit_bias_phits) == (1, 0)
                assert spec.neighbor == topology.neighbor(rid, port)
                if spec.neighbor is None:
                    # Ejection (and unconnected) ports: one unbounded VC.
                    assert spec.downstream_vcs == 1
                    assert spec.downstream_vc_capacity_phits == UNBOUNDED_PHITS
                else:
                    assert spec.downstream_vcs == spec.num_vcs
                    assert spec.downstream_vc_capacity_phits == spec.vc_capacity_phits

    def test_credits_mirror_the_input_port_at_the_far_end(
        self, every_topology, one_failed_one_degraded
    ):
        model = one_failed_one_degraded(every_topology)
        _, _, _, rows = _rows(_params(every_topology), fault_model=model)
        for specs in rows:
            for spec in specs:
                if spec.neighbor is not None:
                    far = rows[spec.neighbor[0]][spec.neighbor[1]]
                    assert spec.downstream_vcs == far.num_vcs
                    assert spec.downstream_vc_capacity_phits == far.vc_capacity_phits

    def test_fault_runs_add_the_escape_vc_and_the_degradation(
        self, every_topology, one_failed_one_degraded
    ):
        params = _params(every_topology)
        model = one_failed_one_degraded(every_topology)
        _, _, _, healthy = _rows(params)
        topology, _, faults, rows = _rows(params, fault_model=model)
        (link, degraded), = model.degraded_links
        ends = {link, topology.neighbor(*link)}
        for rid, specs in enumerate(rows):
            for port, spec in enumerate(specs):
                base = healthy[rid][port]
                linked = spec.kind is not PortKind.INJECTION and spec.neighbor is not None
                assert spec.num_vcs == base.num_vcs + (1 if linked else 0)
                if (rid, port) in ends:
                    assert faults.degradation(rid, port) is not None
                    assert spec.link_latency == 3 * base.link_latency
                    assert spec.serialize_factor == 2
                    assert spec.credit_bias_phits == (
                        degraded.bias_packets * params.packet_size_phits
                    )
                else:
                    assert spec.link_latency == base.link_latency
                    assert (spec.serialize_factor, spec.credit_bias_phits) == (1, 0)


@pytest.fixture(params=["healthy", "faults"])
def soa_simulator(request, every_topology, one_failed_one_degraded):
    """A ``soa`` Simulator of each tiny topology, healthy and with faults."""
    model = one_failed_one_degraded(every_topology) if request.param == "faults" else None
    return Simulator(
        _params(every_topology).with_backend("soa"), "UGAL", "UN", 0.2, seed=4,
        fault_model=model,
    )


@pytest.mark.soa_core
class TestBothConsumersAgree:
    def test_flat_state_equals_the_object_ports(self, soa_simulator):
        """Element for element, every array ``SoAState.__init__`` fills."""
        st = soa_simulator.engine._st
        routers = soa_simulator.network.routers  # materialised from the same rows
        P = st.P
        V = max(len(ip.vcs) for router in routers for ip in router.input_ports)
        assert (st.R, st.V) == (len(routers), V)
        assert len(st.in_free) == len(st.credits) == st.R * P * V

        def padded(values):
            return list(values) + [0] * (V - len(values))

        expect = {
            name: []
            for name in (
                "in_nvcs", "in_free", "has_queue", "credits", "max_credits",
                "out_free", "link_lat", "ser_fac", "credit_occ", "cap_sum",
                "down_nvcs", "up_g", "up_rid", "up_lat", "down_g",
            )
        }
        for router in routers:
            for ip in router.input_ports:
                expect["in_nvcs"].append(len(ip.vcs))
                expect["in_free"] += padded([vc.buffer.free_phits for vc in ip.vcs])
                expect["has_queue"] += padded([1] * len(ip.vcs))
                up = ip.upstream
                expect["up_g"].append(-1 if up is None else up[0] * P + up[1])
                expect["up_rid"].append(-1 if up is None else up[0])
                expect["up_lat"].append(ip.upstream_latency)
            for op in router.output_ports:
                expect["credits"] += padded(op.credits)
                expect["max_credits"] += padded(op.max_credits)
                expect["out_free"].append(op.buffer.free_phits)
                expect["link_lat"].append(op.link_latency)
                expect["ser_fac"].append(op.serialize_factor)
                expect["credit_occ"].append(op.credit_occupied)
                expect["cap_sum"].append(sum(op.max_credits))
                expect["down_nvcs"].append(len(op.credits))
                down = op.neighbor
                expect["down_g"].append(-1 if down is None else down[0] * P + down[1])
        got = {name: list(getattr(st, name)) for name in expect if name != "has_queue"}
        # A VC exists where ``vc < in_nvcs[g]``; its container does not, until
        # traffic pushes into it.
        got["has_queue"] = [int(vc < nvcs) for nvcs in st.in_nvcs for vc in range(V)]
        assert st.in_q == [None] * len(st.in_free)
        for name, values in expect.items():
            assert got[name] == values, name
        assert list(st.alloc_nvc) == [router.allocator.max_vcs for router in routers]
        assert st.node_rid == [node.router.router_id for node in soa_simulator.network.nodes]

    def test_a_materialised_graph_is_wired_like_the_flat_state(self, soa_simulator):
        st = soa_simulator.engine._st
        routers = soa_simulator.network.routers
        for router in routers:
            assert router.network is soa_simulator.network
            for port, op in enumerate(router.output_ports):
                down = st.down_g[router.router_id * st.P + port]
                if down < 0:
                    assert op.downstream_router is None
                else:
                    assert op.downstream_router is routers[down // st.P]
                    assert op.downstream_port == down % st.P


class TestNetworkBuildsRoutersOnDemand:
    def test_a_new_network_has_nodes_but_no_router_graph(self, tiny_params):
        topology = create_topology(tiny_params.topology)
        routing = create_routing("MIN", topology, tiny_params, np.random.default_rng(1))
        network = Network(topology, tiny_params, routing)
        assert network._routers is None
        assert all(node.router is None for node in network.nodes)
        assert [node.router_id for node in network.nodes] == [
            topology.node_router(nid) for nid in range(topology.num_nodes)
        ]
        assert network.occupancy_summary() == {"buffered_packets": 0, "source_queued": 0}
        assert network._routers is None  # the summary did not build it either

    def test_first_access_builds_once_and_attaches_the_nodes(self, tiny_params):
        topology = create_topology(tiny_params.topology)
        routing = create_routing("MIN", topology, tiny_params, np.random.default_rng(1))
        network = Network(topology, tiny_params, routing)
        routers = network.routers
        assert len(routers) == topology.num_routers
        assert network.routers is routers is network.materialize_routers()
        assert all(node.router is routers[node.router_id] for node in network.nodes)
