"""Unit tests for the link-fault model and runtime (repro.topology.faults)."""

from collections import namedtuple

import numpy as np
import pytest

from repro.topology.faults import (
    NO_FAULT_EVENT,
    DegradedLink,
    FaultEvent,
    FaultModel,
    FaultRuntime,
    FaultSchedule,
    NetworkPartitionError,
)


def _rng(seed=7):
    return np.random.default_rng(seed)


def _some_link(topology, rid=0):
    """First router-to-router link out of ``rid``."""
    for port in range(topology.router_radix):
        if topology.neighbor(rid, port) is not None:
            return (rid, port)
    raise AssertionError("router has no links")


def _isolate_links(topology, rid):
    """Every link touching ``rid`` (failing them all isolates the router)."""
    return tuple(
        (rid, port)
        for port in range(topology.router_radix)
        if topology.neighbor(rid, port) is not None
    )


_Cand = namedtuple("_Cand", "port")


class TestDegradedLink:
    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            DegradedLink(bandwidth_factor=0)
        with pytest.raises(ValueError):
            DegradedLink(latency_factor=0)
        with pytest.raises(ValueError):
            DegradedLink(contention_bias=-1)

    def test_bias_defaults_from_physical_factors(self):
        assert DegradedLink().bias_packets == 0
        assert DegradedLink(bandwidth_factor=2).bias_packets == 2
        assert DegradedLink(bandwidth_factor=2, latency_factor=3).bias_packets == 4
        assert DegradedLink(bandwidth_factor=4, contention_bias=1).bias_packets == 1


class TestFaultSchedule:
    def test_events_sorted_by_cycle(self):
        sched = FaultSchedule(
            events=(
                FaultEvent(300, (0, 1), "repair"),
                FaultEvent(100, (0, 1), "fail"),
            )
        )
        assert [e.cycle for e in sched.events] == [100, 300]

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSchedule(events=(FaultEvent(10, (0, 1), "flaky"),))

    def test_rejects_negative_cycle(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultSchedule(events=(FaultEvent(-1, (0, 1), "fail"),))


class TestFaultModel:
    def test_trivial_model(self):
        assert FaultModel().is_trivial
        assert not FaultModel(link_failure_percent=1.0).is_trivial
        assert not FaultModel(failed_links=((0, 1),)).is_trivial
        assert not FaultModel(
            degraded_links={(0, 1): DegradedLink(latency_factor=2)}
        ).is_trivial

    def test_degraded_links_accepts_dict(self):
        deg = DegradedLink(bandwidth_factor=2)
        model = FaultModel(degraded_links={(0, 1): deg})
        assert model.degraded_links == (((0, 1), deg),)

    def test_rejects_bad_percent(self):
        with pytest.raises(ValueError):
            FaultModel(link_failure_percent=101.0)

    def test_is_picklable(self):
        import pickle

        model = FaultModel(
            link_failure_percent=5.0,
            degraded_links={(0, 1): DegradedLink(latency_factor=2)},
            schedule=FaultSchedule(events=(FaultEvent(10, (0, 1), "fail"),)),
        )
        assert pickle.loads(pickle.dumps(model)) == model


class TestFaultRuntime:
    def test_explicit_failure_marks_both_endpoints(self, tiny_topology):
        link = _some_link(tiny_topology)
        runtime = FaultRuntime(
            tiny_topology, FaultModel(failed_links=(link,)), _rng()
        )
        assert runtime.num_failed_links == 1
        assert link[1] in runtime.failed_ports[link[0]]
        nbr_router, nbr_port = tiny_topology.neighbor(*link)
        assert nbr_port in runtime.failed_ports[nbr_router]

    def test_either_endpoint_names_the_same_link(self, tiny_topology):
        link = _some_link(tiny_topology)
        other_end = tiny_topology.neighbor(*link)
        a = FaultRuntime(tiny_topology, FaultModel(failed_links=(link,)), _rng())
        b = FaultRuntime(
            tiny_topology, FaultModel(failed_links=(other_end,)), _rng()
        )
        assert a.failed_links == b.failed_links

    def test_rejects_non_link(self, tiny_topology):
        # Port 0 on a Dragonfly router is an injection port: not a link.
        with pytest.raises(ValueError, match="does not name"):
            FaultRuntime(
                tiny_topology, FaultModel(failed_links=((0, 0),)), _rng()
            )

    def test_percent_sampling_is_deterministic(self, tiny_topology):
        model = FaultModel(link_failure_percent=20.0)
        a = FaultRuntime(tiny_topology, model, _rng(3))
        b = FaultRuntime(tiny_topology, model, _rng(3))
        c = FaultRuntime(tiny_topology, model, _rng(4))
        assert a.failed_links == b.failed_links
        expected = int(round(0.2 * a.num_links))
        assert a.num_failed_links == expected
        # A different stream draws a different set (overwhelmingly likely
        # with 20% of the links involved).
        assert a.failed_links != c.failed_links or a.num_links < 5

    def test_partition_rejected_by_default(self, tiny_topology):
        links = _isolate_links(tiny_topology, 0)
        with pytest.raises(NetworkPartitionError, match="allow_partition"):
            FaultRuntime(tiny_topology, FaultModel(failed_links=links), _rng())

    def test_allow_partition_accepts_and_reports_unreachable(self, tiny_topology):
        links = _isolate_links(tiny_topology, 0)
        runtime = FaultRuntime(
            tiny_topology,
            FaultModel(failed_links=links, allow_partition=True),
            _rng(),
        )
        assert not runtime.reachable(0, 1)
        assert runtime.reachable(1, 2)

    def test_schedule_with_disconnecting_epoch_rejected(self, tiny_topology):
        links = _isolate_links(tiny_topology, 0)
        schedule = FaultSchedule(
            events=tuple(FaultEvent(100, link, "fail") for link in links)
        )
        with pytest.raises(NetworkPartitionError, match="cycle 100"):
            FaultRuntime(tiny_topology, FaultModel(schedule=schedule), _rng())

    def test_schedule_fail_then_repair_passes_validation(self, tiny_topology):
        links = _isolate_links(tiny_topology, 0)
        # Failing all-but-one link never disconnects; the last link fails
        # only after another is repaired.
        schedule = FaultSchedule(
            events=tuple(FaultEvent(100, link, "fail") for link in links[:-1])
            + (
                FaultEvent(200, links[0], "repair"),
                FaultEvent(300, links[-1], "fail"),
            )
        )
        runtime = FaultRuntime(tiny_topology, FaultModel(schedule=schedule), _rng())
        assert runtime.num_failed_links == 0  # nothing applied yet
        assert runtime.pending_event_cycle == 100

    def test_apply_due_batches_and_bumps_epoch(self, tiny_topology):
        link = _some_link(tiny_topology)
        schedule = FaultSchedule(
            events=(
                FaultEvent(100, link, "fail"),
                FaultEvent(250, link, "repair"),
            )
        )
        runtime = FaultRuntime(tiny_topology, FaultModel(schedule=schedule), _rng())
        assert not runtime.apply_due(99)
        assert runtime.epoch == 0
        assert runtime.apply_due(100)
        assert runtime.epoch == 1
        assert runtime.num_failed_links == 1
        assert runtime.pending_event_cycle == 250
        assert runtime.apply_due(300)  # late application still lands
        assert runtime.num_failed_links == 0
        assert runtime.epoch == 2
        assert runtime.pending_event_cycle == NO_FAULT_EVENT

    def test_escape_port_reaches_target_without_loops(self, tiny_topology):
        link = _some_link(tiny_topology)
        runtime = FaultRuntime(
            tiny_topology, FaultModel(failed_links=(link,)), _rng()
        )
        target = tiny_topology.num_routers - 1
        for start in range(tiny_topology.num_routers - 1):
            rid = start
            hops = 0
            while rid != target:
                port = runtime.escape_port(rid, target)
                assert port >= 0
                assert port not in runtime.failed_ports[rid]
                rid, _ = tiny_topology.neighbor(rid, port)
                hops += 1
                assert hops <= tiny_topology.num_routers, "escape path loops"

    def test_escape_port_avoids_failed_links_after_event(self, tiny_topology):
        link = _some_link(tiny_topology)
        nbr_router, _ = tiny_topology.neighbor(*link)
        schedule = FaultSchedule(events=(FaultEvent(50, link, "fail"),))
        runtime = FaultRuntime(tiny_topology, FaultModel(schedule=schedule), _rng())
        # Healthy epoch: the root's first link is a tree edge, so the escape
        # path to its far end is that link.
        assert runtime.escape_port(link[0], nbr_router) == link[1]
        runtime.apply_due(50)
        port = runtime.escape_port(link[0], nbr_router)
        assert port != link[1]
        assert port not in runtime.failed_ports[link[0]]

    def test_filter_candidates_identity_when_unaffected(self, tiny_topology):
        link = _some_link(tiny_topology)
        runtime = FaultRuntime(
            tiny_topology, FaultModel(failed_links=(link,)), _rng()
        )
        healthy_router = (link[0] + 2) % tiny_topology.num_routers
        assert not runtime.failed_ports[healthy_router]
        candidates = [_Cand(1), _Cand(2)]
        assert runtime.filter_candidates(healthy_router, candidates) is candidates
        # Affected router, unaffected ports: still the same object.
        alive = [
            _Cand(p)
            for p in range(1, tiny_topology.router_radix)
            if p not in runtime.failed_ports[link[0]]
        ][:2]
        assert runtime.filter_candidates(link[0], alive) is alive

    def test_filter_candidates_drops_dead_ports(self, tiny_topology):
        link = _some_link(tiny_topology)
        runtime = FaultRuntime(
            tiny_topology, FaultModel(failed_links=(link,)), _rng()
        )
        candidates = [_Cand(link[1]), _Cand(link[1] + 1)]
        filtered = runtime.filter_candidates(link[0], candidates)
        assert [c.port for c in filtered] == [link[1] + 1]

    def test_degradation_lookup_covers_both_ends(self, tiny_topology):
        link = _some_link(tiny_topology)
        deg = DegradedLink(bandwidth_factor=2, latency_factor=3)
        runtime = FaultRuntime(
            tiny_topology, FaultModel(degraded_links={link: deg}), _rng()
        )
        assert runtime.degradation(*link) == deg
        assert runtime.degradation(*tiny_topology.neighbor(*link)) == deg
        assert runtime.degradation(link[0], link[1] + 1) is None

    def test_runtime_on_every_topology(self, every_tiny_topology):
        """The undirected link table closes over every registered topology."""
        runtime = FaultRuntime(
            every_tiny_topology, FaultModel(link_failure_percent=10.0), _rng(5)
        )
        assert runtime.num_links > 0
        # Both endpoints of each sampled failure are marked.
        marked = sum(len(ports) for ports in runtime.failed_ports)
        assert marked == 2 * runtime.num_failed_links
