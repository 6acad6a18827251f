"""Cross-backend trace equality: object and SoA runs emit identical streams.

The backends are bit-identical by contract; this file pins the stronger
statement that the *observed* streams — flight recorder, link counters,
trigger aggregates and occupancy snapshots — are equal too, which is what
makes ``trace_report diff`` a meaningful debugging tool.
"""

import pytest

from repro.obs import ObservationConfig
from repro.simulation.simulator import Simulator


def _pair(traced_run, **kwargs):
    sims = {}
    for backend in ("object", "soa"):
        sims[backend], _ = traced_run(backend=backend, **kwargs)
    return sims["object"], sims["soa"]


class TestTraceEquality:
    def test_flight_streams_identical(self, traced_run):
        obj, soa = _pair(traced_run)
        events_obj = obj.obs.flight_events()
        events_soa = soa.obs.flight_events()
        assert events_obj, "the traced point must produce events"
        assert events_obj == events_soa

    @pytest.mark.parametrize("routing", ["Hybrid", "OLM"])
    def test_flight_streams_identical_per_trigger_family(self, traced_run, routing):
        obj, soa = _pair(traced_run, routing=routing)
        assert obj.obs.flight_events() == soa.obs.flight_events()

    def test_link_utilization_identical(self, traced_run):
        obj, soa = _pair(traced_run)
        assert obj.obs.link_utilization() == soa.obs.link_utilization()

    def test_trigger_summaries_identical(self, traced_run):
        obj, soa = _pair(traced_run)
        assert obj.obs.trigger_summary() == soa.obs.trigger_summary()

    def test_occupancy_snapshots_identical(self, traced_run):
        obj, soa = _pair(traced_run)
        snaps_obj = [e for e in obj.obs.events if e["ev"] == "snapshot"]
        snaps_soa = [e for e in soa.obs.events if e["ev"] == "snapshot"]
        assert snaps_obj, "snapshot_period=50 must fire within the run"
        assert snaps_obj == snaps_soa

    @pytest.mark.parametrize("load", [0.05, 0.45])
    def test_perf_counts_identical(self, traced_run, load):
        """The count fields of the ``perf`` block (the timers differ), with
        ``alloc_router_cycles``: routers holding an occupied head when their
        allocation comes up, not the routers with any pending work."""
        obj, soa = _pair(traced_run, load=load)
        perf_obj = obj.obs.finalize(obj.engine)
        perf_soa = soa.obs.finalize(soa.engine)
        counts = (
            "cycles_executed", "cycles_skipped", "warp_jumps", "cycles_observed",
            "alloc_router_cycles", "delivered_packets", "dropped_packets", "grants",
            "events", "events_dropped", "snapshots_taken", "snapshots_skipped",
        )
        assert perf_obj["alloc_router_cycles"] > 0
        assert {k: perf_obj[k] for k in counts} == {k: perf_soa[k] for k in counts}

    def test_manifests_share_the_config_hash_but_not_the_backend(self, traced_run):
        obj, soa = _pair(traced_run)
        m_obj, m_soa = obj.obs.manifest, soa.obs.manifest
        assert m_obj["config_hash"] == m_soa["config_hash"]
        assert (m_obj["backend"], m_soa["backend"]) == ("object", "soa")
        for key in ("seed", "routing", "pattern", "offered_load", "num_nodes"):
            assert m_obj[key] == m_soa[key]


class TestWarpIdentityWithProbes:
    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_warp_on_off_results_identical_with_probes_enabled(
        self, tiny_params, backend
    ):
        results = []
        for warp in (True, False):
            sim = Simulator(
                tiny_params.with_backend(backend),
                "Base",
                "UN",
                0.2,
                seed=3,
                time_warp=warp,
                observation=ObservationConfig(snapshot_period=100),
            )
            results.append(sim.run_steady_state(100, 200))
        assert results[0] == results[1]
