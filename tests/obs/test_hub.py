"""Per-probe behaviour of the ObservationHub on real tiny runs.

Each probe is exercised through its three states: disabled (the hub is not
attached, or the probe is configured off), enabled, and under time warp.
The zero-overhead contract — results bit-identical with probes on or off —
is asserted here per backend; the cross-backend stream equality lives in
``test_cross_backend.py``.
"""

import pytest

from repro.obs import ObservationConfig
from repro.simulation.simulator import Simulator

BACKENDS = ("object", "soa")


class TestZeroOverheadContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_identical_with_probes_on_and_off(self, tiny_params, backend):
        results = []
        for observation in (None, ObservationConfig(snapshot_period=50)):
            sim = Simulator(
                tiny_params.with_backend(backend),
                "Base",
                "ADV+1",
                0.45,
                seed=7,
                observation=observation,
            )
            results.append(sim.run_steady_state(100, 200))
        assert results[0] == results[1]

    def test_probes_never_touch_the_rng_streams(self, tiny_params):
        """After identical runs, every named stream sits at the same position."""
        draws = []
        for observation in (None, ObservationConfig(snapshot_period=50)):
            sim = Simulator(
                tiny_params,
                "Base",
                "ADV+1",
                0.45,
                seed=7,
                observation=observation,
            )
            sim.run_steady_state(100, 200)
            draws.append(
                (
                    sim.rng.random(),
                    sim.arrival_rng.random(),
                    sim.payload_rng.random(),
                )
            )
        assert draws[0] == draws[1]

    def test_disabled_simulator_has_no_hub(self, tiny_params, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        sim = Simulator(tiny_params, "MIN", "UN", 0.2, seed=1)
        assert sim.obs is None
        assert sim.engine.obs is None
        assert sim.network.routing._obs is None


class TestFlightRecorder:
    def test_inject_precedes_hops_and_deliver_closes(self, traced_run):
        sim, _ = traced_run()
        events = sim.obs.flight_events()
        assert events, "sample rate 1.0 must record flights"
        delivered_pids = {e["pid"] for e in events if e["ev"] == "deliver"}
        assert delivered_pids
        pid = sorted(delivered_pids)[0]
        path = sim.obs.flight_events(pid)
        kinds = [e["ev"] for e in path]
        assert kinds[0] == "inject"
        assert kinds[-1] == "deliver"
        assert all(k == "hop" for k in kinds[1:-1]) and len(kinds) >= 3
        hops = [e for e in path if e["ev"] == "hop"]
        # The ejection grant is recorded as a hop event but the packet's hop
        # counter only counts router-to-router traversals.
        assert path[-1]["hops"] == len([h for h in hops if h["kind"] != "eject"])
        cycles = [e["cycle"] for e in hops]
        assert cycles == sorted(cycles)
        assert hops[-1]["kind"] == "eject"
        assert hops[-1]["cls"].startswith("E")

    def test_sample_rate_zero_records_no_flights_but_keeps_links(self, traced_run):
        sim, _ = traced_run(
            observation=ObservationConfig(flight_sample_rate=0.0)
        )
        assert sim.obs.flight_events() == []
        assert sim.obs.link_utilization(), "link counters are not sampled"

    def test_partial_sampling_is_a_subset_of_the_full_stream(self, traced_run):
        full_sim, _ = traced_run()
        part_sim, _ = traced_run(
            observation=ObservationConfig(flight_sample_rate=0.3, snapshot_period=50)
        )
        full_pids = {e["pid"] for e in full_sim.obs.flight_events()}
        part_pids = {e["pid"] for e in part_sim.obs.flight_events()}
        assert part_pids and part_pids < full_pids
        for pid in sorted(part_pids)[:20]:
            assert part_sim.obs.flight_events(pid) == full_sim.obs.flight_events(pid)

    def test_max_events_cap_counts_drops_instead_of_growing(self, traced_run):
        sim, _ = traced_run(observation=ObservationConfig(max_events=25))
        assert len(sim.obs.events) == 25
        assert sim.obs.perf["events_dropped"] > 0


class TestSnapshotsAndWarp:
    def test_snapshot_period_zero_records_none(self, traced_run):
        sim, _ = traced_run(observation=ObservationConfig(snapshot_period=0))
        assert not [e for e in sim.obs.events if e["ev"] == "snapshot"]
        assert sim.obs.perf["snapshots_taken"] == 0

    def test_snapshots_fire_on_schedule(self, traced_run):
        sim, _ = traced_run(observation=ObservationConfig(snapshot_period=50))
        snapshots = [e for e in sim.obs.events if e["ev"] == "snapshot"]
        assert snapshots
        assert sim.obs.perf["snapshots_taken"] == len(snapshots)
        assert all(e["cycle"] % 50 == 0 for e in snapshots)
        first = snapshots[0]
        assert first["inputs"], "a loaded network has buffered packets"
        for rid, port, vc, packets, phits in first["inputs"]:
            assert packets > 0 and phits >= packets

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warp_records_quiet_ranges_and_skipped_snapshots(
        self, tiny_params, backend
    ):
        sim = Simulator(
            tiny_params.with_backend(backend),
            "MIN",
            "UN",
            0.2,
            seed=3,
            observation=ObservationConfig(snapshot_period=100),
        )
        sim.run_cycles(200)
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(5_000)  # drain + idle: the engine warps over this
        assert sim.engine.cycles_skipped > 0
        warps = [e for e in sim.obs.events if e["ev"] == "warp"]
        assert warps
        for warp in warps:
            assert warp["end"] > warp["start"]
        skipped = sum(w.get("snapshots_skipped", 0) for w in warps)
        assert skipped > 0
        hub = sim.obs
        hub.finalize(sim.engine)
        assert hub.perf["snapshots_skipped"] == skipped
        assert hub.perf["warp_jumps"] == len(warps)

    def test_warp_on_off_streams_identical_with_probes_on(self, tiny_params):
        flights = []
        for warp in (True, False):
            sim = Simulator(
                tiny_params,
                "Base",
                "UN",
                0.2,
                seed=3,
                time_warp=warp,
                observation=ObservationConfig(),
            )
            sim.run_cycles(300)
            sim.traffic.set_offered_load(0.0)
            sim.run_cycles(3_000)
            flights.append(sim.obs.flight_events())
        assert flights[0] == flights[1]


class TestTriggerTrace:
    def test_adaptive_routing_records_consultations(self, traced_run):
        sim, _ = traced_run(routing="Base")
        summary = sim.obs.trigger_summary()
        assert summary, "ADV+1 past the trigger load must consult counters"
        total = sum(row["consultations"] for row in summary)
        escapes = sum(row["escapes"] for row in summary)
        assert 0 < escapes <= total
        hops = [
            e
            for e in sim.obs.flight_events()
            if e["ev"] == "hop" and "trigger" in e
        ]
        assert len(hops) == total
        for event in hops[:50]:
            trigger = event["trigger"]
            assert trigger["signal"] == "contention"
            assert trigger["threshold"] == sim.network.routing.contention_threshold
            assert trigger["escape"] == (event["kind"] != "minimal")
        last = sim.obs.last_trigger(summary[0]["router"])
        assert last is not None and "pid" in last and "cycle" in last

    def test_oblivious_routing_records_none(self, traced_run):
        sim, _ = traced_run(routing="MIN", pattern="UN", load=0.2)
        assert sim.obs.trigger_summary() == []

    def test_trigger_trace_off_strips_the_probe(self, traced_run):
        sim, _ = traced_run(
            observation=ObservationConfig(trigger_trace=False)
        )
        assert sim.obs.trigger_summary() == []
        assert not [
            e for e in sim.obs.flight_events() if e.get("trigger") is not None
        ]

    @pytest.mark.parametrize(
        "routing,signal,extra_key",
        [
            ("Hybrid", "contention+congestion", "congestion_threshold"),
            ("ECtN", "contention+ectn", "combined_threshold"),
            ("OLM", "occupancy", "min_occupancy"),
        ],
    )
    def test_each_trigger_family_reports_its_signal(
        self, traced_run, routing, signal, extra_key
    ):
        sim, _ = traced_run(routing=routing)
        triggered = [
            e["trigger"]
            for e in sim.obs.flight_events()
            if e.get("trigger") is not None
        ]
        assert triggered
        for trigger in triggered[:20]:
            assert trigger["signal"] == signal
            assert extra_key in trigger
            assert "value" in trigger and "threshold" in trigger


class TestLinkUtilization:
    def test_accumulates_phits_per_directed_link(self, traced_run):
        sim, _ = traced_run()
        rows = sim.obs.link_utilization()
        assert rows
        size = {}
        phits = {}
        for event in sim.obs.flight_events():
            if event["ev"] == "inject":
                size[event["pid"]] = event["size"]
            elif event["ev"] == "hop":
                key = (event["router"], event["out_port"])
                phits[key] = phits.get(key, 0) + size[event["pid"]]
        # Sample rate 1.0: every counted phit comes from a recorded hop.
        for row in rows:
            assert row["phits"] == phits[(row["router"], row["port"])]
            assert row["kind"] in ("G", "L", "E")

    def test_link_probe_off_keeps_no_counters(self, traced_run):
        sim, _ = traced_run(observation=ObservationConfig(link_utilization=False))
        assert sim.obs.link_utilization() == []


class TestPerfBlock:
    def test_run_steady_state_finalizes_telemetry(self, traced_run):
        sim, result = traced_run()
        perf = sim.obs.perf
        assert perf["delivered_packets"] == sim.engine.delivered_packets
        assert perf["cycles_executed"] + perf["cycles_skipped"] == sim.engine.cycle
        assert perf["cycles_observed"] == perf["cycles_executed"]
        assert perf["grants"] > 0
        assert perf["events"] == len(sim.obs.events)
        assert perf["events_dropped"] == 0
        for phase in ("warmup", "measure", "drain"):
            assert perf["phase_seconds"][phase] >= 0.0

    def test_detach_restores_the_unobserved_engine(self, traced_run):
        sim, _ = traced_run()
        sim.engine.detach_observation()
        assert sim.engine.obs is None
        assert sim.network.routing._obs is None
