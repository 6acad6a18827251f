"""What recording costs, pinned without a clock.

The flight recorder keeps one flat tuple per event and dumps it in chunks;
these tests bound the live heap per event, the transient of a dump and the
GC load of the rows with ``tracemalloc`` and ``gc`` — exact counters, so
the bounds hold on a loaded machine.
"""

import gc
import inspect
import json
import os
import tracemalloc

import pytest

from repro.obs import ObservationConfig, hub as hub_module, load_trace
from repro.simulation.simulator import Simulator


def _base_transient(tiny_params, observation=None):
    sim = Simulator.build_transient(
        tiny_params,
        "Base",
        before="UN",
        after="ADV+1",
        offered_load=0.4,
        switch_cycle=100,
        seed=3,
    )
    sim.attach_observation(observation or ObservationConfig())
    return sim


def _run(sim):
    return sim.run_transient(100, 20, 160, 20)


class TestLiveBytesPerEvent:
    def test_hub_and_trigger_sites_stay_under_200_bytes_per_event(self, tiny_params):
        sim = _base_transient(tiny_params)
        # The sites: the whole hub module, and of the routing's module only
        # the lines of ``trigger_observation`` (the rest of that module builds
        # candidate tuples and caches lazily during the run).
        hub_file = inspect.getsourcefile(hub_module)
        trigger = type(sim.routing).trigger_observation
        trigger_file = inspect.getsourcefile(trigger)
        lines, first = inspect.getsourcelines(trigger)
        trigger_lines = range(first, first + len(lines))

        def is_site(frame):
            return frame.filename == hub_file or (
                frame.filename == trigger_file and frame.lineno in trigger_lines
            )

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            _run(sim)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        live = sum(
            stat.size_diff
            for stat in after.compare_to(before, "lineno")
            if is_site(stat.traceback[0])
        )
        events = sim.obs.perf["events"]
        assert events > 2_000
        assert 0 < live <= 200 * events, f"{live / events:.0f} B per event"

    def test_no_flight_row_is_gc_tracked_after_one_collection(self, tiny_params):
        sim = _base_transient(tiny_params)
        _run(sim)
        gc.collect()
        rows = [row for row in sim.obs._rows if type(row) is tuple]
        assert len(rows) > 2_000
        assert not any(gc.is_tracked(row) for row in rows)


class TestDump:
    def test_dump_transient_is_one_chunk_not_the_file(self, tiny_params, tmp_path):
        sim = _base_transient(tiny_params)
        _run(sim)
        path = tmp_path / "trace.jsonl"
        gc.collect()
        tracemalloc.start()
        try:
            sim.obs.dump(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 300_000
        assert peak <= 1_000_000 + size // 10, f"peak {peak} B for a {size} B file"
        assert path.read_text() == sim.obs.to_jsonl()

    def test_failed_dump_leaves_no_file(self, tiny_params, tmp_path):
        sim = _base_transient(tiny_params)
        _run(sim)
        # The perf line is encoded last: every chunk before it is written.
        sim.obs.perf["unencodable"] = object()
        with pytest.raises(TypeError, match="not JSON serializable"):
            sim.obs.dump(tmp_path / "trace.jsonl")
        assert os.listdir(tmp_path) == []

    def test_failed_dump_keeps_the_existing_trace(self, tiny_params, tmp_path):
        sim = _base_transient(tiny_params)
        _run(sim)
        path = tmp_path / "trace.jsonl"
        sim.obs.dump(path)
        old = path.read_bytes()
        sim.obs.perf["unencodable"] = object()
        with pytest.raises(TypeError, match="not JSON serializable"):
            sim.obs.dump(path)
        assert os.listdir(tmp_path) == ["trace.jsonl"]
        assert path.read_bytes() == old
        assert load_trace(path)["perf"]["events"] == sim.obs.perf["events"]


class TestSeenPids:
    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_only_packets_in_flight_are_remembered(self, tiny_params, backend):
        sim = Simulator(
            tiny_params.with_backend(backend),
            "Base",
            "ADV+1",
            0.45,
            seed=7,
            observation=ObservationConfig(),
        )
        sim.run_cycles(300)
        in_flight = len(sim.obs._seen_pids)
        injected = sum(1 for e in sim.obs.events if e["ev"] == "inject")
        assert 0 < in_flight < injected
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(3_000)  # drain
        assert sim.obs._seen_pids == set()
        events = sim.obs.events
        delivered = sum(1 for e in events if e["ev"] == "deliver")
        assert delivered == sum(1 for e in events if e["ev"] == "inject")
        # Every packet was injected once: forgetting it early re-emitted nothing.
        assert len({e["pid"] for e in events if e["ev"] == "inject"}) == delivered

    def test_dropped_packets_are_forgotten_too(self, fault_run):
        sim = fault_run("soa")
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(3_000)
        assert any(e["ev"] == "drop" for e in sim.obs.events)
        assert sim.obs._seen_pids == set()


def test_load_trace_reads_what_dump_wrote(tiny_params, tmp_path):
    sim = _base_transient(tiny_params)
    _run(sim)
    path = tmp_path / "trace.jsonl"
    sim.obs.dump(path)
    trace = load_trace(path)
    assert trace["events"] == sim.obs.events
    assert trace["perf"] == json.loads(json.dumps(sim.obs.perf))
