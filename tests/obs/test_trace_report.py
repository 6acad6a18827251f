"""Trace serialization round-trip and the trace_report CLI."""

import json

import pytest

from repro.obs import TRACE_SCHEMA_VERSION, load_trace
from repro.tools.trace_report import first_divergence, main, render_report


@pytest.fixture
def trace_path(traced_run, tmp_path):
    sim, _ = traced_run()
    path = tmp_path / "trace.jsonl"
    sim.obs.dump(path)
    return path


class TestRoundTrip:
    def test_dump_and_load_preserve_the_stream(self, traced_run, tmp_path):
        sim, _ = traced_run()
        path = tmp_path / "trace.jsonl"
        sim.obs.dump(path)
        trace = load_trace(path)
        assert trace["manifest"]["config_hash"] == sim.obs.manifest["config_hash"]
        assert trace["events"] == json.loads(
            "[" + ",".join(json.dumps(e, sort_keys=True) for e in sim.obs.events) + "]"
        )
        assert trace["perf"]["ev"] == "perf"
        assert trace["perf"]["grants"] == sim.obs.perf["grants"]

    def test_jsonl_is_byte_identical_to_one_json_dumps_per_line(self, traced_run):
        """``to_jsonl`` shares one encoder; the bytes are those of the
        per-event ``json.dumps(..., sort_keys=True)`` it replaced."""
        sim, _ = traced_run()
        hub = sim.obs
        assert hub.manifest is not None and hub.events and hub.perf
        records = [hub.manifest, *hub.events, hub.perf]
        expected = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        assert hub.to_jsonl() == expected

    def test_newer_trace_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"ev": "manifest", "trace_schema": TRACE_SCHEMA_VERSION + 1})
            + "\n"
        )
        with pytest.raises(ValueError, match="newer than supported"):
            load_trace(path)

    def test_headerless_stream_tolerated(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(json.dumps({"ev": "hop", "pid": 1}) + "\n")
        trace = load_trace(path)
        assert trace["manifest"] is None
        assert trace["perf"] is None
        assert len(trace["events"]) == 1


class TestReport:
    def test_report_sections_render(self, trace_path, capsys):
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out and "backend=object" in out
        assert "occupancy heatmap" in out
        assert "link utilization" in out
        assert "trigger decisions:" in out
        assert "timeline" in out  # auto-picked first sampled pid
        assert "perf:" in out and "grants=" in out

    def test_explicit_pid_timeline(self, trace_path, capsys):
        trace = load_trace(trace_path)
        pid = next(e["pid"] for e in trace["events"] if e["ev"] == "deliver")
        main(["report", str(trace_path), "--pid", str(pid)])
        out = capsys.readouterr().out
        assert f"packet {pid} timeline" in out
        assert "deliver" in out

    def test_unsampled_pid_reports_absence(self, trace_path, capsys):
        main(["report", str(trace_path), "--pid", "99999999"])
        assert "not in the sampled flight set" in capsys.readouterr().out

    def test_render_report_without_snapshots(self):
        trace = {"manifest": None, "events": [], "perf": None}
        out = render_report(trace)
        assert "no snapshots recorded" in out
        assert "no hop events recorded" in out


class TestDiff:
    def test_identical_traces_exit_zero(self, trace_path, capsys):
        assert main(["diff", str(trace_path), str(trace_path)]) == 0
        assert "traces identical" in capsys.readouterr().out

    def test_divergence_is_pinpointed(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_text().splitlines()
        # Perturb the first hop event: the diff must name its index within
        # the flight-event stream (manifest and snapshots are not compared).
        flight_index = None
        count = 0
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("ev") in ("inject", "hop", "deliver", "drop"):
                if record["ev"] == "hop":
                    record["out_vc"] = 99
                    lines[i] = json.dumps(record, sort_keys=True)
                    flight_index = count
                    break
                count += 1
        mutated = tmp_path / "mutated.jsonl"
        mutated.write_text("\n".join(lines) + "\n")
        assert main(["diff", str(trace_path), str(mutated)]) == 1
        out = capsys.readouterr().out
        assert f"traces diverge at event {flight_index}" in out
        assert '"out_vc": 99' in out

    def test_truncated_trace_diverges_at_the_tail(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_text().splitlines()
        truncated = tmp_path / "short.jsonl"
        truncated.write_text("\n".join(lines[:-10]) + "\n")
        assert main(["diff", str(trace_path), str(truncated)]) == 1
        assert "(stream ended)" in capsys.readouterr().out

    def test_config_hash_mismatch_warns(self, trace_path, tmp_path, capsys):
        lines = trace_path.read_text().splitlines()
        manifest = json.loads(lines[0])
        manifest["config_hash"] = "deadbeefdeadbeef"
        lines[0] = json.dumps(manifest, sort_keys=True)
        other = tmp_path / "other.jsonl"
        other.write_text("\n".join(lines) + "\n")
        main(["diff", str(trace_path), str(other)])
        assert "config hashes differ" in capsys.readouterr().out


class TestFirstDivergence:
    def test_equal_streams(self):
        events = [{"ev": "hop", "pid": 1}]
        assert first_divergence(events, list(events)) is None

    def test_first_mismatch_index(self):
        a = [{"x": 1}, {"x": 2}, {"x": 3}]
        b = [{"x": 1}, {"x": 9}, {"x": 3}]
        assert first_divergence(a, b) == 1

    def test_length_mismatch(self):
        a = [{"x": 1}, {"x": 2}]
        assert first_divergence(a, a[:1]) == 1
