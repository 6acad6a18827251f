"""Smoke test of the benchmark harness (collected by the tier-1 command).

``perf/run.py --quick`` must emit exactly the workloads and metrics that
``BENCHMARK.json`` declares, and the correctness gate must turn a corrupted
cache entry or a wrong result into ``failed`` > 0 and a non-zero exit.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_quick(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), "--quick", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-out")
    return run_quick("--trace", "--out", str(out)), out


def test_declaration_is_within_the_contract_limits():
    assert SPEC["paths"] == ["perf"] and SPEC["command"] == ["python3", "perf/run.py"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END + PER_LAYER)
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_quick_run_emits_exactly_the_declared_names(traced_run):
    done, out = traced_run
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((out / "results.json").read_text())["workloads"]
    assert list(results) == WORKLOADS
    for name, document in results.items():
        assert list(document["metrics"]) == END_TO_END + PER_LAYER, name
        assert document["failed"] == 0 and document["attempted"] >= 1, name
        assert all(document["metrics"][m] > 0 for m in END_TO_END), name
        assert (out / f"trace-{name}.json").is_file()
        # The zero-overhead contract of repro.obs, seen from outside.
        fired = document["metrics"]["obs.record.calls"]
        assert (fired > 0) == (name == "transient_probes")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and list(line["metrics"]) == PER_LAYER


def test_corrupted_cache_entry_is_a_failed_operation(traced_run):
    _, out = traced_run
    entry = sorted((out / "cache").glob("??/*.json"))[0]
    entry.write_text(entry.read_text().replace('"mean_latency": ', '"mean_latency": 1'))
    done = run_quick("--workload", "sweep_warm", "--out", str(out))
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert line["failed"] > 0 and line["correct"] is False
    assert list(line["metrics"]) == END_TO_END


def test_wrong_result_is_a_failed_operation(tmp_path, monkeypatch, capsys):
    from perf import worker
    from repro.simulation.simulator import Simulator

    monkeypatch.delenv("REPRO_OBS", raising=False)
    run_steady_state = Simulator.run_steady_state

    def wrong_on_soa(self, *args, **kwargs):
        result = run_steady_state(self, *args, **kwargs)
        if self.params.backend == "soa":
            result = dataclasses.replace(result, mean_latency=result.mean_latency + 1.0)
        return result

    monkeypatch.setattr(Simulator, "run_steady_state", wrong_on_soa)
    code = worker.main(
        ["--workload", "steady_un", "--quick", "--seconds", "1", "--out", str(tmp_path)]
    )
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and document["failed"] > 0


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_quick(cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
