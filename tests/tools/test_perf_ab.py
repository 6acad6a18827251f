"""``tools/perf_ab.py``: the planned run order, the engine probe and a hung
run (nothing is cloned, no benchmark is run)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "perf_ab.py"


def _dry_run(*args):
    done = subprocess.run(
        [sys.executable, str(TOOL), "parent", "change", "--dry-run", *args],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_dry_run_alternates_sides_and_cycles_seeds():
    lines = _dry_run("--workload", "sweep_cold", "--pairs", "5", "--seeds", "6-7")
    assert lines == [
        "pair 0 seed 6: A=parent then B=change",
        "pair 1 seed 7: B=change then A=parent",
        "pair 2 seed 6: A=parent then B=change",
        "pair 3 seed 7: B=change then A=parent",
        "pair 4 seed 6: A=parent then B=change",
    ]


def test_defaults_are_ten_pairs_on_seed_one():
    lines = _dry_run("--workload", "steady_un")
    assert len(lines) == 10 and all(" seed 1: " in line for line in lines)
    assert sum(line.endswith("then A=parent") for line in lines) == 5


def _load_tool():
    spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
    perf_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_ab)
    return perf_ab


def test_engine_probe_names_the_engine_and_its_core():
    """The report line that makes a silent ``object`` fallback visible: here,
    on this checkout, it names whichever of the two is the case."""
    line = _load_tool().probe_engine(TOOL.parents[1])
    assert line in (
        "SoAEngine, compiled core repro.simulation.soa._core",
        "Engine: soa FELL BACK, its compiled core is unavailable",
    )


def _hang(args, **kwargs):
    raise subprocess.TimeoutExpired(args, kwargs["timeout"])


def test_a_hung_run_is_one_failed_operation(monkeypatch, tmp_path):
    """A run past the timeout is recorded, not raised: one hung run must not
    throw away the pairs already measured."""
    perf_ab = _load_tool()
    monkeypatch.setattr(perf_ab.subprocess, "run", _hang)
    assert perf_ab.run_once(tmp_path, "steady_un", 1, tmp_path / "out") == {
        "failed": 1, "metrics": {},
    }


def test_a_run_that_writes_no_result_is_one_failed_operation(monkeypatch, tmp_path):
    """A run that exits without a ``results.json`` counts the same way."""
    perf_ab = _load_tool()
    monkeypatch.setattr(
        perf_ab.subprocess, "run",
        lambda args, **kwargs: subprocess.CompletedProcess(args, 1),
    )
    assert perf_ab.run_once(tmp_path, "steady_un", 1, tmp_path / "out") == {
        "failed": 1, "metrics": {},
    }


def test_a_hung_probe_reads_probe_failed(monkeypatch, tmp_path):
    perf_ab = _load_tool()
    monkeypatch.setattr(perf_ab.subprocess, "run", _hang)
    assert perf_ab.probe_engine(tmp_path) == "probe failed"
