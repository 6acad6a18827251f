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


_SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15}]}


def _verdict_line(parent, change):
    """The ``wall_s`` line ``report`` prints for these synthetic runs."""
    perf_ab = _load_tool()
    runs = {
        side: [{"metrics": {"wall_s": value}, "failed": 0, "sim_digest": "d"} for value in values]
        for side, values in (("A", parent), ("B", change))
    }
    lines = []
    perf_ab.print = lambda *args, **kwargs: lines.append(" ".join(map(str, args)))
    perf_ab.report(_SPEC, runs, {"A": "parent", "B": "change"}, {"A": "a", "B": "b"})
    (line,) = [line for line in lines if line.lstrip().startswith("wall_s")]
    return line


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_a_clear_win_is_a_gain():
    assert _verdict_line(PARENT, [v * 0.85 for v in PARENT]).endswith(" gain")


def test_a_win_inside_the_parents_spread_is_no_gain():
    """Every pair won, but the medians differ by less than the parent's IQR."""
    change = [v - 0.001 for v in PARENT]
    assert _verdict_line(PARENT, change).endswith(" within bound")


def test_eight_pairs_in_ten_are_no_gain():
    change = [v * 0.8 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
    assert _verdict_line(PARENT, change).endswith(" within bound")


def test_a_median_past_the_bound_is_worse_than_bound():
    assert _verdict_line(PARENT, [v * 1.2 for v in PARENT]).endswith(" worse than bound")


def test_a_parent_range_past_the_bound_is_unresolved():
    parent = [1.0, 1.3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    change = [1.01] * 10
    assert _verdict_line(parent, change).endswith(" unresolved")


def test_a_change_that_beats_every_parent_run_is_resolved():
    """A parent range wider than the bound does not leave a change unresolved
    when every change run beats every parent run."""
    parent = [0.95, 1.30, 1.05, 0.96, 1.04, 0.97, 1.03, 0.98, 1.02, 1.00]
    change = [0.949] * 10  # inside the parent's IQR of its median: no gain
    assert _verdict_line(parent, change).endswith(" within bound")
