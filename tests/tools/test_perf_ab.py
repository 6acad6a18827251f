"""``tools/perf_ab.py``: the planned run order and the engine probe (nothing is
cloned, no benchmark is run)."""

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


def test_engine_probe_names_the_engine_and_its_core():
    """The report line that makes a silent ``object`` fallback visible: here,
    on this checkout, it names whichever of the two is the case."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
    perf_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_ab)
    line = perf_ab.probe_engine(TOOL.parents[1])
    assert line in (
        "SoAEngine, compiled core repro.simulation.soa._core",
        "Engine: soa FELL BACK, its compiled core is unavailable",
    )
