"""``tools/perf_ab.py``: the planned run order (nothing is cloned or run)."""

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
