"""``tools/build_footprint.py`` on the ``tiny`` preset: both backends, the
in-flight report and the budget gate."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "build_footprint.py"
OBJECT_MODEL = ("network/router.py", "network/ports.py", "network/buffer.py")


def _report(*args):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--preset", "tiny", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("backend", ["soa", "object"])
def test_report_names_every_quantity_and_blames_the_right_modules(backend):
    lines = _report("--backend", backend)
    assert lines[0] == (
        f"preset tiny: 12 routers of radix 5, 24 nodes; backend {backend}, routing Base"
    )
    assert re.fullmatch(r"build_s \d+\.\d{3}  \(network \d+\.\d{3}, engine \d+\.\d{3}\)", lines[1])
    assert re.fullmatch(r"ru_maxrss_mb \d+\.\d", lines[2])
    assert re.fullmatch(r"traced_mb \d+\.\d\d  \(repro \d+\.\d\d\)", lines[3])
    modules = {line.split()[1]: float(line.split()[0]) for line in lines[4:]}
    assert modules and all(size > 0 for size in modules.values())
    if backend == "soa":
        assert "simulation/soa/state.py" in modules
        assert not set(OBJECT_MODEL) & set(modules)
    else:
        assert set(OBJECT_MODEL) <= set(modules)
        assert "simulation/soa/state.py" not in modules


def _module_table(lines):
    """``{module: MB}`` of the table under a ``traced_mb`` line."""
    assert re.fullmatch(r"traced_mb \d+\.\d\d  \(repro \d+\.\d\d\)", lines[0])
    table = {}
    for line in lines[1:]:
        if not line.startswith("  "):
            break
        size, name = line.split()
        table[name] = float(size)
    return table


def test_run_cycles_reports_the_memory_in_flight():
    lines = _report("--run-cycles", "120", "--pattern", "ADV+1", "--load", "0.5")
    mark = lines.index("after 120 cycles of ADV+1 at load 0.5:")
    sites_mark = lines.index("largest allocation sites:")
    assert 4 < mark < sites_mark
    built = _module_table(lines[3:mark])
    assert re.fullmatch(r"ru_maxrss_mb \d+\.\d", lines[mark + 1])
    in_flight = _module_table(lines[mark + 2 : sites_mark])
    # Traffic allocated what the build did not: packets, node queues, VC
    # queues and head rows.
    assert "traffic/bernoulli.py" in in_flight and "traffic/bernoulli.py" not in built
    assert "simulation/soa/engine.py" in in_flight
    assert sum(in_flight.values()) > sum(built.values())
    sites = lines[sites_mark + 1 :]
    assert 1 <= len(sites) <= 10
    sizes = [float(site.split()[0]) for site in sites]
    assert sizes == sorted(sizes, reverse=True)
    assert all(re.fullmatch(r" +\d+\.\d\d  \S+:\d+", site) for site in sites)
    # Without the flag the report stops after the build table.
    assert "largest allocation sites:" not in _report()


def test_budget_gates_the_traced_build_footprint():
    assert _report("--budget-mb", "5")[0].startswith("preset tiny")
    done = subprocess.run(
        [sys.executable, str(TOOL), "--preset", "tiny", "--budget-mb", "0.001"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout.startswith("preset tiny")  # the report is still printed
    assert re.search(r"build footprint \d+\.\d\d MB exceeds the budget of 0\.001 MB", done.stderr)


def test_with_run_cycles_the_budget_gates_the_footprint_in_flight_too():
    args = ["--run-cycles", "60", "--pattern", "ADV+1", "--load", "0.5"]
    lines = _report(*args)
    mark = lines.index("after 60 cycles of ADV+1 at load 0.5:")
    build_mb = float(lines[3].split()[1])
    in_flight_mb = float(lines[mark + 2].split()[1])
    assert build_mb < in_flight_mb
    budget = f"{(build_mb + in_flight_mb) / 2:.3f}"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--preset", "tiny", *args, "--budget-mb", budget],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert re.fullmatch(
        rf"in-flight footprint \d+\.\d\d MB exceeds the budget of {float(budget):g} MB\n",
        done.stderr,
    )


def test_unknown_preset_is_rejected():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--preset", "huge"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "--preset" in done.stderr
