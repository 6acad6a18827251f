"""``tools/build_footprint.py`` on the ``tiny`` preset, both backends."""

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


def test_unknown_preset_is_rejected():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--preset", "huge"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "--preset" in done.stderr
