"""A benchmark session must not rewrite the committed ``BENCH_*.json``.

The tier-1 verify command collects ``benchmarks/``, whose session-finish
hook writes the perf-trajectory artifacts.  With ``BENCH_ARTIFACT_DIR`` unset
they must land in the git-ignored ``bench-out/``, never on top of the
baselines committed in the repository root.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BASELINES = ("BENCH_steady.json", "BENCH_transient.json")


def _git_status() -> str:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs a git checkout")
    done = subprocess.run(
        ["git", "status", "--porcelain", "--", *BASELINES],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        pytest.skip("git status unavailable here")
    return done.stdout


def test_session_without_artifact_dir_leaves_baselines_untouched():
    status_before = _git_status()
    before = {name: (ROOT / name).read_bytes() for name in BASELINES}
    env = {k: v for k, v in os.environ.items() if k != "BENCH_ARTIFACT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    written = ROOT / "bench-out" / "BENCH_steady.json"
    stamp = written.stat().st_mtime_ns if written.exists() else None
    # The cheapest benchmark file (< 1 s of simulation); it feeds BENCH_steady.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/test_bench_timewarp.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert written.exists() and written.stat().st_mtime_ns != stamp
    assert {name: (ROOT / name).read_bytes() for name in BASELINES} == before
    assert _git_status() == status_before
