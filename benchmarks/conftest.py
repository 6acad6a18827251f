"""Shared reduced-scale settings for the benchmark harness.

Each benchmark regenerates one figure of the paper through the
``repro.experiments`` harness, at a scale reduced enough that the whole
suite finishes in minutes.  The same harness functions accept the ``small``,
``transient`` and ``paper`` scales for higher-fidelity runs (see
EXPERIMENTS.md); the benchmark numbers themselves measure the simulator's
wall-clock cost per figure, while the printed rows give the reproduced
series.

Perf trajectory: at the end of a benchmark session the per-figure wall-clock
timings — together with the engine's simulated-cycle throughput
(``cycles_per_second``), the number of cycles the time-warp engine skipped
(``cycles_skipped``) and the simulation backend that produced them — are
written to ``BENCH_steady.json`` / ``BENCH_transient.json`` in
``$BENCH_ARTIFACT_DIR`` so CI can archive them and compare against the
committed baselines (``python -m repro.tools.bench_compare``).  The default
directory is the git-ignored ``bench-out/`` of this checkout, so an ordinary
test run never rewrites the committed baselines in the repo root; record new
baselines explicitly with ``BENCH_ARTIFACT_DIR=.`` (see EXPERIMENTS.md).

The benchmarks run on the library's default backend (``soa``, the backend
of the committed baselines); ``REPRO_BACKEND=object`` points a session at
the other one.  Timings from different backends are different experiments,
so ``bench_compare`` refuses to treat a cross-backend pair as a regression
signal.  Regenerate the committed artifacts with the same backend they
were recorded with (see EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Dict

import pytest

from repro.config.parameters import DragonflyConfig, SimulationParameters
from repro.experiments.scales import TINY_SCALE, TRANSIENT_SCALE, ExperimentScale
from repro.simulation.engine import ENGINE_STATS

#: Steady-state benchmarks: the tiny preset with a single seed and few loads.
BENCH_STEADY_SCALE: ExperimentScale = dataclasses.replace(
    TINY_SCALE,
    warmup_cycles=200,
    measure_cycles=400,
    seeds=(1,),
    un_loads=(0.2, 0.5),
    adv_loads=(0.1, 0.3),
    mixed_load=0.3,
)

#: Transient benchmarks: a mid-sized balanced Dragonfly (p=4, a=4, h=4,
#: 272 nodes) driven hard enough that source-side contention appears, with a
#: short observation window.  The full-fidelity runs use TRANSIENT_SCALE.
_BENCH_TRANSIENT_PARAMS: SimulationParameters = dataclasses.replace(
    SimulationParameters.transient(),
    topology=DragonflyConfig(p=4, a=4, h=4),
)

BENCH_TRANSIENT_SCALE: ExperimentScale = dataclasses.replace(
    TRANSIENT_SCALE,
    params=_BENCH_TRANSIENT_PARAMS,
    warmup_cycles=250,
    transient_observe_before=40,
    transient_observe_after=160,
    transient_bin=20,
    transient_load=0.3,
    seeds=(1,),
)


#: Backend every benchmark of the session runs on.  The artifacts tag every
#: test with it so apples-to-oranges comparisons are caught.
_BENCH_BACKEND = BENCH_STEADY_SCALE.params.backend


@pytest.fixture(scope="session")
def steady_scale() -> ExperimentScale:
    return BENCH_STEADY_SCALE


@pytest.fixture(scope="session")
def transient_scale() -> ExperimentScale:
    return BENCH_TRANSIENT_SCALE


#: Where the artifacts go when ``BENCH_ARTIFACT_DIR`` is unset (git-ignored).
_DEFAULT_ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "bench-out"

#: Per-test metrics (wall-clock seconds, simulated-cycle throughput, warped
#: cycles, backend), collected by ``run_once`` and written at session end.
_BENCH_METRICS: Dict[str, Dict[str, object]] = {}

#: Benchmarks regenerating steady-state figures vs transient figures.
_STEADY_TAGS = (
    "figure5",
    "figure6",
    "figure10",
    "ablation",
    "cycle_cost",
    "timewarp",
    "crosstopo",
    "faults",
)
_TRANSIENT_TAGS = ("figure7", "figure8", "figure9")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The cycle metrics come from the process-local ``ENGINE_STATS``, which is
    correct because every benchmark here runs its sweeps serially in-process
    (no ``workers=`` argument).  A benchmark that fanned out over the
    parallel sweep executor would leave its cycles in the worker processes
    and must not rely on these fields.
    """
    stats_before = ENGINE_STATS.snapshot()
    start = time.perf_counter()
    result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    executed = ENGINE_STATS.cycles_executed - stats_before["cycles_executed"]
    skipped = ENGINE_STATS.cycles_skipped - stats_before["cycles_skipped"]
    cycles = executed + skipped
    test_id = os.environ.get("PYTEST_CURRENT_TEST", "unknown").split(" ")[0]
    _BENCH_METRICS[test_id] = {
        "seconds": round(elapsed, 4),
        "cycles_per_second": round(cycles / elapsed, 1) if elapsed > 0 else 0.0,
        "cycles_skipped": skipped,
        "backend": _BENCH_BACKEND,
    }
    return result


def _write_artifact(path: Path, tests: Dict[str, Dict[str, object]]) -> None:
    payload = {
        "schema": "bench-trajectory-v3",
        "created_unix": int(time.time()),
        "tests": {test: tests[test] for test in sorted(tests)},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def pytest_sessionfinish(session, exitstatus):
    """Write the BENCH_steady / BENCH_transient perf-trajectory artifacts."""
    if not _BENCH_METRICS:
        return
    out_dir = Path(os.environ.get("BENCH_ARTIFACT_DIR") or _DEFAULT_ARTIFACT_DIR)
    steady = {
        test: metrics
        for test, metrics in _BENCH_METRICS.items()
        if any(tag in test for tag in _STEADY_TAGS)
    }
    transient = {
        test: metrics
        for test, metrics in _BENCH_METRICS.items()
        if any(tag in test for tag in _TRANSIENT_TAGS)
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if steady:
            _write_artifact(out_dir / "BENCH_steady.json", steady)
        if transient:
            _write_artifact(out_dir / "BENCH_transient.json", transient)
    except OSError:  # pragma: no cover - read-only CI sandboxes
        pass
