"""The caching executor as the figure harnesses actually use it.

Every experiment entry point accepts ``executor=``; routing a sweep
through a :class:`CachingSweepExecutor` twice must give identical rows
with the second pass served entirely from the cache.  The suite also pins
the executor's contract edges: unknown functions delegate untouched,
uncacheable specs fall through, failures pass through uncached, and
intra-call duplicates coalesce.  ``TestCachedMapSemantics`` pins the
cache bookkeeping of both ``map`` and ``map_robust`` against a scripted
compute, so what reaches the pool, what is stored and what each call
counts are exact.  Importing the service stays free of ``asyncio``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config.parameters import SimulationParameters
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.parallel import (
    ParallelSweepExecutor,
    PointFailure,
    SteadyPointSpec,
    run_steady_point,
)
from repro.experiments.scales import TINY_SCALE
from repro.experiments.transient_runner import transient_comparison
from repro.service import (
    CachingSweepExecutor,
    DirectoryResultCache,
    InMemoryResultCache,
    point_key,
)
from repro.simulation.results import SteadyStateResult

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _spec(seed: int, load: float = 0.1) -> SteadyPointSpec:
    return SteadyPointSpec(
        params=SimulationParameters.tiny(),
        routing="MIN",
        pattern="UN",
        offered_load=load,
        warmup_cycles=30,
        measure_cycles=60,
        seed=seed,
    )


class TestExecutorContract:
    def test_unknown_functions_delegate_to_the_plain_executor(self):
        exe = CachingSweepExecutor()
        try:
            assert exe.map(len, [[1], [1, 2], []]) == [1, 2, 0]
            assert exe.map_robust(len, [[1], [1, 2]]) == [1, 2]
        finally:
            exe.close()
        assert exe.stats.lookups == 0  # the cache never saw these calls

    def test_intra_call_duplicates_compute_once(self):
        exe = CachingSweepExecutor()
        try:
            results = exe.map(run_steady_point, [_spec(1), _spec(1), _spec(1)])
        finally:
            exe.close()
        assert exe.stats.misses == 1
        assert exe.stats.coalesced == 2
        assert results[0] == results[1] == results[2]

    def test_uncacheable_specs_fall_through_and_still_compute(self):
        from repro.traffic import create_pattern

        factory_spec = SteadyPointSpec(
            params=SimulationParameters.tiny(),
            routing="MIN",
            pattern=None,
            pattern_factory=lambda topology: create_pattern("UN", topology),
            offered_load=0.1,
            warmup_cycles=30,
            measure_cycles=60,
            seed=1,
        )
        exe = CachingSweepExecutor()
        try:
            (first,) = exe.map(run_steady_point, [factory_spec])
            (second,) = exe.map(run_steady_point, [factory_spec])
        finally:
            exe.close()
        assert exe.stats.lookups == 0  # no content address, never cached
        assert first == second  # still deterministic, just recomputed

    def test_failures_pass_through_uncached_and_mirror_to_duplicates(
        self, monkeypatch
    ):
        from repro.experiments.parallel import ParallelSweepExecutor

        # Make the underlying compute fail for every point, so the failure
        # flows through the recognized-runner caching path.
        def failing_compute(self, func, items, *, timeout=None, retries=1):
            return [
                PointFailure(spec=item, error="boom", kind="error") for item in items
            ]

        exe = CachingSweepExecutor()
        try:
            monkeypatch.setattr(ParallelSweepExecutor, "map_robust", failing_compute)
            results = exe.map_robust(run_steady_point, [_spec(99), _spec(99)])
            monkeypatch.undo()
        finally:
            exe.close()
        assert all(isinstance(r, PointFailure) for r in results)
        assert exe.stats.stores == 0
        assert point_key(_spec(99)) not in exe.cache
        # A later call retries the point for real instead of serving it.
        exe2 = CachingSweepExecutor(cache=exe.cache)
        try:
            (retried,) = exe2.map_robust(run_steady_point, [_spec(99)])
        finally:
            exe2.close()
        assert not isinstance(retried, PointFailure)
        assert exe2.stats.misses == 1 and exe2.stats.stores == 1


def _fake_result(point: SteadyPointSpec) -> SteadyStateResult:
    """A deterministic stand-in result derived from the spec coordinates."""
    return SteadyStateResult(
        routing=point.routing,
        pattern=point.pattern,
        offered_load=point.offered_load,
        seed=point.seed,
        mean_latency=100.0 + point.seed,
        p99_latency=200.0 + point.seed,
        accepted_load=point.offered_load,
        global_misroute_fraction=0.0,
        local_misroute_fraction=0.0,
        mean_hops=3.0,
        delivered_packets=1000 + point.seed,
    )


def _factory_spec(seed: int = 1) -> SteadyPointSpec:
    from repro.traffic import create_pattern

    return SteadyPointSpec(
        params=SimulationParameters.tiny(),
        routing="MIN",
        pattern=None,
        pattern_factory=lambda topology: create_pattern("UN", topology),
        offered_load=0.1,
        warmup_cycles=30,
        measure_cycles=60,
        seed=seed,
    )


def _not_a_point_runner(point):  # any function the executor does not cache
    return _fake_result(point)


class _ScriptedCompute:
    """Stands in for the parent executor: records every batch that reaches
    it and answers with :func:`_fake_result`, or with a failure row for a
    seed in ``fail_seeds`` (``map_robust``) / an exception (``map``)."""

    def __init__(self):
        self.batches = []
        self.robust_kwargs = []
        self.fail_seeds = set()

    def map(self, func, items):
        items = list(items)
        self.batches.append(items)
        if any(point.seed in self.fail_seeds for point in items):
            raise RuntimeError("worker crashed")
        return [_fake_result(point) for point in items]

    def map_robust(self, func, items, *, timeout=None, retries=1):
        items = list(items)
        self.batches.append(items)
        self.robust_kwargs.append((timeout, retries))
        return [
            PointFailure(spec=point, error="bad point", kind="error")
            if point.seed in self.fail_seeds
            else _fake_result(point)
            for point in items
        ]


@pytest.fixture
def compute(monkeypatch):
    scripted = _ScriptedCompute()
    monkeypatch.setattr(
        ParallelSweepExecutor, "map", lambda self, func, items: scripted.map(func, items)
    )
    monkeypatch.setattr(
        ParallelSweepExecutor,
        "map_robust",
        lambda self, func, items, *, timeout=None, retries=1: scripted.map_robust(
            func, items, timeout=timeout, retries=retries
        ),
    )
    return scripted


@pytest.fixture
def executor():
    exe = CachingSweepExecutor(workers=1)
    yield exe
    exe.close()


def _call(exe, method, items):
    return getattr(exe, method)(run_steady_point, items)


BOTH_MAPS = pytest.mark.parametrize("method", ["map", "map_robust"])


class TestCachedMapSemantics:
    @BOTH_MAPS
    def test_a_repeat_after_the_call_resolved_is_a_hit(self, compute, executor, method):
        (cold,) = _call(executor, method, [_spec(1)])
        (warm,) = _call(executor, method, [_spec(1)])
        assert cold == warm == _fake_result(_spec(1))
        assert compute.batches == [[_spec(1)]]
        stats = executor.stats
        assert (stats.hits, stats.misses, stats.coalesced) == (1, 1, 0)

    @BOTH_MAPS
    def test_only_the_misses_reach_the_pool(self, compute, executor, method):
        _call(executor, method, [_spec(1)])
        values = _call(executor, method, [_spec(2), _spec(1), _spec(3)])
        assert compute.batches[1] == [_spec(2), _spec(3)]
        assert values == [_fake_result(_spec(s)) for s in (2, 1, 3)]

    @BOTH_MAPS
    def test_duplicates_coalesce_per_key_across_a_batch(self, compute, executor, method):
        batch = [_spec(1), _spec(2), _spec(1), _spec(2), _spec(1)]
        values = _call(executor, method, batch)
        assert compute.batches == [[_spec(1), _spec(2)]]
        assert values == [_fake_result(point) for point in batch]
        assert (executor.stats.misses, executor.stats.coalesced) == (2, 3)

    @BOTH_MAPS
    def test_every_computed_result_is_stored_under_its_key(self, compute, executor, method):
        values = _call(executor, method, [_spec(1), _spec(2)])
        assert executor.stats.stores == 2
        for point, value in zip([_spec(1), _spec(2)], values):
            assert executor.cache.lookup(point_key(point)) == value

    @BOTH_MAPS
    def test_an_empty_call_computes_nothing(self, compute, executor, method):
        assert _call(executor, method, []) == []
        assert compute.batches == []
        assert executor.stats.lookups == 0

    @BOTH_MAPS
    def test_a_directory_cache_replays_into_a_fresh_executor(
        self, compute, tmp_path, method
    ):
        batch = [_spec(1), _spec(2)]
        first = CachingSweepExecutor(cache=DirectoryResultCache(tmp_path), workers=1)
        try:
            cold = _call(first, method, batch)
        finally:
            first.close()
        second = CachingSweepExecutor(cache=DirectoryResultCache(tmp_path), workers=1)
        try:
            warm = _call(second, method, batch)
        finally:
            second.close()
        assert warm == cold
        assert len(compute.batches) == 1
        assert (second.stats.hits, second.stats.misses) == (2, 0)

    @pytest.mark.parametrize("func", [run_steady_point, _not_a_point_runner])
    def test_timeout_and_retries_reach_the_parent(self, compute, executor, func):
        executor.map_robust(func, [_spec(1)], timeout=0.5, retries=3)
        assert compute.robust_kwargs == [(0.5, 3)]
        assert executor.stats.lookups == (1 if func is run_steady_point else 0)

    def test_mixed_batch_keeps_good_points(self, compute, executor):
        compute.fail_seeds = {2}
        values = executor.map_robust(run_steady_point, [_spec(1), _spec(2), _spec(3)])
        assert values[0] == _fake_result(_spec(1))
        assert isinstance(values[1], PointFailure) and values[1].error == "bad point"
        assert values[2] == _fake_result(_spec(3))
        assert point_key(_spec(1)) in executor.cache
        assert point_key(_spec(2)) not in executor.cache
        assert point_key(_spec(3)) in executor.cache
        assert executor.stats.stores == 2

    def test_a_failed_point_is_retried_by_the_next_call(self, compute, executor):
        compute.fail_seeds = {1}
        (failed,) = executor.map_robust(run_steady_point, [_spec(1)])
        compute.fail_seeds = set()
        (value,) = executor.map_robust(run_steady_point, [_spec(1)])
        assert isinstance(failed, PointFailure)
        assert value == _fake_result(_spec(1))
        assert compute.batches == [[_spec(1)], [_spec(1)]]
        assert (executor.stats.misses, executor.stats.hits, executor.stats.stores) == (2, 0, 1)

    def test_a_failure_does_not_poison_a_shared_cache(self, compute):
        cache = InMemoryResultCache()
        compute.fail_seeds = {1}
        failing = CachingSweepExecutor(cache=cache, workers=1)
        try:
            (failed,) = failing.map_robust(run_steady_point, [_spec(1)])
        finally:
            failing.close()
        assert isinstance(failed, PointFailure) and len(cache) == 0
        compute.fail_seeds = set()
        healthy = CachingSweepExecutor(cache=cache, workers=1)
        try:
            (value,) = healthy.map_robust(run_steady_point, [_spec(1)])
        finally:
            healthy.close()
        assert value == _fake_result(_spec(1))
        assert point_key(_spec(1)) in cache

    def test_a_raising_map_stores_nothing(self, compute, executor):
        compute.fail_seeds = {2}
        with pytest.raises(RuntimeError, match="worker crashed"):
            executor.map(run_steady_point, [_spec(1), _spec(2)])
        assert len(executor.cache) == 0 and executor.stats.stores == 0

    def test_any_iterable_of_specs_is_accepted(self, compute, executor):
        values = executor.map(run_steady_point, (_spec(s) for s in (1, 2)))
        assert values == [_fake_result(_spec(1)), _fake_result(_spec(2))]

    def test_uncacheable_specs_in_a_mixed_batch_compute_but_are_not_stored(
        self, compute, executor
    ):
        factory = _factory_spec()
        values = executor.map(run_steady_point, [factory, _spec(1)])
        assert compute.batches == [[factory, _spec(1)]]
        assert values == [_fake_result(factory), _fake_result(_spec(1))]
        assert executor.stats.lookups == 1 and len(executor.cache) == 1

    def test_uncacheable_duplicates_each_compute(self, compute, executor):
        factory = _factory_spec()
        executor.map(run_steady_point, [factory, factory])
        assert compute.batches == [[factory, factory]]
        assert executor.stats.coalesced == 0

    def test_hit_rate_of_a_cold_then_warm_pass_is_one_half(self, compute, executor):
        batch = [_spec(1), _spec(2), _spec(3)]
        executor.map(run_steady_point, batch)
        executor.map(run_steady_point, batch)
        assert executor.stats.hit_rate == 0.5


class TestFigureRouting:
    def test_figure5_warm_rerun_is_all_hits_with_identical_rows(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "cache")
        kwargs = dict(
            pattern="UN",
            scale=TINY_SCALE,
            routings=["MIN", "VAL"],
            loads=[0.1, 0.4],
        )
        exe = CachingSweepExecutor(cache=cache)
        try:
            cold = run_figure5(executor=exe, **kwargs)
            assert exe.stats.hits == 0 and exe.stats.misses > 0
            cold_misses = exe.stats.misses
            warm = run_figure5(executor=exe, **kwargs)
        finally:
            exe.close()
        assert warm == cold  # bit-identical rows
        assert exe.stats.hits == cold_misses  # every point served from cache
        assert exe.stats.misses == cold_misses  # no new computations

    def test_figure5_cache_survives_into_a_fresh_executor(self, tmp_path):
        cache_dir = tmp_path / "cache"
        kwargs = dict(pattern="UN", scale=TINY_SCALE, routings=["MIN"], loads=[0.1])
        exe = CachingSweepExecutor(cache=DirectoryResultCache(cache_dir))
        try:
            cold = run_figure5(executor=exe, **kwargs)
        finally:
            exe.close()
        # A brand-new process would reopen the directory exactly like this.
        exe2 = CachingSweepExecutor(cache=DirectoryResultCache(cache_dir))
        try:
            warm = run_figure5(executor=exe2, **kwargs)
        finally:
            exe2.close()
        assert warm == cold
        assert exe2.stats.misses == 0 and exe2.stats.hits > 0

    def test_figure6_pattern_factory_points_bypass_the_cache(self):
        exe = CachingSweepExecutor()
        kwargs = dict(
            scale=TINY_SCALE,
            routings=["MIN"],
            uniform_fractions=(0.0, 1.0),
        )
        try:
            first = run_figure6(executor=exe, **kwargs)
            second = run_figure6(executor=exe, **kwargs)
        finally:
            exe.close()
        assert exe.stats.lookups == 0  # nothing had a content address
        assert first == second

    def test_transient_comparison_routes_through_the_cache(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "cache")
        exe = CachingSweepExecutor(cache=cache)
        try:
            cold = transient_comparison(TINY_SCALE, ["MIN"], executor=exe)
            assert exe.stats.misses == len(TINY_SCALE.seeds)
            warm = transient_comparison(TINY_SCALE, ["MIN"], executor=exe)
        finally:
            exe.close()
        assert warm == cold
        assert exe.stats.hits == len(TINY_SCALE.seeds)
        summary = cache.summary()
        assert summary["kinds"] == {"transient": len(TINY_SCALE.seeds)}


def test_importing_the_simulator_and_the_service_leaves_asyncio_unloaded():
    # The statement perf/run.py times as setup_s, in a fresh interpreter.
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    code = (
        "import sys\n"
        "import repro.simulation.simulator, repro.service\n"
        "print('asyncio' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
