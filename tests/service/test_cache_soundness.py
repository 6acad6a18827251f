"""Cross-backend cache soundness: cached rows are bit-identical everywhere.

The cache key deliberately excludes the ``backend`` field, so a point
computed under ``REPRO_BACKEND=object`` may be served to an soa request
(and vice versa).  That is sound only if the served row equals what the
requesting backend would have computed — bit for bit, by the same SHA-256
fingerprint the golden suite and ``tests/simulation/test_soa_backend.py``
pin.  This suite closes the loop end-to-end through the real cache:
compute on one backend, serve from cache to the other, recompute fresh on
the other, compare fingerprints.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config.parameters import SimulationParameters
from repro.experiments.parallel import (
    SteadyPointSpec,
    TransientPointSpec,
    run_steady_point,
    run_transient_point_spec,
)
from repro.service import (
    CachingSweepExecutor,
    DirectoryResultCache,
    point_key,
    result_fingerprint,
)
from repro.topology.faults import FaultModel

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _steady_spec(backend: str, *, faults: bool = False) -> SteadyPointSpec:
    return SteadyPointSpec(
        params=SimulationParameters.tiny().with_backend(backend),
        routing="Base",
        pattern="ADV+1",
        offered_load=0.45,
        warmup_cycles=80,
        measure_cycles=160,
        seed=11,
        fault_model=FaultModel(link_failure_percent=10.0) if faults else None,
    )


def _transient_spec(backend: str) -> TransientPointSpec:
    return TransientPointSpec(
        params=SimulationParameters.tiny().with_backend(backend),
        routing="Base",
        before="UN",
        after="ADV+1",
        offered_load=0.3,
        warmup_cycles=120,
        observe_before=40,
        observe_after=80,
        bin_size=20,
        seed=5,
    )


@pytest.mark.parametrize("producer,consumer", [("object", "soa"), ("soa", "object")])
def test_steady_row_cached_on_one_backend_serves_the_other(
    tmp_path, producer, consumer
):
    cache = DirectoryResultCache(tmp_path / "cache")
    exe = CachingSweepExecutor(cache=cache)
    try:
        # Cold: compute under the producer backend; the row enters the cache.
        (produced,) = exe.map(run_steady_point, [_steady_spec(producer)])
        assert exe.stats.misses == 1 and exe.stats.stores == 1

        # Warm: the consumer backend's request maps to the same key and is
        # served from cache without computing.
        consumer_spec = _steady_spec(consumer)
        assert point_key(consumer_spec) == point_key(_steady_spec(producer))
        (served,) = exe.map(run_steady_point, [consumer_spec])
        assert exe.stats.hits == 1
    finally:
        exe.close()

    # The served row must equal a *fresh* computation on the consumer
    # backend — the cross-backend bit-identity contract, via fingerprints.
    fresh = run_steady_point(consumer_spec)
    assert result_fingerprint(served) == result_fingerprint(fresh)
    assert result_fingerprint(served) == result_fingerprint(produced)
    assert served == fresh


def test_faulty_steady_row_is_cross_backend_sound(tmp_path):
    # Fault-aware routing exercises the fault RNG stream and the reroute /
    # drop counters; the cached row must still match an soa recomputation.
    cache = DirectoryResultCache(tmp_path / "cache")
    exe = CachingSweepExecutor(cache=cache)
    try:
        (served,) = exe.map(run_steady_point, [_steady_spec("object", faults=True)])
    finally:
        exe.close()
    fresh = run_steady_point(_steady_spec("soa", faults=True))
    assert result_fingerprint(served) == result_fingerprint(fresh)


def test_transient_row_cached_on_object_serves_soa(tmp_path):
    cache = DirectoryResultCache(tmp_path / "cache")
    exe = CachingSweepExecutor(cache=cache)
    try:
        exe.map(run_transient_point_spec, [_transient_spec("object")])
        (served,) = exe.map(run_transient_point_spec, [_transient_spec("soa")])
        assert exe.stats.hits == 1
    finally:
        exe.close()
    fresh = run_transient_point_spec(_transient_spec("soa"))
    assert result_fingerprint(served) == result_fingerprint(fresh)
    assert served == fresh


def test_cache_hit_is_byte_round_trip_of_the_stored_row(tmp_path):
    # A hit must be the fingerprint-verified deserialization of the stored
    # file, not a re-computation: corrupting the file after the cold run
    # must turn the warm request into a recomputation, never a wrong row.
    cache = DirectoryResultCache(tmp_path / "cache")
    exe = CachingSweepExecutor(cache=cache)
    try:
        spec = _steady_spec("object")
        (produced,) = exe.map(run_steady_point, [spec])
        path = Path(cache._path(point_key(spec)))
        path.write_text(path.read_text().replace("mean_latency", "mean_lateness"))
        (recomputed,) = exe.map(run_steady_point, [spec])
        assert exe.stats.invalidated == 0  # executor counts via cache.stats
        assert cache.stats.invalidated == 1
        assert result_fingerprint(recomputed) == result_fingerprint(produced)
    finally:
        exe.close()
