"""Soundness of the cache entry envelope and both cache backends.

The one property everything rests on: a lookup either returns the
bit-exact result that was stored, or a miss.  There is no third outcome —
corruption, schema drift, and key collisions all degrade to recomputation,
never to a wrong row.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.experiments.parallel import PointFailure
from repro.service.cache import (
    CACHE_ENTRY_SCHEMA,
    STALE_TMP_GRACE_SECONDS,
    CacheStats,
    DirectoryResultCache,
    InMemoryResultCache,
    decode_entry,
    encode_entry,
)
from repro.service.keys import result_fingerprint
from repro.simulation.results import (
    GOLDENS_SCHEMA_REV,
    SteadyStateResult,
    TransientResult,
)

KEY = "ab" * 32
OTHER_KEY = "cd" * 32

#: Entry files that are not a usable JSON object: bytes that are not UTF-8,
#: and valid JSON that is not an object.  Each must read as a miss.
CORRUPT_PAYLOADS = [b"\xff\xfe\x00\xd8 not utf-8", b"[]", b"42"]


def steady_result(**overrides) -> SteadyStateResult:
    base = dict(
        routing="Base",
        pattern="ADV+1",
        offered_load=0.3,
        seed=42,
        mean_latency=123.456789,
        p99_latency=987.654321,
        accepted_load=0.29,
        global_misroute_fraction=0.125,
        local_misroute_fraction=0.0625,
        mean_hops=3.5,
        delivered_packets=12345,
        dropped_packets=3,
        fault_rerouted_packets=7,
    )
    base.update(overrides)
    return SteadyStateResult(**base)


def transient_result() -> TransientResult:
    return TransientResult(
        routing="Hybrid",
        offered_load=0.2,
        seed=7,
        switch_cycle=500,
        cycles=[-20, -10, 0, 10, 20],
        mean_latency=[10.0, 11.5, 40.25, 22.125, 15.0],
        misrouted_fraction=[0.0, 0.0, 0.5, 0.25, 0.125],
    )


class TestEntryEnvelope:
    @pytest.mark.parametrize("result", [steady_result(), transient_result()])
    def test_round_trip_is_bit_exact(self, result):
        entry = encode_entry(KEY, result)
        # Force the JSON byte round-trip the directory cache performs.
        entry = json.loads(json.dumps(entry, sort_keys=True))
        decoded = decode_entry(entry, KEY)
        assert decoded == result
        assert result_fingerprint(decoded) == result_fingerprint(result)

    def test_envelope_carries_schema_and_fingerprint(self):
        entry = encode_entry(KEY, steady_result())
        assert entry["entry_schema"] == CACHE_ENTRY_SCHEMA
        assert entry["schema"] == GOLDENS_SCHEMA_REV
        assert entry["key"] == KEY
        assert entry["kind"] == "steady"
        assert entry["fingerprint"] == result_fingerprint(steady_result())

    def test_failures_are_never_encodable(self):
        failure = PointFailure(spec=None, error="boom", kind="error")
        with pytest.raises(TypeError):
            encode_entry(KEY, failure)

    def test_stale_goldens_schema_rev_invalidates(self):
        entry = encode_entry(KEY, steady_result())
        entry["schema"] = "golden-results-v1"
        assert decode_entry(entry, KEY) is None

    def test_foreign_envelope_layout_invalidates(self):
        entry = encode_entry(KEY, steady_result())
        entry["entry_schema"] = CACHE_ENTRY_SCHEMA + 1
        assert decode_entry(entry, KEY) is None

    def test_key_mismatch_invalidates(self):
        entry = encode_entry(KEY, steady_result())
        assert decode_entry(entry, OTHER_KEY) is None

    def test_unknown_kind_invalidates(self):
        entry = encode_entry(KEY, steady_result())
        entry["kind"] = "mystery"
        assert decode_entry(entry, KEY) is None

    def test_tampered_result_fails_the_fingerprint_check(self):
        entry = encode_entry(KEY, steady_result())
        entry["result"]["mean_latency"] += 1e-9
        assert decode_entry(entry, KEY) is None

    def test_missing_result_fields_invalidate(self):
        entry = encode_entry(KEY, steady_result())
        del entry["result"]["mean_latency"]
        assert decode_entry(entry, KEY) is None

    @pytest.mark.parametrize("entry", [[], 42, "entry", None])
    def test_a_non_object_entry_invalidates(self, entry):
        assert decode_entry(entry, KEY) is None


class TestInMemoryCache:
    def test_miss_then_store_then_hit(self):
        cache = InMemoryResultCache()
        assert cache.lookup(KEY) is None
        cache.store(KEY, steady_result())
        assert cache.lookup(KEY) == steady_result()
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert len(cache) == 1 and KEY in cache

    def test_tampered_entry_is_dropped_not_served(self):
        cache = InMemoryResultCache()
        cache.store(KEY, steady_result())
        cache._entries[KEY]["result"]["seed"] = 999.0
        assert cache.lookup(KEY) is None
        assert cache.stats.invalidated == 1
        assert KEY not in cache  # dropped, so the next store can heal it

    def test_clear(self):
        cache = InMemoryResultCache()
        cache.store(KEY, steady_result())
        cache.clear()
        assert len(cache) == 0


class TestDirectoryCache:
    def test_entries_survive_across_instances(self, tmp_path):
        DirectoryResultCache(tmp_path / "c").store(KEY, steady_result())
        reopened = DirectoryResultCache(tmp_path / "c")
        assert reopened.lookup(KEY) == steady_result()
        assert len(reopened) == 1 and KEY in reopened

    def test_fan_out_layout_and_no_leftover_temp_files(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        assert (tmp_path / "c" / KEY[:2] / f"{KEY}.json").exists()
        assert not list((tmp_path / "c").rglob("*.tmp"))

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        path = tmp_path / "c" / KEY[:2] / f"{KEY}.json"
        path.write_text("{ not json")
        assert cache.lookup(KEY) is None
        assert cache.stats.invalidated == 1
        assert not path.exists()

    def test_tampered_file_is_a_miss_and_removed(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        path = tmp_path / "c" / KEY[:2] / f"{KEY}.json"
        entry = json.loads(path.read_text())
        entry["result"]["accepted_load"] = 1.0
        path.write_text(json.dumps(entry))
        assert cache.lookup(KEY) is None
        assert not path.exists()

    # Regression: a non-UTF-8 file raised UnicodeDecodeError and a JSON
    # array or number raised AttributeError, out of lookup, summary and
    # prune_stale alike, instead of reading as a corrupt entry.
    @pytest.mark.parametrize("payload", CORRUPT_PAYLOADS)
    def test_a_corrupt_payload_is_a_miss_and_removed(self, tmp_path, payload):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        path = tmp_path / "c" / KEY[:2] / f"{KEY}.json"
        path.write_bytes(payload)
        assert cache.lookup(KEY) is None
        assert cache.stats.invalidated == 1
        assert cache.stats.misses == 1
        assert not path.exists()

    @pytest.mark.parametrize("payload", CORRUPT_PAYLOADS)
    def test_summary_counts_a_corrupt_payload(self, tmp_path, payload):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        cache.store(OTHER_KEY, transient_result())
        (tmp_path / "c" / KEY[:2] / f"{KEY}.json").write_bytes(payload)
        summary = cache.summary()
        assert summary["corrupt"] == 1
        assert summary["entries"] == 1
        assert summary["kinds"] == {"transient": 1}

    def test_summary_survives_an_object_with_an_unhashable_kind(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        (tmp_path / "c" / KEY[:2] / f"{KEY}.json").write_text('{"kind": [], "schema": 3}')
        summary = cache.summary()
        assert summary["kinds"] == {"[]": 1}
        assert summary["schemas"] == {"3": 1}

    @pytest.mark.parametrize("payload", CORRUPT_PAYLOADS)
    def test_prune_stale_removes_a_corrupt_payload(self, tmp_path, payload):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        cache.store(OTHER_KEY, transient_result())
        path = tmp_path / "c" / KEY[:2] / f"{KEY}.json"
        path.write_bytes(payload)
        assert cache.prune_stale() == 1
        assert not path.exists()
        assert cache.lookup(OTHER_KEY) == transient_result()

    @pytest.mark.parametrize("result", [steady_result(), transient_result()])
    def test_store_writes_the_sorted_json_of_the_envelope(self, tmp_path, result):
        """The on-disk bytes are the envelope's ``json.dumps(..., sort_keys=True)``."""
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, result)
        envelope = {
            "entry_schema": CACHE_ENTRY_SCHEMA,
            "schema": GOLDENS_SCHEMA_REV,
            "key": KEY,
            "kind": "steady" if isinstance(result, SteadyStateResult) else "transient",
            "result": result.as_dict(),
            "fingerprint": result_fingerprint(result),
        }
        written = (tmp_path / "c" / KEY[:2] / f"{KEY}.json").read_bytes()
        assert written == json.dumps(envelope, sort_keys=True).encode()

    def test_prune_stale_drops_only_old_schema_entries(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        cache.store(OTHER_KEY, transient_result())
        path = tmp_path / "c" / KEY[:2] / f"{KEY}.json"
        entry = json.loads(path.read_text())
        entry["schema"] = "golden-results-v1"
        path.write_text(json.dumps(entry))
        assert cache.prune_stale() == 1
        assert KEY not in cache and OTHER_KEY in cache

    def test_clear_and_summary(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        cache.store(OTHER_KEY, transient_result())
        summary = cache.summary()
        assert summary["entries"] == 2
        assert summary["corrupt"] == 0
        assert summary["tmp_files"] == 0
        assert summary["kinds"] == {"steady": 1, "transient": 1}
        assert summary["schemas"] == {GOLDENS_SCHEMA_REV: 2}
        assert cache.clear() == 2
        assert len(cache) == 0

    @staticmethod
    def _orphan_tmp(cache: DirectoryResultCache, key: str, age: float):
        """Plant a ``.tmp`` file as a writer dying mid-store would leave it."""
        fan_out = cache.root / key[:2]
        fan_out.mkdir(parents=True, exist_ok=True)
        path = fan_out / f"tmp{key[:6]}.tmp"
        path.write_text('{"half": ')
        when = time.time() - age
        os.utime(path, (when, when))
        return path

    # Regression: orphaned temp files (writer died between mkstemp and
    # os.replace) were invisible to the ``??/*.json`` glob, so neither
    # prune_stale nor clear ever removed them and they accumulated forever.
    def test_prune_stale_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        old = self._orphan_tmp(cache, KEY, age=2 * STALE_TMP_GRACE_SECONDS)
        fresh = self._orphan_tmp(cache, OTHER_KEY, age=0.0)
        assert cache.prune_stale() == 1
        assert not old.exists()
        # A live writer's temp file is younger than the grace period and
        # must survive the sweep.
        assert fresh.exists()
        assert cache.lookup(KEY) == steady_result()

    def test_clear_removes_stale_tmp_files_too(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        old = self._orphan_tmp(cache, KEY, age=2 * STALE_TMP_GRACE_SECONDS)
        assert cache.clear() == 2
        assert not old.exists()
        assert len(cache) == 0

    # Regression: summary() counted unreadable files in ``entries`` while
    # excluding them from bytes/kinds/schemas, so the numbers disagreed.
    def test_summary_reports_corrupt_and_tmp_files_separately(self, tmp_path):
        cache = DirectoryResultCache(tmp_path / "c")
        cache.store(KEY, steady_result())
        cache.store(OTHER_KEY, transient_result())
        (tmp_path / "c" / KEY[:2] / f"{KEY}.json").write_text("{ not json")
        self._orphan_tmp(cache, KEY, age=2 * STALE_TMP_GRACE_SECONDS)
        summary = cache.summary()
        assert summary["entries"] == 1
        assert summary["corrupt"] == 1
        assert summary["tmp_files"] == 1
        assert summary["kinds"] == {"transient": 1}
        assert summary["schemas"] == {GOLDENS_SCHEMA_REV: 1}


class TestCacheStats:
    def test_hit_rate_and_lookups(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_as_dict_is_json_serializable(self):
        json.dumps(CacheStats(hits=1, misses=1).as_dict())
