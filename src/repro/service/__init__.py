"""Sweep service: content-addressed result caching for figure sweeps.

The caching layer above
:class:`~repro.experiments.parallel.ParallelSweepExecutor`.  Determinism
makes result caching *sound* — identical (configuration, seed) provably
yield identical results, bit-exactly across engine backends — so repeated
figure requests are free:

* :mod:`repro.service.keys` — the cache-key contract: the same sha256
  ``config_hash`` the trace manifests carry, plus the point coordinates,
  the seed and the goldens-schema revision;
* :mod:`repro.service.cache` — in-memory and on-disk content-addressed
  stores with fingerprint-verified lookups;
* :mod:`repro.service.client` — :class:`CachingSweepExecutor`, the
  ``executor=``-compatible sweep executor every figure harness, the CLI
  and the benchmark reach the cache through.

CLI: ``python -m repro.tools.sweep_service`` (see EXPERIMENTS.md).
"""

from repro.service.cache import (
    CacheStats,
    DirectoryResultCache,
    InMemoryResultCache,
)
from repro.service.client import CachingSweepExecutor
from repro.service.keys import (
    canonical_fault_model,
    is_cacheable,
    point_key,
    point_payload,
    result_fingerprint,
)

__all__ = [
    "CacheStats",
    "DirectoryResultCache",
    "InMemoryResultCache",
    "CachingSweepExecutor",
    "canonical_fault_model",
    "is_cacheable",
    "point_key",
    "point_payload",
    "result_fingerprint",
]
