"""Content-addressed cache keys for sweep points.

Determinism makes result caching *sound*: two runs of the same
``(configuration, seed)`` provably produce identical results — a property
the repo enforces bit-exactly across engine backends (golden suite,
cross-backend property grid) — so a cached row can be served in place of a
recomputation without changing a single float.  The key built here is the
contract that carries that soundness:

* the **configuration** part is the same sha256 ``config_hash`` the
  observability layer stamps into trace manifests
  (:func:`repro.obs.telemetry.config_hash` over
  :meth:`~repro.config.parameters.SimulationParameters.canonical_dict`),
  so cache entries and traces agree on configuration identity.  The
  ``backend`` field is excluded there: backends are bit-identical by
  contract, so an ``object``-computed row legitimately serves an ``soa``
  request (pinned by ``tests/service/test_cache_soundness.py``);
* the **point** part covers everything else that selects the computation:
  routing, pattern, offered load, cycle counts, seed, and the canonical
  form of the fault model;
* the **schema** part is :data:`~repro.simulation.results.GOLDENS_SCHEMA_REV`:
  when the result-row schema changes (and the goldens are re-recorded),
  every previously cached row silently becomes a miss instead of being
  deserialized into the wrong shape.

Points that carry a ``pattern_factory`` are *not cacheable*: an arbitrary
callable has no sound canonical serialization, so those points always
compute (see :func:`is_cacheable`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.experiments.parallel import SteadyPointSpec, TransientPointSpec
from repro.obs.telemetry import config_hash
from repro.simulation.results import GOLDENS_SCHEMA_REV
from repro.topology.faults import FaultModel

__all__ = [
    "canonical_fault_model",
    "is_cacheable",
    "point_key",
    "point_payload",
    "result_fingerprint",
    "row_fingerprint",
]

# One encoder each, built once: ``json.dumps`` with options constructs a new
# ``JSONEncoder`` per call.  The options are the key and fingerprint formats
# themselves; changing either empties every existing cache.
_KEY_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_FINGERPRINT_JSON = json.JSONEncoder(sort_keys=True)


def canonical_fault_model(model: Optional[FaultModel]) -> Optional[Dict[str, Any]]:
    """JSON-serializable canonical form of a fault model.

    A trivial model (injects nothing) canonicalizes to ``None`` — the
    simulator spawns the fault RNG stream only for non-trivial models, so
    ``FaultModel()`` and "no fault model" are provably the same
    computation.  Link collections are sorted: the runtime canonicalizes
    them into sets/dicts, so listing order is not semantic.
    """
    if model is None or model.is_trivial:
        return None
    return {
        "link_failure_percent": model.link_failure_percent,
        "failed_links": sorted([r, p] for r, p in model.failed_links),
        "degraded_links": sorted(
            [
                [link[0], link[1]],
                {
                    "bandwidth_factor": deg.bandwidth_factor,
                    "latency_factor": deg.latency_factor,
                    "contention_bias": deg.contention_bias,
                },
            ]
            for link, deg in model.degraded_links
        ),
        "schedule": (
            [[e.cycle, [e.link[0], e.link[1]], e.kind] for e in model.schedule.events]
            if model.schedule is not None
            else None
        ),
        "allow_partition": model.allow_partition,
    }


def is_cacheable(spec: Any) -> bool:
    """Whether ``spec`` has a sound content address.

    True for :class:`SteadyPointSpec` (without a ``pattern_factory`` —
    callables have no canonical serialization) and for
    :class:`TransientPointSpec`.  Anything else computes uncached.
    """
    if isinstance(spec, SteadyPointSpec):
        return spec.pattern_factory is None and isinstance(spec.pattern, str)
    return isinstance(spec, TransientPointSpec)


def point_payload(spec: Any) -> Dict[str, Any]:
    """The canonical key payload of a cacheable point spec."""
    if isinstance(spec, SteadyPointSpec):
        if not is_cacheable(spec):
            raise ValueError(
                "points with a pattern_factory are not cacheable "
                "(a callable has no canonical serialization)"
            )
        return {
            "kind": "steady",
            "schema": GOLDENS_SCHEMA_REV,
            "config_hash": config_hash(spec.params),
            "routing": spec.routing,
            "pattern": spec.pattern,
            "offered_load": spec.offered_load,
            "warmup_cycles": spec.warmup_cycles,
            "measure_cycles": spec.measure_cycles,
            "seed": spec.seed,
            "fault_model": canonical_fault_model(spec.fault_model),
        }
    if isinstance(spec, TransientPointSpec):
        return {
            "kind": "transient",
            "schema": GOLDENS_SCHEMA_REV,
            "config_hash": config_hash(spec.params),
            "routing": spec.routing,
            "before": spec.before,
            "after": spec.after,
            "offered_load": spec.offered_load,
            "warmup_cycles": spec.warmup_cycles,
            "observe_before": spec.observe_before,
            "observe_after": spec.observe_after,
            "bin_size": spec.bin_size,
            "seed": spec.seed,
        }
    raise TypeError(f"no cache key for {type(spec).__name__}")


def point_key(spec: Any) -> str:
    """Content address of one sweep point (64 hex chars, sha256)."""
    canonical = _KEY_JSON.encode(point_payload(spec))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_fingerprint(result: Any) -> str:
    """Golden-style digest: sha256 over the canonical JSON of a result.

    The same "last float bit" contract the goldens and the cross-backend
    property grid pin — two results fingerprint equal iff every field is
    bit-identical.  Stored with each cache entry and re-checked on lookup,
    so a corrupted or mis-deserialized entry surfaces as a miss, never as
    a silently wrong row.
    """
    return row_fingerprint(result.as_dict())


def row_fingerprint(row: Dict[str, Any]) -> str:
    """:func:`result_fingerprint` of the result whose ``as_dict()`` is ``row``."""
    return hashlib.sha256(_FINGERPRINT_JSON.encode(row).encode()).hexdigest()
