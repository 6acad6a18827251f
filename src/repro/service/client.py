"""The caching sweep executor.

:class:`CachingSweepExecutor` is a drop-in
:class:`~repro.experiments.parallel.ParallelSweepExecutor` that fronts
every ``map`` / ``map_robust`` call with the content-addressed result
cache.  This is how the figure harnesses route through the cache: every
experiment entry point accepts ``executor=``, so

>>> from repro.service import CachingSweepExecutor, DirectoryResultCache
>>> from repro.experiments.figure5 import run_figure5
>>> exe = CachingSweepExecutor(cache=DirectoryResultCache(".sweep-cache"))
>>> rows = run_figure5("UN", workers=4, executor=exe)   # cold: computes
>>> rows = run_figure5("UN", workers=4, executor=exe)   # warm: all hits

gives identical rows both times — bit-identical, because a hit is the
byte round-trip of the very result the cold run produced, verified by
fingerprint on the way out.

Only the recognized point runners are cached (the module-level steady /
transient runners the sweeps use); an unknown function, or a spec with no
sound content address (e.g. a ``pattern_factory`` point), delegates to the
plain executor untouched — the caching layer can slow nothing down and
never changes a value.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

from repro.experiments.parallel import (
    ParallelSweepExecutor,
    PointFailure,
    run_steady_point,
    run_transient_point_spec,
)
from repro.service.cache import CacheStats, InMemoryResultCache
from repro.service.keys import is_cacheable, point_key

__all__ = ["CachingSweepExecutor"]

#: Point runners whose (func, spec) pairs have a sound content address.
_CACHEABLE_RUNNERS = (run_steady_point, run_transient_point_spec)


class CachingSweepExecutor(ParallelSweepExecutor):
    """A sweep executor that serves repeated points from the result cache.

    Semantics relative to the parent class:

    * results are **bit-identical** to an uncached run — a hit is the
      fingerprint-verified round-trip of a previously computed result;
    * duplicate specs *within one call* coalesce: the point computes
      once and every duplicate is served from the fresh store;
    * :meth:`map_robust` failures (:class:`PointFailure`) are returned
      in place, exactly like the parent, and are **never cached** — the
      next request retries the point;
    * :meth:`map` with an unrecognized function, or specs without a
      content address, fall through to the parent unchanged.
    """

    def __init__(
        self,
        cache=None,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        super().__init__(workers=workers, start_method=start_method)
        self.cache = cache if cache is not None else InMemoryResultCache()
        self.stats = CacheStats()

    # -- caching map variants ----------------------------------------------
    def map(self, func: Callable, items: Sequence[Any]) -> List[Any]:
        if func not in _CACHEABLE_RUNNERS:
            return super().map(func, items)
        return self._map_cached(
            items, lambda missing: super(CachingSweepExecutor, self).map(func, missing)
        )

    def map_robust(
        self,
        func: Callable,
        items: Sequence[Any],
        *,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> List[Union[Any, PointFailure]]:
        if func not in _CACHEABLE_RUNNERS:
            return super().map_robust(func, items, timeout=timeout, retries=retries)
        return self._map_cached(
            items,
            lambda missing: super(CachingSweepExecutor, self).map_robust(
                func, missing, timeout=timeout, retries=retries
            ),
        )

    def _map_cached(self, items: Sequence[Any], compute) -> List[Any]:
        items = list(items)
        results: List[Any] = [None] * len(items)
        keys: List[Optional[str]] = [None] * len(items)
        missing: List[int] = []
        computing: dict = {}  # key -> index of the spec that computes it
        for i, spec in enumerate(items):
            if not is_cacheable(spec):
                missing.append(i)
                continue
            key = keys[i] = point_key(spec)
            cached = self.cache.lookup(key)
            if cached is not None:
                self.stats.hits += 1
                results[i] = cached
            elif key in computing:
                self.stats.coalesced += 1  # resolved after the compute pass
            else:
                self.stats.misses += 1
                computing[key] = i
                missing.append(i)
        if missing:
            computed = compute([items[i] for i in missing])
            for i, outcome in zip(missing, computed):
                results[i] = outcome
                key = keys[i]
                if key is not None and not isinstance(outcome, PointFailure):
                    self.cache.store(key, outcome)
                    self.stats.stores += 1
        # Serve intra-call duplicates from the freshly stored entries.
        for i, spec in enumerate(items):
            if results[i] is None and keys[i] is not None:
                results[i] = self.cache.lookup(keys[i])
                if results[i] is None:  # its computation failed: mirror it
                    results[i] = results[computing[keys[i]]]
        return results
