"""Content-addressed result cache for sweep points.

Entries map a :func:`~repro.service.keys.point_key` to one serialized
result row plus its :func:`~repro.service.keys.result_fingerprint`.  Two
backends share the same interface:

:class:`InMemoryResultCache`
    A dict — the working set of one service process.

:class:`DirectoryResultCache`
    One JSON file per entry under ``<root>/<key[:2]>/<key>.json``, written
    atomically (temp file + ``os.replace``), so concurrent writers and a
    reader racing a writer can never observe a torn entry.  Survives
    across processes; this is what the CLI and the CI smoke lane use.

Both verify on lookup: the stored fingerprint must match the fingerprint
recomputed from the *deserialized* result, so a corrupted file, a stale
schema revision, or any lossy round-trip surfaces as a **miss** (and the
bad entry is dropped), never as a silently wrong row.  Failures
(:class:`~repro.experiments.parallel.PointFailure`) are never stored —
a failure describes the attempt, not the point's value.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.service.keys import result_fingerprint, row_fingerprint
from repro.simulation.results import (
    GOLDENS_SCHEMA_REV,
    SteadyStateResult,
    TransientResult,
)

__all__ = [
    "CACHE_ENTRY_SCHEMA",
    "STALE_TMP_GRACE_SECONDS",
    "CacheStats",
    "InMemoryResultCache",
    "DirectoryResultCache",
    "encode_entry",
    "decode_entry",
]

#: Layout version of the entry envelope itself (independent of the result
#: schema revision, which is carried *inside* the envelope).
CACHE_ENTRY_SCHEMA = 1

#: Minimum age (seconds) before an orphaned ``.tmp`` file is swept.  A live
#: writer holds its temp file for well under a second (one ``json.dump``
#: plus ``os.replace``); anything older is the leftover of a writer that
#: died between ``mkstemp`` and ``os.replace`` and would otherwise
#: accumulate forever, invisible to the ``??/*.json`` entry glob.
STALE_TMP_GRACE_SECONDS = 60.0

_KINDS = {
    "steady": SteadyStateResult,
    "transient": TransientResult,
}


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache (or one caching executor)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    coalesced: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "coalesced": self.coalesced,
            "invalidated": self.invalidated,
            "hit_rate": self.hit_rate,
        }


def encode_entry(key: str, result: Any) -> Dict[str, Any]:
    """Serialize one result into its cache-entry envelope."""
    for kind, cls in _KINDS.items():
        if isinstance(result, cls):
            row = result.as_dict()
            return {
                "entry_schema": CACHE_ENTRY_SCHEMA,
                "schema": GOLDENS_SCHEMA_REV,
                "key": key,
                "kind": kind,
                "result": row,
                "fingerprint": row_fingerprint(row),
            }
    raise TypeError(f"cannot cache a {type(result).__name__}")


def decode_entry(entry: Dict[str, Any], key: str) -> Optional[Any]:
    """Deserialize and *verify* one entry; ``None`` when it is unusable.

    Unusable means: not a JSON object, wrong envelope layout, a different
    result-schema revision (goldens-schema bump invalidation), a key
    mismatch, an unknown result kind, or a fingerprint that no longer
    matches the deserialized result.
    """
    if not isinstance(entry, dict):
        return None
    try:
        if entry.get("entry_schema") != CACHE_ENTRY_SCHEMA:
            return None
        if entry.get("schema") != GOLDENS_SCHEMA_REV:
            return None
        if entry.get("key") != key:
            return None
        cls = _KINDS.get(entry.get("kind"))
        if cls is None:
            return None
        result = cls.from_dict(entry["result"])
        if result_fingerprint(result) != entry.get("fingerprint"):
            return None
        return result
    except (KeyError, TypeError, ValueError):
        return None


def _read_entry(path: "str | os.PathLike") -> Optional[Dict[str, Any]]:
    """One entry file parsed; ``None`` when it is unreadable or not an object.

    Read once as bytes: ``json.loads`` detects the encoding itself, and a
    file that is not UTF-8 fails as a ``ValueError`` like any other parse
    error, so every corrupt payload degrades to ``None``.
    """
    try:
        with open(path, "rb") as handle:
            entry = json.loads(handle.read())
    except (OSError, ValueError):
        return None
    return entry if isinstance(entry, dict) else None


class InMemoryResultCache:
    """Dict-backed content-addressed result cache."""

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, Any]] = {}
        self.stats = CacheStats()

    def lookup(self, key: str) -> Optional[Any]:
        entry = self._entries.get(key)
        result = decode_entry(entry, key) if entry is not None else None
        if result is None:
            if entry is not None:
                del self._entries[key]
                self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store(self, key: str, result: Any) -> None:
        self._entries[key] = encode_entry(key, result)
        self.stats.stores += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class DirectoryResultCache:
    """File-per-entry cache rooted at a directory (cross-process, atomic).

    The two-character fan-out directory keeps any single directory from
    collecting millions of entries.  Writes go through a temp file in the
    destination directory followed by ``os.replace`` — atomic on POSIX —
    so a concurrent reader sees either the old entry, the new entry, or
    no entry; never a partial file.  Unreadable or invalid files are
    treated as misses and removed best-effort.
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)  # per-lookup paths are joined as strings
        self.stats = CacheStats()

    def _path(self, key: str) -> str:
        return f"{self._root}/{key[:2]}/{key}.json"

    def lookup(self, key: str) -> Optional[Any]:
        path = self._path(key)
        entry = _read_entry(path)
        result = decode_entry(entry, key) if entry is not None else None
        if result is None:
            if os.path.exists(path):
                self.stats.invalidated += 1
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - racing unlink
                    pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def store(self, key: str, result: Any) -> None:
        entry = encode_entry(key, result)
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def _files(self):
        return sorted(self.root.glob("??/*.json"))

    def _tmp_files(self):
        return sorted(self.root.glob("??/*.tmp"))

    def _stale_tmp_files(self, grace: float = STALE_TMP_GRACE_SECONDS):
        """Orphaned temp files older than ``grace`` seconds.

        The age check keeps a concurrent writer's live temp file (held only
        between ``mkstemp`` and ``os.replace``) out of the sweep.
        """
        now = time.time()
        stale = []
        for path in self._tmp_files():
            try:
                if now - path.stat().st_mtime >= grace:
                    stale.append(path)
            except OSError:  # pragma: no cover - racing replace/unlink
                pass
        return stale

    def clear(self) -> int:
        """Remove every entry and stale temp file; returns the number removed."""
        removed = 0
        for path in self._files() + self._stale_tmp_files():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing unlink
                pass
        return removed

    def prune_stale(self) -> int:
        """Drop stale-schema entries and orphaned temp files.

        Entries whose result-schema revision is not current are removed, as
        are ``.tmp`` files left behind by writers that died between
        ``mkstemp`` and ``os.replace`` (older than
        :data:`STALE_TMP_GRACE_SECONDS`; fresher ones may belong to a live
        writer and are left alone).
        """
        removed = 0
        for path in self._files():
            entry = _read_entry(path)
            if entry is None or entry.get("schema") != GOLDENS_SCHEMA_REV:
                try:
                    path.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing unlink
                    pass
        for path in self._stale_tmp_files():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing unlink
                pass
        return removed

    def summary(self) -> Dict[str, object]:
        """Entry counts by kind and schema revision (for the CLI).

        Unreadable files are reported under ``corrupt`` rather than counted
        as entries (their kind/schema/size are unknown anyway); leftover
        temp files show up under ``tmp_files`` so an accumulation of dead
        writers is visible before ``prune_stale`` sweeps them.
        """
        kinds: Dict[str, int] = {}
        schemas: Dict[str, int] = {}
        total_bytes = 0
        corrupt = 0
        files = self._files()
        for path in files:
            entry = _read_entry(path)
            if entry is None:
                corrupt += 1
                continue
            try:
                total_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - racing unlink
                corrupt += 1
                continue
            kind = str(entry.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
            schema = str(entry.get("schema", "?"))
            schemas[schema] = schemas.get(schema, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(files) - corrupt,
            "corrupt": corrupt,
            "tmp_files": len(self._tmp_files()),
            "bytes": total_bytes,
            "kinds": kinds,
            "schemas": schemas,
            "current_schema": GOLDENS_SCHEMA_REV,
        }

    def __len__(self) -> int:
        return len(self._files())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))
