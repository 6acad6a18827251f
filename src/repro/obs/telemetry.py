"""Run telemetry: manifest, config hash, git revision, phase timers.

Every trace stream starts with a **manifest** line identifying the run —
enough to answer "what produced this file?" without the producing process:
schema versions, the configuration hash, seed, backend, routing/pattern
names and the git revision of the working tree.  Wall-clock **phase
timers** (warmup / measure / drain) accumulate into the hub's ``perf``
block, which is emitted as the last line of the stream.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "build_manifest",
    "config_hash",
    "git_revision",
    "phase_timer",
]

#: Version of the manifest line layout.
MANIFEST_SCHEMA_VERSION = 1
#: Version of the event-line layout (hop/snapshot/warp/perf records).
TRACE_SCHEMA_VERSION = 1


def config_hash(params) -> str:
    """Content hash of the simulated system's configuration.

    Hashes :meth:`~repro.config.parameters.SimulationParameters.canonical_dict`,
    which enumerates every semantic parameter field (including ones the
    reporting view omits) and excludes ``backend`` on purpose: the
    backends are bit-identical by contract, so traces produced by
    ``object`` and ``soa`` runs of the same configuration carry the same
    hash (the backend itself is a separate manifest field).  The sweep
    service builds its content-addressed cache key on this same hash
    (:mod:`repro.service.keys`), so cache entries and trace manifests
    always agree on configuration identity.

    The hash is the 16-hex sha256 prefix of the compact, key-sorted JSON
    of that dict, computed once per parameter instance (the frozen
    dataclass memoises it in ``SimulationParameters._config_hash``).
    """
    return params._config_hash


def git_revision(start: Optional[Path] = None) -> str:
    """Best-effort git revision of the tree containing ``start``.

    Reads ``.git/HEAD`` directly (no subprocess — telemetry must work in
    sandboxed CI and in sweep worker processes).  Returns ``"unknown"``
    when no repository is found or the files are unreadable.
    """
    try:
        directory = (start or Path(__file__)).resolve()
        for parent in [directory, *directory.parents]:
            git_dir = parent / ".git"
            if not git_dir.is_dir():
                continue
            head = (git_dir / "HEAD").read_text().strip()
            if head.startswith("ref:"):
                ref = head.split(None, 1)[1]
                ref_file = git_dir / ref
                if ref_file.is_file():
                    return ref_file.read_text().strip()[:12]
                packed = git_dir / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(ref):
                            return line.split()[0][:12]
                return "unknown"
            return head[:12]
    except OSError:  # pragma: no cover - unreadable .git
        pass
    return "unknown"


def build_manifest(sim) -> dict:
    """Manifest line for a :class:`~repro.simulation.simulator.Simulator`."""
    params = sim.params
    return {
        "ev": "manifest",
        "schema": MANIFEST_SCHEMA_VERSION,
        "trace_schema": TRACE_SCHEMA_VERSION,
        "config_hash": config_hash(params),
        "backend": params.backend,
        "seed": sim.seed,
        "routing": sim.routing.name,
        "pattern": sim.pattern.name,
        "offered_load": sim.traffic.offered_load,
        "topology": type(sim.topology).__name__,
        "num_nodes": sim.topology.num_nodes,
        "git_rev": git_revision(),
    }


@contextmanager
def phase_timer(hub, name: str):
    """Accumulate the wall-clock time of a run phase into ``hub.perf``.

    Accepts ``hub=None`` (observation disabled) as a no-op so callers can
    wrap their phases unconditionally.  Wall-clock goes to telemetry only —
    it never feeds back into simulated state, so determinism is untouched.
    """
    if hub is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        phases = hub.perf.setdefault("phase_seconds", {})
        phases[name] = round(phases.get(name, 0.0) + elapsed, 6)
