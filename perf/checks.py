"""The correctness gate: what counts as a failed operation.

Simulated statistics are never timed, only compared: with the goldens the
repo maintains in ``tests/simulation/goldens.json``, with a recomputation on
the ``object`` backend (the oracle), and between passes (``sim_digest``).
The repo holds no numeric reference from the paper, so the model is
*unvalidated* against it; only the Fig. 7b shape is asserted.

Every check that simulates (oracle, golden transient) runs before
``perf.trace`` installs its wrappers, so oracle work is never traced.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.config.parameters import SimulationParameters
from repro.experiments.parallel import (
    SteadyPointSpec,
    TransientPointSpec,
    run_steady_point,
    run_transient_point_spec,
)
from repro.service.keys import result_fingerprint as fingerprint

__all__ = [
    "Ops",
    "fingerprint",
    "sim_digest",
    "golden_steady",
    "golden_transient",
    "oracle_equal",
    "fig7b_shape",
]

GOLDENS_PATH = Path(__file__).resolve().parents[1] / "tests" / "simulation" / "goldens.json"


class Ops:
    """Operations attempted and failed by one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.fail(f"{failed} of {attempted} {what}", failed)


def sim_digest(results: Iterable[Any]) -> str:
    """sha256 over the fingerprints of ``results`` in submission order."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(fingerprint(result).encode())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _goldens() -> Dict[str, Any]:
    payload = json.loads(GOLDENS_PATH.read_text())
    steady = {}
    for entry in payload["steady"] + payload["cross_topology"]:
        key = (
            entry.get("topology", "dragonfly"),
            entry["routing"],
            entry["pattern"],
            entry["offered_load"],
            entry["seed"],
        )
        steady[key] = entry["expected"]
    return {"steady": steady, "transient": payload["transient"]}


def golden_steady(result: Any, golden: tuple) -> bool:
    """``result`` equals the recorded golden of ``golden`` field for field."""
    expected = _goldens()["steady"].get(tuple(golden))
    if expected is None:
        return False
    return all(getattr(result, name) == value for name, value in expected.items())


def golden_transient() -> bool:
    """Run the golden transient configuration on ``soa`` and compare it."""
    golden = _goldens()["transient"]
    cfg = golden["config"]
    spec = TransientPointSpec(
        params=SimulationParameters.tiny().with_backend("soa"),
        routing=cfg["routing"],
        before=cfg["before"],
        after=cfg["after"],
        offered_load=cfg["offered_load"],
        warmup_cycles=cfg["switch_cycle"],
        observe_before=cfg["observe_before"],
        observe_after=cfg["observe_after"],
        bin_size=cfg["bin_size"],
        seed=cfg["seed"],
    )
    result = run_transient_point_spec(spec)
    return all(getattr(result, name) == value for name, value in golden["expected"].items())


def oracle_equal(result: Any, oracle_spec: SteadyPointSpec) -> bool:
    """``result`` fingerprint-equals ``oracle_spec`` recomputed from scratch."""
    return fingerprint(run_steady_point(oracle_spec)) == fingerprint(result)


def fig7b_shape(base: Any) -> bool:
    """Base misroutes < 0.2 of its traffic before the switch, > 0.5 after."""
    series = [
        (cycle, fraction)
        for cycle, fraction in zip(base.cycles, base.misrouted_fraction)
        if fraction == fraction  # empty bins are NaN
    ]
    before = [fraction for cycle, fraction in series if cycle < 0]
    after = [fraction for cycle, fraction in series if cycle >= 40]
    return bool(before and after) and max(before) < 0.2 and max(after) > 0.5
