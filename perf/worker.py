"""Run one workload in this process and print its result as one JSON line.

``perf/run.py`` starts this module in a fresh subprocess per workload (clean
environment, ``PYTHONHASHSEED=0``), so ``peak_rss_mb`` and the timings belong
to that workload alone.  Order of work: ``prepare`` (untimed), the untraced
timed passes, the correctness gate, and — with ``--trace`` — the wrappers of
``perf.trace`` followed by one traced pass.  End-to-end metrics never come
from the traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from perf import checks, reference, trace
from perf.workloads import WORKLOADS, Context, PassOutcome

#: Timed passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def run_passes(workload, seconds: float, passes: Optional[int], ops: checks.Ops):
    """Build and run passes until ``seconds`` are used (or ``passes`` made).

    Returns the outcomes, the (build, reference kernel) seconds of every pass
    and the state of the last pass.
    """
    outcomes: List[PassOutcome] = []
    builds: List[Tuple[float, float]] = []
    state = None
    began = time.perf_counter()
    while True:
        index = len(outcomes)
        try:
            state, build_s, kernel_s = reference.timed(workload.build)
            gc.collect()
            outcome = workload.run(state)
        except Exception as exc:  # a raised point loses the whole pass
            ops.add(workload.points, workload.points, f"points of pass {index}: {exc!r}")
            break
        ops.add(outcome.attempted, outcome.failed, f"operations of pass {index}")
        outcomes.append(outcome)
        builds.append((build_s, kernel_s))
        done = len(outcomes)
        if passes is not None:
            if done >= passes:
                break
        else:
            elapsed = time.perf_counter() - began
            if done >= MIN_PASSES and elapsed + elapsed / done > seconds:
                break
    return outcomes, builds, state


def typical_pass(per_pass: List[List[float]]) -> float:
    """A typical pass: each part's median over the passes, summed."""
    return sum(median(samples) for samples in zip(*per_pass))


def nominal_parts(outcome: PassOutcome) -> List[float]:
    return [
        reference.at_nominal_speed(seconds, kernel_s)
        for seconds, kernel_s in zip(outcome.parts, outcome.reference)
    ]


def end_to_end(workload, outcomes: List[PassOutcome], builds) -> Dict[str, float]:
    """The gated metrics; every timing is in seconds at nominal speed."""
    wall_s = typical_pass([nominal_parts(o) for o in outcomes])
    return {
        "wall_s": wall_s,
        "cycles_per_s": median([o.cycles for o in outcomes]) / wall_s,
        "points_per_s": workload.points / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # ``run.py`` adds the import seconds to make ``setup_s``.
        "build_s": median([reference.at_nominal_speed(s, k) for s, k in builds]),
    }


def extras(workload, outcomes: List[PassOutcome]) -> Dict[str, float]:
    """Printed, not gated: spread of the passes and the per-workload ratios."""
    walls = [o.wall_s for o in outcomes]
    kernel_s = [k for o in outcomes for k in o.reference]
    out: Dict[str, float] = {
        "passes": len(walls),
        "raw_wall_s": typical_pass([o.parts for o in outcomes]),
        "raw_pass_s_min": min(walls),
        "raw_pass_s_max": max(walls),
        # How fast the box ran, relative to nominal, while the parts were timed.
        "host_speed": reference.NOMINAL_S / median(kernel_s),
    }
    if outcomes[0].off_s is not None:
        out["probe_overhead"] = median([o.wall_s / o.off_s for o in outcomes])
        out["probe_run_overhead"] = median([o.parts[0] / o.off_s for o in outcomes])
    if outcomes[0].replay_s:
        per_point = [1e6 * s / len(workload.specs) for o in outcomes for s in o.replay_s]
        out["replays"] = len(per_point)
        out["point_us_p50"] = median(per_point)
        if len(per_point) >= 20 * SAMPLES_BEYOND:
            out["point_us_p95"] = statistics.quantiles(per_point, n=20)[-1]
    return out


def traced_pass(workload, untraced: PassOutcome, ops: checks.Ops, out: Path):
    """Install the wrappers, run one more pass, return the per-layer metrics."""
    tracer = trace.install()
    with tracer.span("perf.build"):
        state = workload.build()
    with tracer.span("perf.pass"):
        outcome = workload.run(state)
    ops.add(outcome.attempted, outcome.failed, "operations of the traced pass")
    ops.record(
        checks.sim_digest(outcome.results) == checks.sim_digest(untraced.results),
        "traced pass reproduces the untraced sim_digest",
    )
    metrics = tracer.layer_metrics()
    metrics.update(workload.counters(state))
    metrics["trace.overhead_ratio"] = outcome.wall_s / untraced.wall_s
    if workload.name != "transient_probes":
        ops.record(
            metrics["obs.record.calls"] == 0, "no probe site fires with probes off"
        )
    document = {"workload": workload.name, "metrics": metrics, **tracer.document()}
    (out / f"trace-{workload.name}.json").write_text(json.dumps(document))
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    passes: Optional[int],
    quick: bool,
    traced: bool,
    out: Path,
) -> Dict[str, Any]:
    out.mkdir(parents=True, exist_ok=True)
    ops = checks.Ops()
    workload = WORKLOADS[name](Context(seed=seed, quick=quick, out=out))
    document: Dict[str, Any] = {"workload": name, "seed": seed, "quick": quick}
    try:
        workload.prepare()
    except Exception as exc:
        ops.add(1, 1, f"prepare: {exc!r}")
    else:
        if quick or traced:
            passes = 1
        outcomes, builds, state = run_passes(workload, seconds, passes, ops)
        if outcomes:
            digests = {checks.sim_digest(o.results) for o in outcomes}
            ops.record(len(digests) == 1, "every pass yields the same sim_digest")
            document["sim_digest"] = sorted(digests)[0]
            document["end_to_end"] = end_to_end(workload, outcomes, builds)
            document["extras"] = extras(workload, outcomes)
            document["parts_s"] = [o.parts for o in outcomes]
            document["reference_s"] = [o.reference for o in outcomes]
            try:
                workload.check(state, outcomes[-1], ops)
                if traced:
                    document["per_layer"] = traced_pass(workload, outcomes[-1], ops, out)
            except Exception as exc:
                ops.add(1, 1, f"check: {exc!r}")
    document.update(
        attempted=ops.attempted, failed=ops.failed, failures=ops.failures[:20]
    )
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    document = run_workload(
        args.workload, args.seed, args.seconds, args.passes, args.quick, args.trace,
        args.out,
    )
    print(json.dumps(document))
    complete = "end_to_end" in document and (not args.trace or "per_layer" in document)
    return 0 if complete and document["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
