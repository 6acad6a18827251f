#!/usr/bin/env python3
"""The repo benchmark: five workloads, host-time metrics, per-layer trace.

    python3 perf/run.py                      # every workload, end-to-end metrics
    python3 perf/run.py --trace              # ... plus the per-layer metrics
    python3 perf/run.py --workload sweep_warm --seed 3 --seconds 20 --trace 0
    python3 perf/run.py --repeat-check       # two rounds, compared against the bounds

Each workload runs in its own fresh subprocess (``perf.worker``) on the
``soa`` backend, single process, ``workers=1``.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the last workload run,
holding the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).  The exit code is non-zero when any operation failed.
See ``perf/README.md`` for the glossary.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # ``python3 perf/run.py`` puts perf/ there, not the root

from perf import reference  # noqa: E402
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Default parent of ``--out``: inside the checkout, ignored by git, removed
#: after the run.
SCRATCH = ROOT / ".perf-out"
#: Environment variables that would change what the workers measure.
SCRUBBED = ("REPRO_BACKEND", "REPRO_OBS", "BENCH_ARTIFACT_DIR", "REPRO_BENCH_BACKEND")
IMPORT_STATEMENT = "import repro.simulation.simulator, repro.service"
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def host_block(out: Path) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    tmpfs = None
    try:
        mounts = [line.split() for line in Path("/proc/mounts").read_text().splitlines()]
        best = max(
            (m for m in mounts if out.is_relative_to(m[1])), key=lambda m: len(m[1])
        )
        tmpfs = best[2] == "tmpfs"
    except (OSError, ValueError, IndexError):
        pass
    host = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_1min": load,
        "out_is_tmpfs": tmpfs,
    }
    if load > nproc:
        print(
            f"WARNING: 1-min load average {load:.2f} exceeds nproc={nproc}; "
            "timings will be noisy",
            file=sys.stderr,
        )
    return host


def import_seconds(samples: int) -> float:
    """Median seconds, at nominal speed, of a fresh interpreter importing the
    simulator and the service."""
    times = []
    for _ in range(samples):
        _, seconds, kernel_s = reference.timed(
            subprocess.run,
            [sys.executable, "-c", IMPORT_STATEMENT],
            env=worker_env(), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
        )
        times.append(reference.at_nominal_speed(seconds, kernel_s))
    return statistics.median(times)


def run_worker(name: str, args: argparse.Namespace, traced: bool, out: Path) -> Dict[str, Any]:
    """One workload in a fresh subprocess; its result document."""
    command = [
        sys.executable, "-m", "perf.worker", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out),
    ]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    if args.quick:
        command.append("--quick")
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(
            command, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        document = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        # ``subprocess.run`` has killed and reaped a worker that timed out.
        return {"workload": name, "attempted": 1, "failed": 1, "failures": [repr(exc)]}
    if done.returncode != 0 and document["failed"] == 0:
        document.update(attempted=document["attempted"] + 1, failed=1)
    return document


def metric_rows(document: Dict[str, Any], spec: Dict[str, Any], traced: bool, setup_import_s: float):
    """``(name, value, unit)`` for every declared metric of this run."""
    rows = []
    if "end_to_end" in document:
        values = dict(document["end_to_end"])
        values["setup_s"] = setup_import_s + values.pop("build_s")
        rows += [(m["name"], values[m["name"]], m["unit"]) for m in spec["end_to_end"]]
    if traced and "per_layer" in document:
        rows += [
            (m["name"], document["per_layer"][m["name"]], m["unit"])
            for m in spec["per_layer"]
        ]
    return rows


def report(document: Dict[str, Any], rows) -> None:
    name = document["workload"]
    extras = document.get("extras", {})
    print(f"== {name}  (seed {document.get('seed')}, "
          f"{int(extras.get('passes', 0))} timed passes; medians, seconds at nominal speed)")
    for metric, value, unit in rows:
        print(f"  {metric:<32} {value:>16.6f} {unit}")
    for key in ("raw_wall_s", "raw_pass_s_min", "raw_pass_s_max", "host_speed",
                "probe_overhead", "probe_run_overhead", "point_us_p50", "point_us_p95", "replays"):
        if key in extras:
            print(f"  ({key:<30} {extras[key]:>16.6f})")
    attempted, failed = document["attempted"], document["failed"]
    print(f"  {'failed_frac':<32} {failed / attempted:>16.6f} ratio ({failed}/{attempted})")
    print(f"  {'sim_digest':<32} {document.get('sim_digest', '-')}")
    for failure in document.get("failures", []):
        print(f"  FAILED: {failure}")


def contract_line(document: Dict[str, Any], rows, traced: bool, spec) -> str:
    wanted = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    return json.dumps(
        {
            "correct": document["failed"] == 0,
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, value, unit in rows
                if name in wanted
            },
        }
    )


def run_set(args, spec, names: List[str], traced: bool, out: Path, setup_import_s: float):
    """Run ``names`` in order; returns ``{workload: (document, rows)}``."""
    results = {}
    for name in names:
        document = run_worker(name, args, traced, out)
        rows = metric_rows(document, spec, traced, setup_import_s)
        report(document, rows)
        results[name] = (document, rows)
    return results


def repeat_check(args, spec, names, out: Path, setup_import_s: float) -> int:
    """Two rounds of the full set; every metric compared against its bound."""
    rounds = [
        {
            traced: run_set(args, spec, names, traced, out / f"round{i}", setup_import_s)
            for traced in (False, True)
        }
        for i in (1, 2)
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    bad = 0
    print("== repeat check: first, second, relative difference, bound")
    for name in names:
        for traced in (False, True):
            (doc_a, rows_a), (doc_b, rows_b) = (r[traced][name] for r in rounds)
            if doc_a.get("sim_digest") != doc_b.get("sim_digest") or doc_a["failed"] or doc_b["failed"]:
                print(f"  {name}: sim_digest differs or an operation failed  FAIL")
                bad += 1
            for (metric, a, _), (_, b, _) in zip(rows_a, rows_b):
                exact = units.get(metric) == "count"
                if metric in bounds and traced:
                    continue  # end-to-end metrics come from the untraced round
                if not exact and metric not in bounds:
                    continue  # per-layer timings carry no bound
                diff = abs(a - b) / min(abs(a), abs(b)) if a and b else float(a != b)
                limit = 0.0 if exact else bounds[metric]
                ok = diff <= limit
                bad += not ok
                print(f"  {name:<17} {metric:<30} {a:>14.6f} {b:>14.6f} "
                      f"{diff:>8.4f} {limit:>6.2f} {'ok' if ok else 'FAIL'}")
    return bad


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print("perf/run.py needs the repository around it (src/repro, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=1, help="simulation seed (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload")
    parser.add_argument("--passes", type=int, help="exactly this many timed passes instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add one traced pass and report the per-layer metrics")
    parser.add_argument("--out", type=Path, help="keep cache, trace and result files here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: 1 pass, cycles / 8, every 8th sweep point")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the set twice and compare against the bounds")
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if args.out is None:
        SCRATCH.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    else:
        out = args.out.resolve()
        out.mkdir(parents=True, exist_ok=True)
    try:
        host = host_block(out)
        print("host: " + json.dumps(host))
        setup_import_s = import_seconds(1 if args.quick else IMPORT_SAMPLES)
        if args.repeat_check:
            return 1 if repeat_check(args, spec, args.workload, out, setup_import_s) else 0
        results = run_set(args, spec, args.workload, traced, out, setup_import_s)
        summary = {
            "host": host,
            "workloads": {
                name: {**doc, "metrics": {m: v for m, v, _ in rows}}
                for name, (doc, rows) in results.items()
            },
        }
        (out / "results.json").write_text(json.dumps(summary, indent=1))
        document, rows = results[args.workload[-1]]
        complete = all(
            "end_to_end" in doc and (not traced or "per_layer" in doc)
            for doc, _ in results.values()
        )
        if complete:
            print(contract_line(document, rows, traced, spec))
        failed = sum(doc["failed"] for doc, _ in results.values())
        return 0 if complete and failed == 0 else 1
    finally:
        if args.out is None:
            shutil.rmtree(out, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:
                pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
