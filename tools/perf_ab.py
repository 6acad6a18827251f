#!/usr/bin/env python3
"""Interleaved A/B of the repo benchmark between two revisions.

    python3 tools/perf_ab.py REV_A REV_B --workload sweep_cold --pairs 10 --seeds 6-15

Clones both revisions of this repository into a temporary directory, then
runs ``python3 perf/run.py --workload W --trace 0 --seed S`` once per side
and pair, alternating which side runs first.  REV_A is the parent, REV_B the
change.  For every end-to-end metric of ``BENCHMARK.json`` (REV_A's copy) it
prints each side's median and quartiles, the pairs the change won, and the
word ``unresolved`` where the parent's own range exceeds the metric's bound;
then the failed operations per side and whether the ``sim_digest`` of every
pair agrees.  Before the first pair an untimed probe in each clone builds one
``soa`` Simulator and the report says per side which engine that was and
whether its compiled core was in use — so a side that silently ran the
``object`` fallback is visible — and the clone's one-time build of that core
is paid there, not in pair 0.  ``--dry-run`` prints the planned run order and
runs nothing.
The tool lives beside ``tools/check_docs.py`` because ``perf/`` is frozen for
a change that claims a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 1200


def parse_seeds(text: str) -> List[int]:
    """``"6-15"`` -> 6..15, ``"4"`` -> [4]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def plan(pairs: int, seeds: List[int]) -> List[Tuple[int, int, str]]:
    """``(pair, seed, order)`` per pair: seeds cycle, even pairs run A first."""
    return [
        (pair, seeds[pair % len(seeds)], "AB" if pair % 2 == 0 else "BA")
        for pair in range(pairs)
    ]


def clone(repo: Path, rev: str, into: Path) -> None:
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(repo), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", rev], check=True)


#: What ``backend="soa"`` runs in a checkout: the engine class and, where the
#: revision has one, the type of its compiled core.
ENGINE_PROBE = """
from repro.config.parameters import SimulationParameters
from repro.simulation.simulator import Simulator
engine = Simulator(SimulationParameters.tiny().with_backend("soa"), "MIN", "UN", 0.0).engine
core = getattr(engine, "_core", None)
print(type(engine).__name__, "-" if core is None else type(core).__module__)
"""


def probe_engine(checkout: Path) -> str:
    """Which engine ``soa`` is in ``checkout`` (this also builds its core)."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
    env["PYTHONPATH"] = str(checkout / "src")
    try:
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", ENGINE_PROBE],
            cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "probe failed"
    if done.returncode != 0 or not done.stdout.strip():
        return "probe failed"
    engine, core = done.stdout.split()
    if engine != "SoAEngine":
        return f"{engine}: soa FELL BACK, its compiled core is unavailable"
    return f"{engine}, " + ("pure Python" if core == "-" else f"compiled core {core}")


def run_once(checkout: Path, workload: str, seed: int, out: Path) -> Dict:
    """One ``perf/run.py`` run in ``checkout``; its result document.  A run
    that crashes, hangs past ``RUN_TIMEOUT_S`` or writes no result counts as
    one failed operation, so the pairs already measured are kept."""
    try:
        subprocess.run(
            [sys.executable, "perf/run.py", "--workload", workload, "--trace", "0",
             "--seed", str(seed), "--out", str(out)],
            cwd=checkout, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S,
        )
        return json.loads((out / "results.json").read_text())["workloads"][workload]
    except (subprocess.TimeoutExpired, OSError, ValueError, KeyError):
        return {"failed": 1, "metrics": {}}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(
    spec: Dict, runs: Dict[str, List[Dict]], revs: Dict[str, str], engines: Dict[str, str]
) -> None:
    pairs = len(runs["A"])
    print(f"{pairs} pairs; A = {revs['A']} (parent), B = {revs['B']} (change)")
    for side in "AB":
        print(f"  engine {side}: {engines[side]}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sides = {
            side: [r["metrics"][name] for r in runs[side] if name in r["metrics"]]
            for side in "AB"
        }
        if not sides["A"] or not sides["B"]:
            print(f"  {name:<14} no complete run")
            continue
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(
            sign * (b["metrics"][name] - a["metrics"][name]) > 0
            for a, b in zip(runs["A"], runs["B"])
            if name in a["metrics"] and name in b["metrics"]
        )
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(sides["A"]), quartiles(sides["B"])
        spread = (max(sides["A"]) - min(sides["A"])) / ma if ma else 0.0
        print(
            f"  {name:<14} A {ma:10.4f} [{qa1:.4f}, {qa3:.4f}]  "
            f"B {mb:10.4f} [{qb1:.4f}, {qb3:.4f}]  {metric['unit']:<4} "
            f"B/A {mb / ma - 1:+7.2%}  A iqr {(qa3 - qa1) / ma:6.2%}  "
            f"B won {won}/{pairs}"
            + (f"  unresolved (A range {spread:.1%} > bound {bound:.0%})" if spread > bound else "")
        )
    for side in "AB":
        print(f"  failed {side}: {sum(r.get('failed', 1) for r in runs[side])}")
    agree = all(
        a.get("sim_digest") is not None and a.get("sim_digest") == b.get("sim_digest")
        for a, b in zip(runs["A"], runs["B"])
    )
    print(f"  sim_digest of every pair agrees: {'yes' if agree else 'NO'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a", metavar="REV_A", help="the parent revision")
    parser.add_argument("rev_b", metavar="REV_B", help="the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=parse_seeds, default=[1], help="a-b, cycled over the pairs")
    parser.add_argument("--dry-run", action="store_true", help="print the run order only")
    args = parser.parse_args(argv)
    revs = {"A": args.rev_a, "B": args.rev_b}
    schedule = plan(args.pairs, args.seeds)
    if args.dry_run:
        for pair, seed, order in schedule:
            print(f"pair {pair} seed {seed}: " + " then ".join(f"{s}={revs[s]}" for s in order))
        return 0
    runs: Dict[str, List[Dict]] = {"A": [], "B": []}
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        checkouts = {side: Path(tmp) / side for side in "AB"}
        for side, checkout in checkouts.items():
            clone(ROOT, revs[side], checkout)
        spec = json.loads((checkouts["A"] / "BENCHMARK.json").read_text())
        engines = {side: probe_engine(checkout) for side, checkout in checkouts.items()}
        for pair, seed, order in schedule:
            for side in order:
                document = run_once(
                    checkouts[side], args.workload, seed, Path(tmp) / f"out-{side}-{pair}"
                )
                runs[side].append(document)
                wall = document["metrics"].get("wall_s", float("nan"))
                print(f"pair {pair} seed {seed} {side}: wall_s {wall:.4f} "
                      f"failed {document.get('failed', 1)}", flush=True)
    report(spec, runs, revs, engines)
    return 1 if any(r.get("failed", 1) for side in "AB" for r in runs[side]) else 0


if __name__ == "__main__":
    sys.exit(main())
