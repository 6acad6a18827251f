"""Benchmarks for the regimes the time-warp engine targets.

Two workloads bracket the "quiet cycles should cost nothing" goal:

* the figure-5 uniform-traffic point at the lowest swept load (the cheap
  corner of every load sweep), and
* a drain-heavy run: a short busy phase, then injection stops and the
  simulation runs for tens of thousands of cycles while the network drains
  and idles — the transient/drain pattern of Figs. 7-9 taken to its limit.

The drain benchmark asserts that the engine actually warps (a majority of
the simulated cycles are skipped, not executed), so a regression that
silently disables the warp path fails the suite even on a fast machine.
"""

from __future__ import annotations

from conftest import run_once
from repro.experiments import load_sweep
from repro.simulation.simulator import Simulator


def test_timewarp_low_load_un(benchmark, steady_scale):
    """Figure-5 UN at the lowest swept load only (MIN + Base)."""
    low_load = min(steady_scale.un_loads)
    rows = run_once(
        benchmark,
        load_sweep,
        steady_scale,
        ["MIN", "Base"],
        "UN",
        loads=(low_load,),
    )
    assert len(rows) == 2
    assert all(row["offered_load"] == low_load for row in rows)


def test_timewarp_drain(benchmark, steady_scale):
    """A short busy phase, then a 200k-cycle drain/idle stretch.

    The idle stretch dominates a cycle-by-cycle engine; the time-warp engine
    crosses it in a handful of jumps (watchdog-deadline sized).
    """

    def run():
        sim = Simulator(
            steady_scale.params, "Base", "UN", offered_load=0.3, seed=1
        )
        sim.run_cycles(100)
        sim.traffic.set_offered_load(0.0)
        sim.run_cycles(200_000)
        return sim

    sim = run_once(benchmark, run)
    # Through the engine: ``sim.network`` counts the object graph only, which
    # on ``soa`` holds nothing whatever the run did.
    assert sim.engine.total_buffered_packets() == 0
    # The drain stretch must be dominated by warped-over cycles.
    assert sim.engine.cycles_skipped > 150_000
