"""No run leaves cyclic garbage outside the object router graph.

A finished simulation — its network, engine, compiled core, packets, metrics
and probe hub — must be freed the moment its last reference goes, not at the
cyclic collector's next full pass: a sweep worker runs thousands of points,
and at Table I scale the collector's passes over the live state are most of
a cycle.  Under ``gc.DEBUG_SAVEALL`` everything a collection finds
unreachable stays in ``gc.garbage`` instead of being freed, so a run that
creates a reference cycle — say, a ``Packet`` or a ``TimeSeriesPoint`` built
by the compiled core holding something that points back — leaves objects
there.  The runs are the goldens' (both backends, probes off and on) and the
byte-pinned traced runs of ``test_trace_bytes`` (the fault run included).

The ``soa`` engine keeps no object graph: it leaves nothing.  The ``object``
engine's ``Router`` graph is cyclic by construction (a router holds its
network, its ports their neighbours), so there every collected object must
hang off a collected ``Router`` — a cycle anywhere else still fails.
"""

import gc

# Imported before any run: the results' summaries import it lazily, and its
# import leaves cyclic garbage of its own (``inspect`` closures).
import numpy.ma  # noqa: F401
import pytest
from test_trace_bytes import PARENT_DIGESTS, _run_case

from repro.config.parameters import SimulationParameters
from repro.network.router import Router
from repro.obs import ObservationConfig
from repro.simulation.simulator import Simulator
from repro.tools.record_goldens import (
    CROSS_TOPOLOGY_CONFIGS,
    STEADY_CONFIGS,
    TRANSIENT_CONFIG,
)
from repro.topology.registry import topology_preset

BACKENDS = ("object", "soa")


def _garbage_of(run, backend):
    """Type names of what ``run()`` left for the cyclic collector; on
    ``object``, of what no collected ``Router`` reaches."""
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        garbage = {id(obj): obj for obj in gc.garbage}
        if backend == "object":
            todo = [obj for obj in garbage.values() if type(obj) is Router]
            while todo:
                obj = todo.pop()
                if garbage.pop(id(obj), None) is not None:
                    todo.extend(gc.get_referents(obj))
        return sorted(type(obj).__name__ for obj in garbage.values())
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


def _golden_runs(backend, observation):
    params = SimulationParameters.tiny().with_backend(backend)
    for routing, pattern, load, seed in STEADY_CONFIGS:
        sim = Simulator(params, routing, pattern, load, seed=seed, observation=observation())
        sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
    for topology, routing, pattern, load, seed in CROSS_TOPOLOGY_CONFIGS:
        sim = Simulator(
            SimulationParameters.tiny(topology_preset(topology)).with_backend(backend),
            routing, pattern, load, seed=seed, observation=observation(),
        )
        sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
    cfg = TRANSIENT_CONFIG
    sim = Simulator.build_transient(
        params, cfg["routing"], cfg["before"], cfg["after"],
        offered_load=cfg["offered_load"], switch_cycle=cfg["switch_cycle"], seed=cfg["seed"],
    )
    config = observation()
    if config is not None:
        sim.attach_observation(config)
    sim.run_transient(
        warmup_cycles=cfg["switch_cycle"], observe_before=cfg["observe_before"],
        observe_after=cfg["observe_after"], bin_size=cfg["bin_size"],
    )


@pytest.mark.parametrize("probes", [False, True], ids=["probes-off", "probes-on"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_runs_leave_no_cyclic_garbage(backend, probes, monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)

    def observation():
        return ObservationConfig(snapshot_period=50) if probes else None

    assert _garbage_of(lambda: _golden_runs(backend, observation), backend) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_runs_leave_no_cyclic_garbage(tiny_params, fault_run, backend):
    def runs():
        for case in sorted(PARENT_DIGESTS):
            sim = _run_case(case, tiny_params, backend, fault_run)
            sim.obs.to_jsonl()

    assert _garbage_of(runs, backend) == []
