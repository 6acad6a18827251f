"""The struct-of-arrays backend is bit-identical to the object model.

Three layers of evidence, from broad to microscopic:

* a seeded **property grid** — a random sample of (topology x routing x
  load x pattern x faults) combinations, each run to completion on both
  backends and compared field-for-field (plus a golden-style SHA-256 over
  the canonical JSON of the result, the same "last float bit" contract the
  goldens pin);
* **lockstep state equality** — one simulation stepped cycle-by-cycle on
  both backends, comparing every buffer occupancy, credit count and link
  timer of the network — and the broadcast tables of PB and ECtN — after
  every cycle, so a divergence is caught at the cycle it first appears
  instead of smeared into end-of-run aggregates;
* **micro-state kernel tests** — the SoA allocator round driven against
  the object model's ``SeparableAllocator`` on hand-built request sets
  (contended, uncontested, single).

The property grid here complements the golden suite: goldens pin fixed
results forever, while this grid asserts *cross-backend* identity on fresh
scenarios every time the sample is changed.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config.parameters import (
    SimulationParameters,
    VALID_BACKENDS,
    default_backend,
)
from repro.network.allocator import AllocationRequest, SeparableAllocator
from repro.routing import (
    ROUTING_REGISTRY,
    BaseContentionRouting,
    UnsupportedTopologyError,
    available_routings,
)
# The golden-style digest (SHA-256 over the canonical JSON of the result)
# is the same one the sweep-service cache verifies on every lookup, so the
# cross-backend identity asserted here is exactly the property that makes
# serving an object-computed cache row to an soa request sound.
from repro.service.keys import result_fingerprint as _result_fingerprint
from repro.simulation.simulator import Simulator
from repro.topology.faults import DegradedLink, FaultModel
from repro.topology.registry import (
    available_topologies,
    create_topology,
    topology_preset,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _run(backend: str, combo) -> tuple:
    params = SimulationParameters.tiny().with_topology(
        topology_preset(combo["topology"], "tiny")
    )
    overrides = {
        name: combo[name] for name in ("router_latency", "internal_speedup") if name in combo
    }
    params = dataclasses.replace(params, **overrides).with_backend(backend)
    fault_model = combo.get("fault_model") or (
        FaultModel(link_failure_percent=10.0) if combo["faults"] else None
    )
    sim = Simulator(
        params,
        combo["routing"],
        combo["pattern"],
        combo["load"],
        seed=combo["seed"],
        fault_model=fault_model,
    )
    result = sim.run_steady_state(warmup_cycles=80, measure_cycles=160)
    engine = sim.engine
    return (
        result.as_dict(),
        _result_fingerprint(result),
        engine.cycle,
        engine.cycles_skipped,
        engine.delivered_packets,
    )


def _supported(topology: str, routing: str) -> bool:
    try:
        Simulator(
            SimulationParameters.tiny().with_topology(topology_preset(topology, "tiny")),
            routing,
            "UN",
            0.1,
            seed=1,
        )
    except UnsupportedTopologyError:
        return False
    return True


SUPPORTED_PAIRS = [
    (topology, routing)
    for topology in available_topologies()
    for routing in available_routings()
    if _supported(topology, routing)
]


def _sample_grid(n: int):
    """Seeded random sample over the full combination space.

    Unsupported (topology, routing) pairs are skipped *after* drawing, so
    the sample stays deterministic when new mechanisms register.
    """
    rng = random.Random(20260808)
    topologies = tuple(sorted(available_topologies()))
    routings = tuple(sorted(available_routings()))
    combos = []
    while len(combos) < n:
        combo = {
            "topology": rng.choice(topologies),
            "routing": rng.choice(routings),
            "pattern": rng.choice(("UN", "ADV+1")),
            "load": rng.choice((0.2, 0.45, 0.7)),
            "faults": rng.random() < 0.4,
            "seed": rng.randrange(1, 10_000),
        }
        if (combo["topology"], combo["routing"]) not in SUPPORTED_PAIRS:
            continue
        if combo not in combos:
            combos.append(combo)
    return combos


GRID = _sample_grid(8)


class TestPropertyGrid:
    @pytest.mark.parametrize(
        "combo",
        GRID,
        ids=lambda c: (
            f"{c['topology']}-{c['routing']}-{c['pattern']}-{c['load']}"
            f"-{'faults' if c['faults'] else 'clean'}-s{c['seed']}"
        ),
    )
    def test_object_and_soa_agree_bit_for_bit(self, combo):
        assert _run("soa", combo) == _run("object", combo)


def _first_link(topology_name: str):
    topology = create_topology(topology_preset(topology_name, "tiny"))
    return next(
        (0, port)
        for port in range(topology.router_radix)
        if topology.neighbor(0, port) is not None
    )


def _coincident_event_grid():
    """The two settings where a port's ``ready`` and link-free events share
    a cycle: ``router_latency = 0`` (a grant is ready in the cycle it was
    made — the seeded grid above never draws it) and a degraded link
    (``serialize_factor > 1`` stretches link-busy times off the packet-size
    lattice the healthy links keep)."""
    combos = [
        {"topology": "dragonfly", "routing": routing, "router_latency": 0}
        for routing in sorted(available_routings())
    ]
    # The ring-escape capture (``LOCAL`` rows) at zero router latency.
    combos.append({"topology": "torus", "routing": "Base", "router_latency": 0})
    slow = DegradedLink(bandwidth_factor=3, latency_factor=2)
    for routing in ("MIN", "Base"):
        combos.append(
            {
                "topology": "dragonfly",
                "routing": routing,
                "fault_model": FaultModel(
                    degraded_links=((_first_link("dragonfly"), slow),)
                ),
            }
        )
    for combo in combos:
        combo.update(pattern="ADV+1", load=0.45, faults=False, seed=11)
    return combos


class TestCoincidentEvents:
    @pytest.mark.parametrize(
        "combo",
        _coincident_event_grid(),
        ids=lambda c: (
            f"{c['topology']}-{c['routing']}-"
            + ("degraded" if "fault_model" in c else "rl0")
        ),
    )
    def test_object_and_soa_agree_bit_for_bit(self, combo):
        assert _run("soa", combo) == _run("object", combo)


class TestInternalSpeedup:
    """The allocation-round loop away from the default speedup of 2 (one
    round; three rounds, where a VC granted in round 1 sits out two more)."""

    @pytest.mark.parametrize("speedup", [1, 3])
    @pytest.mark.parametrize(
        "topology, routing",
        [("dragonfly", "Base"), ("dragonfly", "MIN"), ("torus", "Base"), ("fat_tree", "Hybrid")],
    )
    def test_object_and_soa_agree_bit_for_bit(self, topology, routing, speedup):
        combo = {
            "topology": topology, "routing": routing, "internal_speedup": speedup,
            "pattern": "ADV+1", "load": 0.6, "faults": False, "seed": 11,
        }
        assert _run("soa", combo) == _run("object", combo)


class TestLockstepState:
    def _broadcast_state(self, routing):
        """The remote-signal tables a ``post_cycle`` hook maintains."""
        if routing.name == "PB":
            return (
                [list(flags) for flags in routing._flags],
                sorted(routing._saturated_groups),
                [(due, group, list(flags)) for due, group, flags in routing._pending],
            )
        if routing.name == "ECtN":
            return (routing.combined, routing.partial)
        return None

    def _snapshot(self, engine):
        """Every buffer/credit/link observable of the network, any backend,
        plus the routing mechanism's broadcast tables."""
        return self._fabric(engine), self._broadcast_state(engine.network.routing)

    def _fabric(self, engine):
        if hasattr(engine, "_st"):
            st = engine._st
            return (
                tuple(st.in_free),
                tuple(st.credits),
                tuple(st.out_committed),
                tuple(st.out_free),
                tuple(st.credit_occ),
                tuple(st.link_busy),
            )
        in_free, credits, committed, out_free, cred_occ, busy = [], [], [], [], [], []
        network = engine.network
        max_vcs = max(
            len(ip.vcs) for r in network.routers for ip in r.input_ports
        )
        for router in network.routers:
            for ip in router.input_ports:
                vals = [ivc.buffer.free_phits for ivc in ip.vcs]
                in_free.extend(vals + [0] * (max_vcs - len(vals)))
            for op in router.output_ports:
                vals = list(op.credits)
                credits.extend(vals + [0] * (max_vcs - len(vals)))
                committed.append(op.buffer.committed_phits)
                out_free.append(op.buffer.free_phits)
                cred_occ.append(op.credit_occupied)
                busy.append(op.link_busy_until)
        return (
            tuple(in_free),
            tuple(credits),
            tuple(committed),
            tuple(out_free),
            tuple(cred_occ),
            tuple(busy),
        )

    @pytest.mark.parametrize(
        "topology, routing, overrides, fault_model",
        [
            ("dragonfly", "OLM", {}, None),
            ("dragonfly", "PB", {}, None),
            ("dragonfly", "Base", {"router_latency": 0}, None),
            ("dragonfly", "PB", {"router_latency": 0}, None),
            # Several broadcasts inside the 120 compared cycles.
            ("dragonfly", "ECtN", {"ectn_update_period": 20}, None),
            # The ring-escape and uplink-multipath captures.
            ("torus", "Base", {}, None),
            ("torus", "OLM", {}, None),
            ("fat_tree", "Base", {}, None),
            ("fat_tree", "Hybrid", {}, None),
            # Nothing captured: every head is a LIVE row.
            ("dragonfly", "Base", {}, FaultModel(link_failure_percent=10.0)),
        ],
        ids=[
            "OLM", "PB", "Base-rl0", "PB-rl0", "ECtN",
            "torus-Base", "torus-OLM", "fat_tree-Base", "fat_tree-Hybrid",
            "Base-faults",
        ],
    )
    def test_every_cycle_state_is_identical(
        self, topology, routing, overrides, fault_model
    ):
        params = dataclasses.replace(
            SimulationParameters.tiny().with_topology(topology_preset(topology, "tiny")),
            **overrides,
        )
        sims = {
            backend: Simulator(
                params.with_backend(backend),
                routing,
                "ADV+1",
                0.5,
                seed=3,
                fault_model=fault_model,
            )
            for backend in ("object", "soa")
        }
        for cycle in range(120):
            snaps = {}
            for backend, sim in sims.items():
                sim.run_cycles(1)
                snaps[backend] = self._snapshot(sim.engine)
            assert snaps["soa"] == snaps["object"], f"diverged at cycle {cycle}"
        assert (
            sims["soa"].engine.delivered_packets
            == sims["object"].engine.delivered_packets
        )


_TRANSCRIBED_TRIGGERS = {"OLM", "Base", "Hybrid", "ECtN"}


class _AlwaysFirstCandidate(BaseContentionRouting):
    """A user subclass overriding the trigger the Base transcription assumes."""

    name = "AlwaysFirst"

    def choose_global_misroute(self, router, port, packet, minimal_port, candidates, cycle):
        return candidates[0] if candidates else None

    choose_local_misroute = choose_global_misroute


class _OutputPortsReader(BaseContentionRouting):
    """A user trigger reading ``router.output_ports``: on ``soa`` its
    ``LIVE`` rows make the routers build their port views."""

    name = "OutputPortsReader"

    def choose_local_misroute(self, router, port, packet, minimal_port, candidates, cycle):
        if router.output_ports[minimal_port].credit_occupied == 0:
            return None
        return super().choose_local_misroute(
            router, port, packet, minimal_port, candidates, cycle
        )


@pytest.mark.soa_core
class TestRowCapture:
    """Which heads the engine captures and which stay ``LIVE`` rows."""

    def _counted_run(self, backend, topology, routing, fault_model=None):
        params = SimulationParameters.tiny().with_topology(
            topology_preset(topology, "tiny")
        )
        sim = Simulator(
            params.with_backend(backend),
            routing,
            "ADV+1",
            0.45,
            seed=5,
            fault_model=fault_model,
        )
        calls = {"select_output": 0, "on_grant": 0}

        def counted(name):
            method = getattr(sim.routing, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        for name in calls:
            setattr(sim.routing, name, counted(name))
        sim.run_cycles(200)
        return sim, calls

    @pytest.mark.parametrize("topology, routing", SUPPORTED_PAIRS)
    def test_nothing_silently_falls_to_the_live_row(self, topology, routing):
        sim, calls = self._counted_run("soa", topology, routing)
        assert calls["on_grant"] > 0
        if routing in _TRANSCRIBED_TRIGGERS:
            assert calls["select_output"] == 0
        else:
            # One evaluation per captured head: granted since, or still waiting.
            waiting = sum(len(keys) for keys in sim.engine._st.occ)
            assert 0 < calls["select_output"] <= calls["on_grant"] + waiting

    @pytest.mark.parametrize("topology, routing", SUPPORTED_PAIRS)
    def test_live_rows_evaluate_exactly_like_object(self, topology, routing):
        # Under faults nothing is captured; the call count is the RNG-stream
        # contract, including the within-cycle reuse of pure decisions.
        fault_model = FaultModel(link_failure_percent=10.0)
        obj, obj_calls = self._counted_run("object", topology, routing, fault_model)
        soa, soa_calls = self._counted_run("soa", topology, routing, fault_model)
        assert soa_calls == obj_calls
        assert soa.engine.delivered_packets == obj.engine.delivered_packets

    @pytest.mark.parametrize("topology", ["dragonfly", "torus", "fat_tree"])
    def test_a_subclass_gets_live_rows_not_its_parents_transcription(
        self, monkeypatch, topology
    ):
        monkeypatch.setitem(ROUTING_REGISTRY, "AlwaysFirst", _AlwaysFirstCandidate)
        obj, obj_calls = self._counted_run("object", topology, "AlwaysFirst")
        soa, soa_calls = self._counted_run("soa", topology, "AlwaysFirst")
        assert soa.engine._capture is None
        assert soa_calls == obj_calls
        assert soa.engine.delivered_packets == obj.engine.delivered_packets


def _soa_engine():
    sim = Simulator(
        SimulationParameters.tiny().with_backend("soa"), "MIN", "UN", 0.1, seed=1
    )
    return sim.engine


@pytest.mark.soa_core
class TestAllocRoundMicroStates:
    """The compiled ``alloc_round`` vs the object ``SeparableAllocator``, same
    requests."""

    def _compare_sequences(self, engine, request_rounds):
        st = engine._st
        P, nvc = st.P, st.alloc_nvc[0]
        reference = SeparableAllocator(num_ports=P, max_vcs=nvc)
        for requests in request_rounds:
            ref_grants = reference.allocate(requests)
            soa_grants = engine._core.alloc_round(0, 0, requests)
            assert [
                (g[0], g[1], g[2]) for g in soa_grants
            ] == [
                (g.input_port, g.input_vc, g.output_port) for g in ref_grants
            ]
            # ... and the arbiter pointers it leaves behind.
            assert list(st.in_ptr[:P]) == [a.pointer for a in reference._input_arbiters]
            assert list(st.out_ptr[:P]) == [a.pointer for a in reference._output_arbiters]

    def _request(self, in_port, vc, out_port, size=4):
        return AllocationRequest(
            input_port=in_port, input_vc=vc, output_port=out_port, size_phits=size
        )

    def test_single_request_rotates_and_grants(self):
        self._compare_sequences(
            _soa_engine(),
            [[self._request(0, 0, 3)], [self._request(0, 1, 3)]],
        )

    def test_output_port_conflict_round_robin(self):
        # Three inputs fight over one output across rounds: the round-robin
        # pointers must hand the output around in the same order.
        conflict = [
            self._request(0, 0, 3),
            self._request(1, 0, 3),
            self._request(2, 0, 3),
        ]
        self._compare_sequences(_soa_engine(), [conflict] * 4)

    def test_input_vc_conflict_round_robin(self):
        conflict = [
            self._request(0, 0, 2),
            self._request(0, 1, 3),
        ]
        self._compare_sequences(_soa_engine(), [conflict] * 3)

    def test_all_distinct_fast_path(self):
        self._compare_sequences(
            _soa_engine(),
            [[self._request(0, 0, 2), self._request(1, 1, 3)]],
        )

    def test_randomized_contention_sequences(self):
        engine = _soa_engine()
        st = engine._st
        P, nvc = st.P, st.alloc_nvc[0]
        rng = random.Random(7)
        rounds = []
        for _ in range(60):
            seen = set()
            requests = []
            for _ in range(rng.randrange(1, 6)):
                key = (rng.randrange(P), rng.randrange(nvc))
                if key in seen:  # one request per (input port, VC)
                    continue
                seen.add(key)
                requests.append(self._request(key[0], key[1], rng.randrange(P)))
            rounds.append(requests)
        self._compare_sequences(engine, rounds)


class TestBackendPlumbing:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SimulationParameters.tiny().with_backend("vectorized")

    def test_create_engine_rejects_unknown_backend(self):
        from repro.simulation.backends import create_engine

        with pytest.raises(ValueError, match="unknown backend"):
            create_engine("simd", None, None)

    def test_backend_recorded_in_as_dict(self):
        params = SimulationParameters.tiny().with_backend("soa")
        assert params.as_dict()["backend"] == "soa"

    def test_env_variable_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "object")
        assert default_backend() == "object"
        assert SimulationParameters.tiny().backend == "object"
        monkeypatch.delenv("REPRO_BACKEND")
        assert SimulationParameters.tiny().backend == "soa"

    def test_empty_env_variable_counts_as_unset(self, monkeypatch):
        # An unset CI matrix variable expands to the empty string.
        monkeypatch.setenv("REPRO_BACKEND", "")
        assert SimulationParameters.tiny().backend == "soa"

    @pytest.mark.parametrize(
        "value, hint", [("soa-compiled", "use soa"), ("vectorized", "REPRO_BACKEND")]
    )
    def test_invalid_env_variable_is_named_in_the_error(self, monkeypatch, value, hint):
        # The module-level presets are built the same way at import time, so
        # this is what a stale REPRO_BACKEND produces on ``import repro``:
        # the message must name the variable, not a ``backend=`` argument.
        monkeypatch.setenv("REPRO_BACKEND", value)
        with pytest.raises(ValueError, match=f"REPRO_BACKEND='{value}'.*") as excinfo:
            SimulationParameters.tiny()
        assert hint in str(excinfo.value)

    @pytest.mark.soa_core
    def test_valid_backends_build_engines(self):
        from repro.simulation.engine import Engine
        from repro.simulation.soa import SoAEngine

        for backend in sorted(VALID_BACKENDS):
            sim = Simulator(
                SimulationParameters.tiny().with_backend(backend),
                "MIN",
                "UN",
                0.1,
                seed=1,
            )
            assert type(sim.engine) is {"object": Engine, "soa": SoAEngine}[backend]
        assert VALID_BACKENDS == {"object", "soa"}


@pytest.mark.soa_core
class TestNoObjectGraph:
    """``soa`` fills its flat state from the port specs and never builds the
    ``Router`` graph — that is what ``object`` steps, built when its engine
    is — and a finished ``soa`` Simulator goes away with its last reference."""

    @pytest.fixture
    def constructed(self, monkeypatch):
        """``__init__`` calls of the object model's classes, by class name."""
        from collections import Counter

        from repro.network.ports import InputPort, OutputPort
        from repro.network.router import Router

        counts = Counter()
        for cls in (Router, InputPort, OutputPort):

            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
    def test_only_object_constructs_routers(
        self, every_topology, faulty, one_failed_one_degraded, constructed
    ):
        params = SimulationParameters.tiny().with_topology(
            topology_preset(every_topology, "tiny")
        )
        model = one_failed_one_degraded(every_topology) if faulty else None
        ports = params.topology.num_routers * create_topology(params.topology).router_radix
        expected = {
            "soa": {},
            "object": {
                "Router": params.topology.num_routers,
                "InputPort": ports,
                "OutputPort": ports,
            },
        }
        for backend in ("soa", "object"):
            constructed.clear()
            sim = Simulator(
                params.with_backend(backend), "UGAL", "UN", 0.2, seed=4, fault_model=model
            )
            built = dict(constructed)
            result = sim.run_steady_state(50, 100)
            assert result.delivered_packets > 0
            # All of it at construction: no timed step builds a router.
            assert dict(constructed) == built == expected[backend], backend

    def test_building_soa_allocates_nothing_in_the_object_model(self):
        import tracemalloc

        params = SimulationParameters.small().with_backend("soa")
        Simulator(params, "Base", "UN", 0.1, seed=1)  # imports, memo tables
        tracemalloc.start()
        try:
            sim = Simulator(params, "Base", "UN", 0.1, seed=1)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert sim.network._routers is None
        object_model = ("router.py", "ports.py", "buffer.py", "allocator.py")
        blamed = {
            stat.traceback[0].filename: stat.size
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith(
                tuple(f"repro/network/{name}" for name in object_model)
            )
        }
        assert blamed == {}

    def test_network_routers_still_answers_on_soa(self):
        sim = Simulator(
            SimulationParameters.tiny().with_backend("soa"), "Base", "ADV+1", 0.4, seed=2
        )
        sim.run_cycles(200)
        assert sim.engine.total_buffered_packets() > 0
        routers = sim.network.routers
        assert len(routers) == sim.topology.num_routers
        # Built on demand and never stepped: every buffer is empty, whatever
        # the engine holds.
        assert sim.network.total_buffered_packets() == 0
        sim.run_cycles(50)  # the engine does not care that the graph exists now
        assert sim.network.total_buffered_packets() == 0

    def test_a_finished_soa_simulator_is_reclaimed_by_reference_counting(
        self, monkeypatch
    ):
        """Probes off.  The cycles that would keep it for the cyclic collector
        are broken: the capture / ``post_cycle`` functions are not bound
        methods of the engine stored on the engine, the router views hold
        arrays and not the state that holds the views, and a node refers to
        its network weakly.  (``Network.routers`` <-> ``Router.network`` stays:
        it exists on ``object``, and on ``soa`` only once somebody asks.)"""
        import gc

        from repro.network.node import ComputeNode
        from repro.network.packet import Packet
        from repro.simulation.soa import SoAEngine
        from repro.simulation.soa.state import RouterView, SoAState, _OutputPortView

        monkeypatch.delenv("REPRO_OBS", raising=False)
        kinds = (SoAEngine, SoAState, RouterView, _OutputPortView, ComputeNode, Packet)

        def alive():
            return {
                cls.__name__: count
                for cls in kinds
                if (count := sum(type(o) is cls for o in gc.get_objects()))
            }

        gc.collect()
        gc.disable()
        try:
            before = alive()
            # PB and ECtN carry the two ``post_cycle`` transcriptions.  The
            # reader's trigger reads ``output_ports``: on its ``LIVE`` rows
            # the routers build their port views.
            monkeypatch.setitem(ROUTING_REGISTRY, "OutputPortsReader", _OutputPortsReader)
            faults = FaultModel(link_failure_percent=10.0)
            for routing, model in (
                ("Base", None), ("PB", None), ("ECtN", None), ("MIN", None),
                ("OLM", None), ("OutputPortsReader", faults), ("PB", faults),
            ):
                sim = Simulator(
                    SimulationParameters.tiny().with_backend("soa"),
                    routing, "UN", 0.3, seed=1, fault_model=model,
                )
                sim.run_steady_state(100, 200)
                assert alive() != before
                if routing == "OutputPortsReader":
                    assert alive()["_OutputPortView"] > 0
                del sim
                assert alive() == before, routing
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "routing, faulty", [("Base", False), ("PB", False), ("OutputPortsReader", True)]
    )
    def test_a_finished_soa_simulator_with_probes_is_reclaimed_too(
        self, monkeypatch, routing, faulty
    ):
        """The hub holds a state reader and the routing holds the hub; none
        of that points back at the engine or the Simulator."""
        import gc

        from repro.obs import ObservationConfig, ObservationHub
        from repro.simulation.soa import SoAEngine
        from repro.simulation.soa.state import (
            RouterView, SoAState, _OutputBufferView, _OutputPortView,
        )

        kinds = (SoAEngine, SoAState, ObservationHub, RouterView,
                 _OutputPortView, _OutputBufferView)

        def alive():
            return {
                cls.__name__: count
                for cls in kinds
                if (count := sum(type(o) is cls for o in gc.get_objects()))
            }

        monkeypatch.setitem(ROUTING_REGISTRY, "OutputPortsReader", _OutputPortsReader)
        gc.collect()
        gc.disable()
        try:
            before = alive()
            sim = Simulator(
                SimulationParameters.tiny().with_backend("soa"),
                routing, "ADV+1", 0.4, seed=1,
                observation=ObservationConfig(snapshot_period=50),
                fault_model=FaultModel(link_failure_percent=10.0) if faulty else None,
            )
            sim.run_steady_state(100, 200)
            assert sim.obs.events and alive() != before
            assert ("_OutputPortView" in alive()) == faulty  # the reader's LIVE rows
            del sim
            assert alive() == before
        finally:
            gc.enable()


def _containers(sim):
    """What a ``soa`` Simulator allocated because of traffic: VC queues, node
    queues, head rows, and (process-wide, via the collector) deques and port
    view objects."""
    import gc
    from collections import deque

    from repro.simulation.soa.state import _OutputBufferView, _OutputPortView

    st = sim.engine._st
    counted = (deque, _OutputPortView, _OutputBufferView)
    census = {cls.__name__: 0 for cls in counted}
    for obj in gc.get_objects():
        if type(obj) in counted:
            census[type(obj).__name__] += 1
    census["vc_queues"] = sum(dq is not None for dq in st.in_q)
    census["node_queues"] = sum(n.source_queue is not None for n in sim.network.nodes)
    census["rows"] = sum(sim.engine._core.row(q) is not None for q in range(len(st.in_q)))
    return census


@pytest.mark.soa_core
class TestAllocationFollowsTraffic:
    """A built ``soa`` Simulator holds numbers; traffic allocates the rest."""

    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
    @pytest.mark.parametrize("preset", ["tiny", "transient"])
    def test_a_fresh_simulator_holds_no_container(self, preset, faulty):
        import gc

        params = getattr(SimulationParameters, preset)().with_backend("soa")
        model = FaultModel(link_failure_percent=10.0) if faulty else None
        gc.collect()
        gc.disable()  # a collection between the two censuses must not hide one
        try:
            before = _containers(
                Simulator(SimulationParameters.tiny().with_backend("soa"), "MIN", "UN", 0.1)
            )
            sim = Simulator(params, "Base", "ADV+1", 0.4, seed=3, fault_model=model)
            fresh = _containers(sim)
        finally:
            gc.enable()
        # Nothing per VC, per port or per node: no deque, no port view, no
        # list in ``in_q``, no row — whatever else the process holds.
        assert fresh == before
        assert not any(
            fresh[name]
            for name in ("_OutputPortView", "_OutputBufferView", "vc_queues",
                         "node_queues", "rows")
        )
        st = sim.engine._st
        assert len(st.in_q) == st.R * st.P * st.V and sum(st.in_nvcs) > 0
        # ... and the first traffic brings them.
        sim.run_cycles(60)
        after = _containers(sim)
        assert after["vc_queues"] > 0 and after["node_queues"] > 0
        assert after["deque"] == fresh["deque"] + after["node_queues"]
        assert all(type(dq) is list for dq in st.in_q if dq is not None)

    @pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
    def test_only_existing_vcs_ever_get_a_queue(self, faulty):
        sim = Simulator(
            SimulationParameters.tiny().with_backend("soa"), "Base", "ADV+1", 1.0,
            seed=2, fault_model=FaultModel(link_failure_percent=10.0) if faulty else None,
        )
        sim.run_cycles(600)  # saturated: nearly every VC was pushed into
        st = sim.engine._st
        queues = [q for q, dq in enumerate(st.in_q) if dq is not None]
        assert len(queues) > 0.5 * sum(st.in_nvcs)
        for q in queues:
            g, vc = divmod(q, st.V)
            assert vc < st.in_nvcs[g], (g, vc)
        # Ports differ in VC count, so some slots of the padded layout stay
        # without a queue for ever.
        assert len(queues) <= sum(st.in_nvcs) < len(st.in_q)

    @pytest.mark.parametrize("routing", ["Base", "OLM"])
    def test_inspection_agrees_with_object_while_vcs_are_untouched(self, routing):
        from repro.obs.readers import ObjectStateReader, SoAStateReader

        sims = {}
        for backend in ("object", "soa"):
            sim = sims[backend] = Simulator(
                SimulationParameters.tiny().with_backend(backend), routing, "ADV+1", 0.3,
                seed=9,
            )
            sim.run_cycles(25)
        obj, soa = sims["object"], sims["soa"]
        st = soa.engine._st
        untouched = [
            g * st.V + vc
            for g, nvcs in enumerate(st.in_nvcs)
            for vc in range(nvcs)
            if st.in_q[g * st.V + vc] is None
        ]
        assert untouched, "the run must be short enough to leave VCs unused"
        assert any(node.source_queue is None for node in soa.network.nodes)

        def census(engine):
            return [
                (rid, occupied, [packet.pid for packet in packets])
                for rid, occupied, packets in engine._stall_census()
            ]

        assert census(soa.engine) == census(obj.engine)
        assert sum(len(pids) for _, _, pids in census(soa.engine)) > 0
        assert soa.engine.total_buffered_packets() == obj.engine.total_buffered_packets() > 0
        assert soa.engine._stall_snapshot(25) == obj.engine._stall_snapshot(25)
        assert (
            SoAStateReader(st).input_occupancy()
            == ObjectStateReader(obj.network).input_occupancy()
        )
        assert (
            soa.network.occupancy_summary()["source_queued"]
            == obj.network.occupancy_summary()["source_queued"]
        )
        assert [n.source_queue_length for n in soa.network.nodes] == [
            n.source_queue_length for n in obj.network.nodes
        ]
