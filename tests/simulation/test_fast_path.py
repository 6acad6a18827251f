"""The per-packet hooks the compiled core answers run no Python frame.

On a stock ``soa`` run the core answers, in C, ``select_output`` of the pure
mechanisms (their capture), the topology queries of every topology (the
route and router-target tables behind ``minimal_output_port`` /
``minimal_route_to_router``, the hop memo of ``router_hops`` and its fill,
the stock ``minimal_router_path`` walked over those tables, the peer table
behind ``port_target_region``, ``valiant_intermediate_router``, the region
queries and the torus's dateline state machine ``ring_vc`` /
``commit_ring_hop``; the misses are Python fills: a route-table entry by the
topology's ``_route_port`` (the Dragonfly's excepted), at most once per
router pair, the hop memo's allocation by ``router_hops``, once per
topology, a peer-table entry by ``neighbor``, at most once per port, and a
fat-tree router-target column by one breadth-first search per target),
``MetricsCollector.record_delivery`` /
``record_generated`` with the ``in_window`` test and the time-series bin
they call,
``BernoulliTrafficGenerator.generate`` with the uniform, adversarial and
transient destinations, ``Packet(...)`` and ``ComputeNode.enqueue``.  A stock
check the core silently misses would fail no result test — it would only
cost the time the C path saves — so a ``sys.setprofile`` hook pins that none
of their frames runs.  The other half of the rule: a subclass override or a
class-level ``functools.wraps`` wrapper of any of them is called by name,
exactly as often as on ``object``, and the results do not change.  The one
exception is ``select_output`` under a wrapper: a captured head asks it once
per head (the pure capture) or never (the adaptive captures transcribe the
trigger), where ``object`` asks once per evaluation.  The core memoises
what a name resolves to for as long as no Python code can have run: a
wrapper installed between two steps, or by a hook in the middle of a cycle,
is still called from its next lookup on.
"""

import functools
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.network.network
import repro.simulation.simulator
from repro.config.parameters import SimulationParameters
from repro.metrics.collector import MetricsCollector
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.network.network import Network
from repro.network.node import ComputeNode
from repro.network.packet import Packet
from repro.routing import ROUTING_REGISTRY, BaseContentionRouting, ContentionTracker
from repro.routing.adaptive import AdaptiveInTransitRouting
from repro.routing.base import RoutingAlgorithm
from repro.service.keys import result_fingerprint
from repro.simulation.simulator import Simulator
from repro.topology.base import Topology
from repro.topology.registry import TOPOLOGY_REGISTRY, topology_preset
from repro.topology.torus import TorusTopology
from repro.traffic.adversarial import AdversarialTraffic
from repro.traffic.base import TrafficPattern
from repro.traffic.bernoulli import BernoulliTrafficGenerator
from repro.traffic.transient import TransientTraffic
from repro.traffic.uniform import UniformTraffic

pytestmark = pytest.mark.soa_core

ROUTINGS = ["PB", "MIN", "Base"]
SWITCH = 80

#: What the fast path of a stock run answers in C besides ``select_output``
#: and the patterns' ``destination``.
FAST = [
    (MetricsCollector, "record_delivery"),
    (MetricsCollector, "record_generated"),
    (MetricsCollector, "in_window"),
    (TimeSeriesRecorder, "record"),
    (BernoulliTrafficGenerator, "generate"),
    (TrafficPattern, "_random_node_excluding"),
    (Topology, "region_node_range"),
    (ComputeNode, "enqueue"),
    (Network, "activate_node"),
    (Packet, "__init__"),
]
#: The per-packet functions overridden or wrapped below (the owner's name
#: keys the call counts).
OVERRIDDEN = [
    (MetricsCollector, "record_delivery"),
    (MetricsCollector, "record_generated"),
    (TimeSeriesRecorder, "record"),
    (BernoulliTrafficGenerator, "generate"),
    (ComputeNode, "enqueue"),
    (TransientTraffic, "destination"),
    (UniformTraffic, "destination"),
    (AdversarialTraffic, "destination"),
]


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _defining(cls, name):
    """The class of ``cls``'s MRO whose namespace defines ``name``."""
    return next(owner for owner in cls.__mro__ if name in vars(owner))


def _watched():
    """Code object -> ``"Owner.name"`` of every function the fast path must
    not run as Python."""
    pairs = list(FAST)
    pairs += [(c, "select_output") for c in _subclasses(RoutingAlgorithm)]
    pairs += [(c, "destination") for c in _subclasses(TrafficPattern)]
    code = {}
    for owner, name in pairs:
        if name in vars(owner):
            code[inspect.unwrap(vars(owner)[name]).__code__] = f"{owner.__name__}.{name}"
    return code


def _stock_patterns(topology):
    return TransientTraffic(
        topology, before=UniformTraffic(topology), after=AdversarialTraffic(topology, 1),
        switch_cycle=SWITCH,
    )


def _transient(routing, backend, patterns=_stock_patterns):
    sim = Simulator(
        SimulationParameters.tiny().with_backend(backend), routing, offered_load=0.3, seed=3,
        pattern_factory=patterns,
    )
    return result_fingerprint(sim.run_transient(SWITCH, 40, 80, bin_size=20))


@pytest.mark.parametrize("routing", ROUTINGS)
def test_a_stock_run_runs_none_of_them_as_python(routing):
    watched = _watched()
    sim = Simulator(
        SimulationParameters.tiny().with_backend("soa"), routing, offered_load=0.3, seed=3,
        pattern_factory=_stock_patterns,
    )
    ran, frames = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_name] += 1
            name = watched.get(frame.f_code)
            if name is not None:
                ran[name] += 1

    sys.setprofile(profile)
    try:
        result = sim.run_transient(SWITCH, 40, 80, bin_size=20)
    finally:
        sys.setprofile(None)
    assert frames["step"] > SWITCH  # the hook saw the Python that does run
    assert ran == Counter()
    assert sim.engine.delivered_packets > 100
    assert result_fingerprint(result) == _transient(routing, "object")


calls = Counter()


def _counting(key, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)

    return wrapper


def _counting_subclass(base, names):
    """A subclass of ``base`` overriding each of ``names`` (name -> count
    key) with a counting call of the inherited method."""

    def counted(name, key):
        def method(self, *args, **kwargs):
            calls[key] += 1
            return getattr(super(subclass, self), name)(*args, **kwargs)

        return method

    namespace = {name: counted(name, key) for name, key in names.items()}
    subclass = type(f"Counting{base.__name__}", (base,), namespace)
    return subclass


@pytest.mark.parametrize("mode", ["subclass", "wraps"])
@pytest.mark.parametrize("routing", ROUTINGS)
def test_overrides_are_called_as_often_as_on_object(monkeypatch, routing, mode):
    stock = _transient(routing, "soa")
    routing_class = ROUTING_REGISTRY[routing]
    if mode == "wraps":
        targets = OVERRIDDEN + [(_defining(routing_class, "select_output"), "select_output")]
        for owner, name in targets:
            key = "select_output" if name == "select_output" else f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, _counting(key, vars(owner)[name]))
        patterns = _stock_patterns
    else:
        overrides = {}
        for owner, name in OVERRIDDEN:
            overrides.setdefault(owner, {})[name] = f"{owner.__name__}.{name}"
        sub = {owner: _counting_subclass(owner, names) for owner, names in overrides.items()}
        monkeypatch.setitem(
            ROUTING_REGISTRY, routing,
            _counting_subclass(routing_class, {"select_output": "select_output"}),
        )
        for module, owner in [
            (repro.simulation.simulator, MetricsCollector),
            (repro.simulation.simulator, TimeSeriesRecorder),
            (repro.simulation.simulator, BernoulliTrafficGenerator),
            (repro.network.network, ComputeNode),
        ]:
            monkeypatch.setattr(module, owner.__name__, sub[owner])

        def patterns(topology):
            return sub[TransientTraffic](
                topology, before=sub[UniformTraffic](topology),
                after=sub[AdversarialTraffic](topology, 1), switch_cycle=SWITCH,
            )

    counts = {}
    for backend in ("object", "soa"):
        calls.clear()
        assert _transient(routing, backend, patterns) == stock
        counts[backend] = Counter(calls)
    soa, obj = counts["soa"], counts["object"]
    expected = {f"{owner.__name__}.{name}" for owner, name in OVERRIDDEN} | {"select_output"}
    if mode == "wraps":
        asked = soa.pop("select_output", 0)
        assert asked <= obj.pop("select_output")
        assert (asked > 0) == (routing != "Base")
        expected.discard("select_output")
    assert soa == obj
    assert set(soa) == expected and min(soa.values()) > 0


# ------------------------------------------------------- every topology
#: The topology queries a stock run answers in C on every topology
#: (``router_hops`` too, but its first call allocates the memo, counted as a
#: fill below).
TOPOLOGY_FAST = [
    (Topology, name)
    for name in (
        "minimal_output_port", "minimal_route_to_router", "router_region", "node_region",
        "node_router", "minimal_router_path", "port_target_region", "valiant_intermediate_router",
    )
] + [
    (TorusTopology, "ring_vc"),
    (TorusTopology, "commit_ring_hop"),
]
#: The topologies besides the Dragonfly, with the mechanisms the sweeps run
#: on them: the pure ones everywhere, Base where an in-transit policy exists.
OTHER_TOPOLOGIES = [
    (topology, routing)
    for topology, routings in (
        ("torus", ("MIN", "VAL", "UGAL", "Base")),
        ("flattened_butterfly", ("MIN", "VAL", "UGAL", "Base")),
        ("full_mesh", ("MIN", "VAL", "UGAL")),
        ("fat_tree", ("MIN", "VAL", "UGAL", "Base")),
    )
    for routing in routings
]
#: The same on the Dragonfly, where the hop memo serves UGAL and PB.
TOPOLOGY_CASES = OTHER_TOPOLOGIES + [("dragonfly", routing) for routing in ("UGAL", "PB", "Base")]
#: The mechanisms that compare minimal and Valiant path lengths.
HOP_COUNTING = ("UGAL", "PB")


def _steady(topology, routing, backend):
    sim = Simulator(
        SimulationParameters.tiny(topology_preset(topology)).with_backend(backend), routing,
        pattern="ADV+1", offered_load=0.3, seed=3,
    )
    return sim, sim.run_steady_state(40, 80)


@pytest.mark.parametrize("topology,routing", TOPOLOGY_CASES)
def test_every_topology_answers_its_queries_without_python(monkeypatch, topology, routing):
    # Probes off: an attached hub's trigger snapshot asks the topology in
    # Python, on both backends alike.
    monkeypatch.delenv("REPRO_OBS", raising=False)
    watched = _watched()
    for owner, name in TOPOLOGY_FAST:
        watched[vars(owner)[name].__code__] = f"{owner.__name__}.{name}"
    # The node map and the region ranges are the base class's on every
    # topology: a topology's own body of either would run as Python.
    for cls in _subclasses(Topology):
        for name in ("node_router", "region_node_range"):
            if name in vars(cls):
                watched[vars(cls)[name].__code__] = f"{cls.__name__}.{name}"
    # The misses the core asks by name, Python by design and each bounded by
    # what it fills: a route-table entry per ``_route_port`` frame, a
    # peer-table entry per ``_link_peer`` frame, a router-target column per
    # ``_target_port`` frame, the hop memo's allocation (and one entry) per
    # ``router_hops`` frame and a router's shared candidate tuple (the group
    # policy) per ``router_candidates`` frame.  What runs inside a fill is
    # the fill's; every ``neighbor`` frame, inside one or not, fills a
    # peer-table entry.
    fills = {
        vars(cls)["_route_port"].__code__: "route" for cls in _subclasses(Topology)
        if "_route_port" in vars(cls)
    }
    fills[Topology._link_peer.__code__] = "peer"
    fills[Topology._target_port.__code__] = "target"
    fills[Topology.router_hops.__code__] = "hop"
    fills[AdaptiveInTransitRouting.router_candidates.__code__] = "candidates"
    neighbors = {
        vars(cls)["neighbor"].__code__ for cls in _subclasses(Topology) if "neighbor" in vars(cls)
    }
    ran, filled, depth = Counter(), Counter(), 0

    def profile(frame, event, arg):
        nonlocal depth
        fill = fills.get(frame.f_code)
        if fill is not None:
            if event == "call":
                filled[fill] += not depth
                depth += 1
            elif event == "return":
                depth -= 1
        elif event == "call":
            if frame.f_code in neighbors:
                filled["neighbor"] += 1
            elif not depth and frame.f_code in watched:
                ran[watched[frame.f_code]] += 1

    sim = Simulator(
        SimulationParameters.tiny(topology_preset(topology)).with_backend("soa"), routing,
        pattern="ADV+1", offered_load=0.3, seed=3,
    )
    sys.setprofile(profile)
    try:
        result = sim.run_steady_state(40, 80)
    finally:
        sys.setprofile(None)
    assert ran == Counter()
    topo = sim.topology
    R = topo.num_routers
    peers = sum(peer != -1 for peer in topo._peer_table)
    # The core transcribes the Dragonfly's ``_route_port``.
    assert filled["route"] <= R * R and (filled["route"] > 0) == (topology != "dragonfly")
    assert filled["peer"] <= peers == filled["neighbor"]
    assert filled["target"] <= R and filled["candidates"] <= R
    # The core fills the hop memo itself: Python only allocates it.
    assert filled["hop"] == (routing in HOP_COUNTING)
    assert (topo._hop_table is None) == (routing not in HOP_COUNTING)
    assert routing not in HOP_COUNTING or sum(hops != 0xFF for hops in topo._hop_table) > 1
    assert sim.engine.delivered_packets > 50
    assert result_fingerprint(result) == result_fingerprint(_steady(topology, routing, "object")[1])


def test_no_topology_defines_a_query_the_core_answers_from_the_base_tables():
    names = (
        "port_target_region", "valiant_intermediate_router", "minimal_route_to_router",
        "minimal_router_path", "router_hops",
    )
    classes = [TOPOLOGY_REGISTRY[name].topology_cls for name in TOPOLOGY_REGISTRY]
    assert all(name in vars(Topology) for name in names)
    assert [(cls.__name__, name) for cls in classes for name in names if name in vars(cls)] == []


def test_nothing_defines_a_closed_form_hop_count_or_a_region_gateway():
    """Hop counts come from ``router_hops`` and the step towards another
    region from the router-target table, on every topology: no source file
    defines ``minimal_path_length`` or ``region_gateway``, or keeps a
    gateway memo."""
    src = Path(repro.__file__).parent
    pattern = re.compile(r"def (?:minimal_path_length|region_gateway)\b|towards_cache")
    found = [
        (path.name, match.group(0))
        for path in sorted(src.rglob("*.py")) + sorted(src.rglob("*.c"))
        for match in pattern.finditer(path.read_text())
    ]
    assert found == []


def test_nothing_keeps_a_misroute_target_or_a_phase():
    """A packet is on its Valiant leg exactly while it has a
    ``valiant_router``, and a global misroute's link enters its intermediate
    group, so no source file names a routing phase, a per-packet
    intermediate group or the step towards one, or the per-packet state and
    core helpers that served them."""
    src = Path(repro.__file__).parent
    pattern = re.compile(
        r"\b(?:RoutingPhase|intermediate_group|_towards_group|source_group"
        r"|misroute_recorded_cycle|group_reached|source_region|class_attr_is)\b"
    )
    found = [
        (path.name, match.group(0))
        for path in sorted(src.rglob("*.py")) + sorted(src.rglob("*.c"))
        for match in pattern.finditer(path.read_text())
    ]
    assert found == []


#: A wrapper on each of these is called as often on ``soa`` as on ``object``
#: wherever the Python bodies call it outside ``select_output``: the hop
#: memo from UGAL's source trigger, the dateline commit from ``on_grant``,
#: the minimal port from Base's head hook.
EQUAL_COUNTS = [
    (Topology, "minimal_output_port"),
    (Topology, "router_hops"),
    (TorusTopology, "commit_ring_hop"),
]
#: Asked by a head's decision: a captured head asks once where ``object``
#: asks once per evaluation.
PER_DECISION = [(TorusTopology, "ring_vc")]


@pytest.mark.parametrize("topology,routing", TOPOLOGY_CASES)
def test_topology_wrappers_are_called_as_often_as_on_object(monkeypatch, topology, routing):
    stock = result_fingerprint(_steady(topology, routing, "soa")[1])
    for owner, name in EQUAL_COUNTS + PER_DECISION:
        key = name if name == "minimal_output_port" else f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, _counting(key, vars(owner)[name]))
    counts = {}
    for backend in ("object", "soa"):
        calls.clear()
        assert result_fingerprint(_steady(topology, routing, backend)[1]) == stock
        counts[backend] = Counter(calls)
    soa, obj = counts["soa"], counts["object"]
    for owner, name in PER_DECISION:
        key = f"{owner.__name__}.{name}"
        asked = soa.pop(key, 0)
        assert asked <= obj.pop(key, 0) and (asked > 0) == (topology == "torus")
    if routing != "Base":
        # The pure capture asks for the minimal port once per head.
        asked = soa.pop("minimal_output_port")
        assert 0 < asked <= obj.pop("minimal_output_port")
    assert soa == obj
    assert ("Topology.router_hops" in soa) == (routing in HOP_COUNTING)
    assert ("TorusTopology.commit_ring_hop" in soa) == (topology == "torus")


@pytest.mark.parametrize("topology", ["dragonfly", "flattened_butterfly"])
def test_a_wrapped_minimal_router_path_fills_the_hop_memo_on_both_backends(monkeypatch, topology):
    """The core walks the tables for a hop-memo miss only under the stock
    ``minimal_router_path``: a wrapper on it (``router_hops`` left stock) is
    called once per memo entry on both backends."""
    stock = result_fingerprint(_steady(topology, "UGAL", "soa")[1])
    monkeypatch.setattr(
        Topology, "minimal_router_path", _counting("path", vars(Topology)["minimal_router_path"])
    )
    counts = {}
    for backend in ("object", "soa"):
        calls.clear()
        sim, result = _steady(topology, "UGAL", backend)
        assert result_fingerprint(result) == stock
        counts[backend] = calls["path"]
        assert counts[backend] == sum(hops != 0xFF for hops in sim.topology._hop_table)
    assert counts["soa"] == counts["object"] > 1


# ------------------------------------------------------- wrappers mid-run
#: Hooks the core answers in C for Base, each asked at the same points by
#: both backends: the grant, the head and the tracker's head hooks, and the
#: minimal port the tracker asks for (routing, tracker or topology instance).
MID_RUN = [
    (RoutingAlgorithm, "on_grant", "routing"),
    (BaseContentionRouting, "on_packet_head", "routing"),
    (ContentionTracker, "on_head", "tracker"),
    (Topology, "minimal_output_port", "topology"),
]
STEPS = 60


def _instance(sim, where):
    routing = sim.network.routing
    return {"routing": routing, "tracker": routing.tracker, "topology": sim.topology}[where]


def _stepped(backend, install):
    """``STEPS`` single steps of Base, ``install(sim)``, ``STEPS`` more: the
    result and the wrappers' calls after the install."""
    sim = Simulator(
        SimulationParameters.tiny().with_backend(backend), "Base", "UN", offered_load=0.3,
        seed=3,
    )
    calls.clear()
    for _ in range(STEPS):
        sim.engine.step()
    install(sim)
    for _ in range(STEPS):
        sim.engine.step()
    engine = sim.engine
    assert engine.delivered_packets > 20
    return (engine.delivered_packets, engine.traffic.generated_packets), Counter(calls)


@pytest.mark.parametrize("where", ["class", "instance"])
def test_a_wrapper_installed_between_steps_is_called_from_the_next_step(monkeypatch, where):
    """The memo does not outlive a core entry: a wrapper put on the class or
    on the instance between two ``Engine.step`` calls is called from the next
    step on, exactly as often as on ``object``."""

    def install(sim):
        for owner, name, holder in MID_RUN:
            key = f"{owner.__name__}.{name}"
            if where == "class":
                monkeypatch.setattr(owner, name, _counting(key, vars(owner)[name]))
            else:
                target = _instance(sim, holder)
                monkeypatch.setattr(target, name, _counting(key, getattr(target, name)))

    results = {}
    for backend in ("object", "soa"):
        results[backend] = _stepped(backend, install)
        monkeypatch.undo()
    (obj, obj_calls), (soa, soa_calls) = results["object"], results["soa"]
    assert soa == obj
    assert soa_calls == obj_calls
    assert set(soa_calls) == {f"{owner.__name__}.{name}" for owner, name, _ in MID_RUN}


class InstallingRouting(BaseContentionRouting):
    """Base whose ``on_packet_leave_input`` -- an override, called by name --
    puts a counting wrapper on the instance's ``on_grant`` at its first call
    that follows a grant of the same cycle (a leave is always followed by its
    grant), so the core has resolved ``on_grant`` earlier in the same entry."""

    def on_packet_leave_input(self, router, port, vc, packet, cycle):
        super().on_packet_leave_input(router, port, vc, packet, cycle)
        if getattr(self, "_leave_cycle", None) == cycle and "on_grant" not in vars(self):
            self.on_grant = _counting("on_grant", self.on_grant)
        self._leave_cycle = cycle


def test_a_wrapper_a_hook_installs_mid_cycle_is_called_by_the_next_grant(monkeypatch):
    """Python a hook runs ends what the core remembers of instance dicts: the
    grant right after the installing hook calls the wrapper, as on
    ``object`` (a memo dropped only at core entries answers that grant with
    the stock body it resolved earlier in the entry)."""
    monkeypatch.setitem(ROUTING_REGISTRY, "Base", InstallingRouting)
    results = {
        backend: _stepped(backend, lambda sim: None) for backend in ("object", "soa")
    }
    (obj, obj_calls), (soa, soa_calls) = results["object"], results["soa"]
    assert soa == obj
    assert obj_calls["on_grant"] > 0
    assert soa_calls == obj_calls


def test_a_stock_function_patched_between_builds_is_seen_by_the_next_build(monkeypatch):
    """``_stock()`` resolves the stock functions again when a class attribute
    changed since the last build: a plain replacement is called by name by
    the engine built after it, and once it is removed the next engine
    answers the stock body in C again."""
    from repro.simulation.soa.engine import _stock

    original = vars(MetricsCollector)["in_window"]

    def in_window(self, cycle):
        calls["in_window"] += 1
        return original(self, cycle)

    def run():
        calls.clear()
        return _transient("Base", "soa")

    stock = run()
    assert _stock()["MetricsCollector.in_window"] is original
    monkeypatch.setattr(MetricsCollector, "in_window", in_window)
    assert _stock()["MetricsCollector.in_window"] is None
    assert run() == stock
    assert calls["in_window"] > 0
    monkeypatch.undo()
    assert _stock()["MetricsCollector.in_window"] is original
    ran = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is original.__code__:
            ran["in_window"] += 1

    sys.setprofile(profile)
    try:
        assert run() == stock
    finally:
        sys.setprofile(None)
    assert ran == Counter()


# ------------------------------------------------------- topology sizes
@pytest.mark.parametrize("topology,routing", [
    ("torus", "VAL"), ("torus", "UGAL"), ("fat_tree", "VAL"), ("flattened_butterfly", "UGAL"),
    ("full_mesh", "VAL"),
])
def test_every_topology_answers_its_sizes_without_python(monkeypatch, topology, routing):
    """A Valiant intermediate and an adversarial destination read the
    topology's size properties: on the routing's own topology the core
    answers them from the sizes bound with it, on every topology."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    sizes = ("num_nodes", "num_routers", "num_regions", "routers_per_region",
             "nodes_per_router")
    watched = {
        vars(owner)[name].fget.__code__: f"{owner.__name__}.{name}"
        for owner in _subclasses(Topology) for name in sizes if name in vars(owner)
    }
    ran = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            ran[watched[frame.f_code]] += 1

    sims = {
        backend: Simulator(
            SimulationParameters.tiny(topology_preset(topology)).with_backend(backend), routing,
            pattern="ADV+1", offered_load=0.3, seed=3,
        )
        for backend in ("object", "soa")
    }
    sims["object"].run_cycles(120)
    sys.setprofile(profile)
    try:
        sims["soa"].run_cycles(120)
    finally:
        sys.setprofile(None)
    assert ran == Counter()
    delivered = {backend: sim.engine.delivered_packets for backend, sim in sims.items()}
    assert delivered["soa"] == delivered["object"] > 50
