"""The per-packet hooks the compiled core answers run no Python frame.

On a stock ``soa`` run the core answers, in C, ``select_output`` of the pure
mechanisms (their capture), ``MetricsCollector.record_delivery`` /
``record_generated`` and the accumulators they call,
``BernoulliTrafficGenerator.generate`` with the uniform, adversarial and
transient destinations, ``Packet(...)`` and ``ComputeNode.enqueue``.  A stock
check the core silently misses would fail no result test — it would only
cost the time the C path saves — so a ``sys.setprofile`` hook pins that none
of their frames runs.  The other half of the rule: a subclass override or a
class-level ``functools.wraps`` wrapper of any of them is called by name,
exactly as often as on ``object``, and the results do not change.  The one
exception is ``select_output`` under a wrapper: a captured head asks it once
per head (the pure capture) or never (the adaptive captures transcribe the
trigger), where ``object`` asks once per evaluation.
"""

import functools
import inspect
import sys
from collections import Counter

import pytest

import repro.network.network
import repro.simulation.simulator
from repro.config.parameters import SimulationParameters
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyStats
from repro.metrics.misrouting import MisroutingStats
from repro.metrics.throughput import ThroughputStats
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.network.network import Network
from repro.network.node import ComputeNode
from repro.network.packet import Packet
from repro.routing import ROUTING_REGISTRY
from repro.routing.base import RoutingAlgorithm
from repro.service.keys import result_fingerprint
from repro.simulation.simulator import Simulator
from repro.topology.base import Topology
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
    (ThroughputStats, "record_delivery"),
    (LatencyStats, "record"),
    (MisroutingStats, "record"),
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
    pairs.append((Packet, "latency"))
    code = {}
    for owner, name in pairs:
        if name in vars(owner):
            function = vars(owner)[name]
            function = function.fget if isinstance(function, property) else function
            code[inspect.unwrap(function).__code__] = f"{owner.__name__}.{name}"
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
