"""The one bounded draw (``repro.draws.integers``) against numpy's own.

Both bodies the draw can bind to — the compiled core's ``integers`` and the
numpy call — must return ``int(rng.integers(low, high))`` and consume exactly
the stream it consumes, on every bit generator numpy ships; the cases the C
body does not transcribe must reach ``rng.integers`` by name.  The fallback
goldens pin whole runs with the numpy body bound, and the seam guard keeps
every bounded draw of the package behind the one function.
"""

from __future__ import annotations

import ast
import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import draws
from repro.config.parameters import SimulationParameters
from repro.simulation.simulator import Simulator
from repro.topology.registry import topology_preset

BIT_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64")
#: Bound widths: the transcribed range (1 draws nothing; ``2**31 + 1`` and
#: ``3 * 2**30`` reject about half and a quarter of the raw draws, so
#: Lemire's rejection loop runs) and the wider ones numpy answers by name.
WIDTHS = (1, 2, 3, 7, 272, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**33)
GOLDENS = json.loads(
    (Path(__file__).parents[1] / "simulation" / "goldens.json").read_text()
)


def _compiled():
    from repro.simulation.soa import load_core

    return load_core().integers


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(_compiled, id="compiled", marks=pytest.mark.soa_core),
        pytest.param(lambda: draws.numpy_integers, id="numpy"),
    ]
)
def binding(request):
    return request.param()


def _twins(name: str, seed: int):
    """Two generators over equal, independent bit generators."""
    bit_generator = getattr(np.random, name)
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("draw"), st.integers(-(2**40), 2**40), st.sampled_from(WIDTHS)
        ),
        st.tuples(st.just("block"), st.integers(1, 4), st.integers(1, 5)),
    ),
    min_size=1,
    max_size=40,
)


@given(name=st.sampled_from(BIT_GENERATORS), seed=st.integers(0, 2**32), steps=steps)
@settings(max_examples=60, deadline=None)
def test_draws_equal_numpy_in_value_and_stream(binding, name, seed, steps):
    mine, theirs = _twins(name, seed)
    for step in steps:
        if step[0] == "draw":
            _, low, width = step
            value = binding(mine, low, low + width)
            assert type(value) is int
            assert value == int(theirs.integers(low, low + width))
        else:
            _, rows, columns = step
            assert np.array_equal(mine.random((rows, columns)), theirs.random((rows, columns)))
    assert _same_state(mine.bit_generator.state, theirs.bit_generator.state)


@pytest.mark.parametrize(
    "low, high", [(2**63 - 5, 2**63), (-(2**63), -(2**63) + 3), (-3, 2**32 - 4), (5, 6)]
)
def test_edges_of_the_int64_range(binding, low, high):
    mine, theirs = _twins("PCG64", 3)
    for _ in range(20):
        assert binding(mine, low, high) == int(theirs.integers(low, high))
    assert _same_state(mine.bit_generator.state, theirs.bit_generator.state)


@pytest.mark.parametrize("low, high", [(5, 5), (5, 2), (0, 0), (0, -1), (-(2**64), 0), (0, 2**64)])
def test_bad_bounds_raise_what_numpy_raises(binding, low, high):
    mine, theirs = _twins("PCG64", 1)
    with pytest.raises(Exception) as expected:
        theirs.integers(low, high)
    with pytest.raises(expected.type) as raised:
        binding(mine, low, high)
    assert str(raised.value) == str(expected.value)
    assert _same_state(mine.bit_generator.state, theirs.bit_generator.state)


def test_numpy_int_bounds_go_by_name(binding):
    mine, theirs = _twins("SFC64", 9)
    for high in (np.int64(272), np.int32(3), np.uint64(2**40)):
        value = binding(mine, np.int64(0), high)
        assert type(value) is int
        assert value == int(theirs.integers(np.int64(0), high))
    assert _same_state(mine.bit_generator.state, theirs.bit_generator.state)


def test_other_rng_types_go_by_name(binding):
    class Duck:
        def __init__(self):
            self.calls = []

        def integers(self, low, high):
            self.calls.append((low, high))
            return np.int64(high - 1)

    class Subclass(np.random.Generator):
        def integers(self, low, high):
            return 41

    duck = Duck()
    assert binding(duck, 3, 10) == 9
    assert binding(duck, 0, 1) == 0
    assert duck.calls == [(3, 10), (0, 1)]
    assert binding(Subclass(np.random.PCG64(0)), 0, 272) == 41


def test_a_held_lock_blocks_the_draw_until_released(binding):
    mine, theirs = _twins("PCG64", 17)
    lock = mine.bit_generator.lock
    drawn = []
    lock.acquire()
    try:
        drawer = threading.Thread(target=lambda: drawn.append(binding(mine, 0, 272)))
        drawer.start()
        drawer.join(timeout=0.3)
        assert drawer.is_alive() and not drawn
    finally:
        lock.release()
    drawer.join(timeout=10)
    assert not drawer.is_alive()
    assert drawn == [int(theirs.integers(0, 272))]
    assert _same_state(mine.bit_generator.state, theirs.bit_generator.state)


@pytest.mark.parametrize(
    "core_loads", [pytest.param(True, marks=pytest.mark.soa_core), False]
)
def test_the_first_call_binds_the_body(monkeypatch, core_loads):
    """Importing compiles nothing: ``integers`` binds on its first call, to
    the core's function where the core loads and to the numpy body where it
    cannot be built.  (Run on a fresh copy of the module's namespace.)"""
    from repro.simulation.soa import CoreUnavailable, _loader

    fresh = {"__name__": draws.__name__}
    exec(compile(Path(draws.__file__).read_text(), draws.__file__, "exec"), fresh)
    if not core_loads:
        monkeypatch.setattr(_loader, "_loaded", CoreUnavailable("no compiler here"))
    expected = _compiled() if core_loads else fresh["numpy_integers"]
    assert fresh["integers"] is not expected
    drawn = fresh["integers"](np.random.default_rng(2), 0, 272)
    assert drawn == int(np.random.default_rng(2).integers(0, 272))
    assert fresh["integers"] is expected


# ----------------------------------------------------------- fallback goldens
def _counting_numpy_body(calls):
    def integers(rng, low, high):
        calls.append(1)
        return draws.numpy_integers(rng, low, high)

    return integers


#: One steady golden per topology — each a mechanism that draws on the Python
#: side (a Valiant intermediate, an in-transit pick or a destination).
FALLBACK_STEADY = [
    ("dragonfly", "UGAL"),
    ("flattened_butterfly", "Base"),
    ("full_mesh", "VAL"),
    ("torus", "Hybrid"),
    ("fat_tree", "VAL"),
]


def _cross_topology_golden(topology, routing):
    (golden,) = [
        g
        for g in GOLDENS["cross_topology"]
        if (g["topology"], g["routing"]) == (topology, routing)
    ]
    return golden


@pytest.mark.parametrize("backend", ["object", "soa"])
@pytest.mark.parametrize("topology, routing", FALLBACK_STEADY)
def test_numpy_body_reproduces_the_steady_goldens(monkeypatch, backend, topology, routing):
    calls = []
    monkeypatch.setattr(draws, "integers", _counting_numpy_body(calls))
    golden = _cross_topology_golden(topology, routing)
    params = SimulationParameters.tiny(topology_preset(topology)).with_backend(backend)
    sim = Simulator(
        params, routing, golden["pattern"], golden["offered_load"], seed=golden["seed"]
    )
    result = sim.run_steady_state(warmup_cycles=150, measure_cycles=300)
    for field, value in golden["expected"].items():
        assert getattr(result, field) == value, field
    assert calls, "the run drew nothing through repro.draws"


@pytest.mark.parametrize("backend", ["object", "soa"])
def test_numpy_body_reproduces_the_transient_golden(monkeypatch, backend):
    calls = []
    monkeypatch.setattr(draws, "integers", _counting_numpy_body(calls))
    cfg = GOLDENS["transient"]["config"]
    expected = GOLDENS["transient"]["expected"]
    sim = Simulator.build_transient(
        SimulationParameters.tiny().with_backend(backend),
        cfg["routing"],
        cfg["before"],
        cfg["after"],
        offered_load=cfg["offered_load"],
        switch_cycle=cfg["switch_cycle"],
        seed=cfg["seed"],
    )
    result = sim.run_transient(
        warmup_cycles=cfg["switch_cycle"],
        observe_before=cfg["observe_before"],
        observe_after=cfg["observe_after"],
        bin_size=cfg["bin_size"],
    )
    assert result.cycles == expected["cycles"]
    assert result.mean_latency == expected["mean_latency"]
    assert result.misrouted_fraction == expected["misrouted_fraction"]
    assert calls, "the run drew nothing through repro.draws"


# ------------------------------------------------------------------ seam guard
def test_every_bounded_draw_goes_through_repro_draws():
    """No ``.integers(`` call in the package outside ``repro/draws.py``: a
    new stream (counter-based draws) then has one function to replace."""
    package = Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "draws.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "integers"
                and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "draws")
            ):
                offenders.append(f"{path.relative_to(package.parent)}:{node.lineno}")
    assert offenders == []
