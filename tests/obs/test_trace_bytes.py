"""Byte identity of the dumped event stream.

The recorder stores compact rows and encodes them through per-kind
templates; the contract is that every dumped line is exactly what
``json.dumps(event, sort_keys=True)`` of the dict-per-event recorder
produced.  The digests below were recorded on the dict-per-event parent
commit (54101f2) and must hold on both backends.  The manifest and the
``perf`` line are excluded: they carry the git revision, the backend name
and wall-clock timers.
"""

import hashlib
import json

import pytest

from repro.obs import ObservationConfig
from repro.simulation.simulator import Simulator

BACKENDS = ("object", "soa")


def event_lines(hub):
    """The dumped lines without the manifest and the ``perf`` line."""
    return [
        line
        for line in hub.to_jsonl().splitlines()
        if json.loads(line)["ev"] not in ("manifest", "perf")
    ]


def _digest(hub):
    lines = event_lines(hub)
    payload = "".join(line + "\n" for line in lines).encode("utf-8")
    return len(lines), hashlib.sha256(payload).hexdigest()


def _routing_run(params, backend, routing):
    sim = Simulator(
        params.with_backend(backend),
        routing,
        "ADV+1",
        0.45,
        seed=7,
        observation=ObservationConfig(),
    )
    sim.run_steady_state(100, 200)
    return sim


def _warp_run(params, backend):
    """Traffic, then an idle stretch the engine warps over, with snapshots."""
    sim = Simulator(
        params.with_backend(backend),
        "MIN",
        "UN",
        0.2,
        seed=3,
        observation=ObservationConfig(snapshot_period=100),
    )
    sim.run_cycles(200)
    sim.traffic.set_offered_load(0.0)
    sim.run_cycles(5_000)
    sim.obs.finalize(sim.engine)
    return sim


#: case -> (event lines, sha256 of them), recorded on the parent commit.
PARENT_DIGESTS = {
    "Base": (5882, "32449b52497270ab3f1b40c18a498904793cbe90d21320e54353f583a3003dfd"),
    "Hybrid": (6504, "fa8ea70afd0339e14f57a2f06ac144e9f84faa5a8896b1f9266acaebf35e9b0e"),
    "ECtN": (6986, "fc6b9d30426eb500af483938d09f73c3c73e0d0b65cc782098278675da1adaec"),
    "OLM": (8787, "6ff981130f9f8eecea4248898731bac992878fe25e74864355dbe94bb65640f6"),
    "PB": (8621, "054cfcd833c649095e42fbb3bc0ba7fdffd12aa04f2a8d8b6c615ddbfe46caca"),
    "MIN": (3287, "36005f54f3b88d8dfa5a7cbbea440fe124594754ee76cafa46922cf0c4fb14b4"),
    "fault": (11518, "d1ed432c8fb5168d5a420690df9c12c8206146432536bbc6e4a0dbd59a852f9b"),
    "warp": (2287, "0c75f658059fd61b2bc260d01baac43c3c32047b0c26f41bb5f25655d330d8d5"),
}


def _run_case(case, params, backend, fault_run):
    if case == "fault":
        return fault_run(backend)
    if case == "warp":
        return _warp_run(params, backend)
    return _routing_run(params, backend, case)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(PARENT_DIGESTS))
def test_event_lines_match_the_parent_commit(tiny_params, fault_run, case, backend):
    sim = _run_case(case, tiny_params, backend, fault_run)
    assert _digest(sim.obs) == PARENT_DIGESTS[case]


def test_fault_case_records_fault_hops_and_drops(fault_run):
    events = fault_run("soa").obs.events
    assert any(e["ev"] == "drop" for e in events)
    assert any(e["ev"] == "hop" and e["kind"] == "fault" for e in events)


def test_warp_case_records_warps_and_snapshots(tiny_params):
    kinds = {e["ev"] for e in _warp_run(tiny_params, "soa").obs.events}
    assert {"warp", "snapshot"} <= kinds


@pytest.mark.parametrize("case", ["Hybrid", "fault", "warp"])
def test_events_property_is_the_parsed_event_lines(tiny_params, fault_run, case):
    hub = _run_case(case, tiny_params, "soa", fault_run).obs
    assert hub.events == [json.loads(line) for line in event_lines(hub)]


#: ``events`` / ``events_dropped`` of the ``max_events=25`` run on the parent.
PARENT_CAPPED = (25, 5857)
PARENT_CAPPED_DIGEST = (
    25,
    "7c46d2cf16f719804bb8ec0f5fdc43ced99179d75f1befc85030ae0f26f2d416",
)


@pytest.mark.parametrize("backend", BACKENDS)
def test_capped_run_reports_the_parents_counts(tiny_params, backend):
    sim = Simulator(
        tiny_params.with_backend(backend),
        "Base",
        "ADV+1",
        0.45,
        seed=7,
        observation=ObservationConfig(max_events=25),
    )
    sim.run_steady_state(100, 200)
    perf = sim.obs.perf
    assert (perf["events"], perf["events_dropped"]) == PARENT_CAPPED
    assert _digest(sim.obs) == PARENT_CAPPED_DIGEST


def test_arbitrary_trigger_values_encode_like_json_dumps(tiny_params):
    """A third-party mechanism may return any JSON value in its observation."""
    sim = Simulator(
        tiny_params,
        "Base",
        "ADV+1",
        0.45,
        seed=7,
        observation=ObservationConfig(),
    )
    shapes = [
        {"ratio": 0.1 + 0.2, "note": 'quote " slash \\ tab \t é  ', "gap": None},
        {"nested": [1, [2.5, None, "x"], {"b": True, "a": 1}], "ratio": 1e-7},
        {"ratio": True, "note": 7, "gap": -3},  # the first key set, other types
        {"escape": "the hub's outcome wins", "100%": 1},
        {"ratio": -0.0, "note": "", "gap": 0.0},  # equal floats, different text
        None,
    ]
    calls = []

    def observe(router, packet):
        calls.append(None)
        shape = shapes[len(calls) % len(shapes)]
        return None if shape is None else dict(shape)

    sim.routing.trigger_observation = observe
    sim.run_steady_state(50, 100)
    hub = sim.obs
    triggers = [e["trigger"] for e in hub.events if e.get("trigger")]
    assert {frozenset(t) for t in triggers} == {
        frozenset(s) | {"escape"} for s in shapes if s is not None
    }
    assert event_lines(hub) == [
        json.dumps(event, sort_keys=True) for event in hub.events
    ]
    assert hub.events == [json.loads(line) for line in event_lines(hub)]
