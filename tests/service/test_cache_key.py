"""Property suite for the sweep-service cache key.

The key is sound only if it is *invariant* under representation noise
(field ordering, explicit defaults, the excluded backend field) and
*sensitive* to every semantic input (every parameter field, every
topology field, the fault model, the point coordinates).  Invariance
failures waste the cache; sensitivity failures serve **wrong results** —
so the sensitivity half enumerates the dataclass fields mechanically
instead of trusting a hand-maintained list.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from repro.config.parameters import (
    DragonflyConfig,
    SimulationParameters,
    VALID_BACKENDS,
)
from repro.experiments.parallel import SteadyPointSpec, TransientPointSpec
from repro.obs.telemetry import config_hash
from repro.service.keys import (
    canonical_fault_model,
    is_cacheable,
    point_key,
    point_payload,
    result_fingerprint,
)
from repro.simulation.results import SteadyStateResult
from repro.topology.faults import DegradedLink, FaultModel, FaultSchedule
from repro.topology.registry import topology_preset


def steady_spec(params=None, **overrides) -> SteadyPointSpec:
    base = dict(
        params=params if params is not None else SimulationParameters.tiny(),
        routing="Base",
        pattern="ADV+1",
        offered_load=0.3,
        warmup_cycles=100,
        measure_cycles=200,
        seed=42,
    )
    base.update(overrides)
    return SteadyPointSpec(**base)


def transient_spec(params=None, **overrides) -> TransientPointSpec:
    base = dict(
        params=params if params is not None else SimulationParameters.tiny(),
        routing="Base",
        before="UN",
        after="ADV+1",
        offered_load=0.2,
        warmup_cycles=100,
        observe_before=50,
        observe_after=100,
        bin_size=10,
        seed=7,
    )
    base.update(overrides)
    return TransientPointSpec(**base)


def perturb(value):
    """A different-but-valid value for one config field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        # Thresholds live in (0, 1]; halving stays valid for them and
        # still changes any other float.
        return value * 0.5 if 0.0 < value <= 1.0 else value + 0.125
    if isinstance(value, tuple):
        return tuple(value[:-1]) + (value[-1] + 1,)
    if isinstance(value, str):
        alternatives = {"palmtree": "consecutive", "consecutive": "palmtree"}
        return alternatives.get(value, value + "_x")
    raise TypeError(f"no perturbation for {value!r}")


class TestKeyFormat:
    def test_key_is_64_hex_chars_and_deterministic(self):
        spec = steady_spec()
        assert re.fullmatch(r"[0-9a-f]{64}", point_key(spec))
        assert point_key(spec) == point_key(steady_spec())

    def test_steady_and_transient_keys_never_collide(self):
        # Same routing/load/seed in both kinds: the kind tag separates them.
        assert point_key(steady_spec()) != point_key(transient_spec())

    def test_payload_carries_the_manifest_config_hash(self):
        """Cache entries and trace manifests agree on configuration identity."""
        spec = steady_spec()
        assert point_payload(spec)["config_hash"] == config_hash(spec.params)

    def test_payload_carries_the_goldens_schema_rev(self):
        from repro.simulation.results import GOLDENS_SCHEMA_REV

        assert point_payload(steady_spec())["schema"] == GOLDENS_SCHEMA_REV
        assert point_payload(transient_spec())["schema"] == GOLDENS_SCHEMA_REV


class TestKeyStability:
    """Literal keys and fingerprints: a format drift must fail here, loudly.

    Any change to the key payload or to either JSON encoding silently turns
    every existing on-disk cache into misses.  These literals were recorded
    from the code that wrote the caches in use; re-record them only with a
    deliberate, announced key-format change.
    """

    def test_steady_key(self):
        assert point_key(steady_spec()) == (
            "05042fb34ec8b4b858c0b58276a2f518d22d89efa2ac3cfc3eb154e6cd392f19"
        )

    def test_transient_key(self):
        assert point_key(transient_spec()) == (
            "e572cb2ab53b2fee8e09a73713f0281d6f2f207dc8c75cdb2785b6be8defde8c"
        )

    def test_faulty_steady_key(self):
        model = FaultModel(
            link_failure_percent=5.0,
            failed_links=((1, 3), (0, 2)),
            degraded_links=(
                (
                    (2, 4),
                    DegradedLink(bandwidth_factor=1.5, latency_factor=3, contention_bias=1),
                ),
            ),
            schedule=FaultSchedule(((50, (0, 2), "fail"), (120, (0, 2), "repair"))),
        )
        assert point_key(steady_spec(fault_model=model)) == (
            "d8652e7ef55b1b620fac7b846aadcb5ba50cb2a1ee9e5ab27326d02dea74e0f8"
        )

    def test_result_fingerprint(self):
        result = SteadyStateResult(
            routing="Base",
            pattern="ADV+1",
            offered_load=0.3,
            seed=42,
            mean_latency=123.456789,
            p99_latency=987.654321,
            accepted_load=0.29,
            global_misroute_fraction=0.125,
            local_misroute_fraction=0.0625,
            mean_hops=3.5,
            delivered_packets=12345,
            dropped_packets=3,
            fault_rerouted_packets=7,
        )
        assert result_fingerprint(result) == (
            "b60b366cd5e62a592937d10bec7fae2be8cf8782a59fcdf866ba7cbbb4a5899c"
        )


class TestCacheability:
    def test_plain_specs_are_cacheable(self):
        assert is_cacheable(steady_spec())
        assert is_cacheable(transient_spec())

    def test_pattern_factory_points_are_not(self):
        spec = steady_spec(pattern=None, pattern_factory=lambda topo: None)
        assert not is_cacheable(spec)
        with pytest.raises(ValueError):
            point_key(spec)

    def test_unknown_objects_are_not(self):
        assert not is_cacheable(object())
        with pytest.raises(TypeError):
            point_key(object())


class TestInvariance:
    def test_backend_field_is_excluded(self):
        """object and soa requests share one key (manifest contract)."""
        keys = {
            point_key(steady_spec(params=SimulationParameters.tiny().with_backend(b)))
            for b in sorted(VALID_BACKENDS)
        }
        assert len(keys) == 1

    def test_explicit_defaults_equal_omitted_defaults(self):
        implicit = SimulationParameters(topology=DragonflyConfig.tiny())
        explicit = SimulationParameters(
            topology=DragonflyConfig.tiny(),
            router_latency=5,
            internal_speedup=2,
            local_link_latency=10,
            global_link_latency=100,
            packet_size_phits=8,
        )
        assert point_key(steady_spec(implicit)) == point_key(steady_spec(explicit))

    def test_trivial_fault_model_equals_no_fault_model(self):
        # The simulator spawns the fault RNG stream only for non-trivial
        # models, so FaultModel() provably computes the same point as None.
        assert canonical_fault_model(None) is None
        assert canonical_fault_model(FaultModel()) is None
        assert point_key(steady_spec(fault_model=FaultModel())) == point_key(
            steady_spec(fault_model=None)
        )

    def test_failed_link_listing_order_is_not_semantic(self):
        a = FaultModel(failed_links=((0, 2), (1, 3)))
        b = FaultModel(failed_links=((1, 3), (0, 2)))
        assert point_key(steady_spec(fault_model=a)) == point_key(
            steady_spec(fault_model=b)
        )


class TestSensitivity:
    """Every semantic field perturbs the key — enumerated, not hand-listed."""

    @pytest.mark.parametrize(
        "field",
        [
            f.name
            for f in dataclasses.fields(SimulationParameters)
            if f.name not in ("topology", "backend")
        ],
    )
    def test_every_parameter_field_perturbs_the_key(self, field):
        params = SimulationParameters.tiny()
        perturbed = dataclasses.replace(
            params, **{field: perturb(getattr(params, field))}
        )
        assert point_key(steady_spec(params)) != point_key(steady_spec(perturbed))

    def test_every_topology_config_field_perturbs_the_key(self, every_topology):
        config = topology_preset(every_topology, "tiny")
        base = SimulationParameters.tiny(config)
        for f in dataclasses.fields(config):
            perturbed_config = dataclasses.replace(
                config, **{f.name: perturb(getattr(config, f.name))}
            )
            perturbed = SimulationParameters.tiny(perturbed_config)
            assert point_key(steady_spec(base)) != point_key(
                steady_spec(perturbed)
            ), f"{every_topology}.{f.name} did not perturb the cache key"

    def test_topology_kind_perturbs_the_key(self):
        dragonfly = SimulationParameters.tiny(topology_preset("dragonfly", "tiny"))
        torus = SimulationParameters.tiny(topology_preset("torus", "tiny"))
        assert point_key(steady_spec(dragonfly)) != point_key(steady_spec(torus))

    @pytest.mark.parametrize(
        "override",
        [
            {"routing": "MIN"},
            {"pattern": "UN"},
            {"offered_load": 0.31},
            {"warmup_cycles": 101},
            {"measure_cycles": 201},
            {"seed": 43},
        ],
    )
    def test_every_steady_coordinate_perturbs_the_key(self, override):
        assert point_key(steady_spec()) != point_key(steady_spec(**override))

    @pytest.mark.parametrize(
        "override",
        [
            {"routing": "MIN"},
            {"before": "ADV+2"},
            {"after": "ADV+2"},
            {"offered_load": 0.25},
            {"warmup_cycles": 101},
            {"observe_before": 51},
            {"observe_after": 101},
            {"bin_size": 11},
            {"seed": 8},
        ],
    )
    def test_every_transient_coordinate_perturbs_the_key(self, override):
        assert point_key(transient_spec()) != point_key(transient_spec(**override))

    @pytest.mark.parametrize(
        "model",
        [
            FaultModel(link_failure_percent=5.0),
            FaultModel(failed_links=((0, 2),)),
            FaultModel(
                degraded_links=(((0, 2), DegradedLink(bandwidth_factor=2)),)
            ),
            FaultModel(
                degraded_links=(((0, 2), DegradedLink(latency_factor=2)),)
            ),
            FaultModel(
                degraded_links=(((0, 2), DegradedLink(contention_bias=3)),)
            ),
            FaultModel(schedule=FaultSchedule(((50, (0, 2), "fail"),))),
            FaultModel(link_failure_percent=5.0, allow_partition=True),
        ],
    )
    def test_every_fault_model_aspect_perturbs_the_key(self, model):
        healthy = point_key(steady_spec())
        faulty = point_key(steady_spec(fault_model=model))
        assert healthy != faulty

    def test_fault_model_aspects_are_mutually_distinct(self):
        models = [
            FaultModel(link_failure_percent=5.0),
            FaultModel(link_failure_percent=10.0),
            FaultModel(failed_links=((0, 2),)),
            FaultModel(schedule=FaultSchedule(((50, (0, 2), "fail"),))),
            FaultModel(link_failure_percent=5.0, allow_partition=True),
        ]
        keys = {point_key(steady_spec(fault_model=m)) for m in models}
        assert len(keys) == len(models)


class TestSeededRandomGrid:
    """Random spec pairs over every registered topology (registry fixture)."""

    def test_equal_specs_hash_equal_and_neighbors_differ(self, every_topology):
        rng = random.Random(f"cache-key-{every_topology}")
        params = SimulationParameters.tiny(topology_preset(every_topology, "tiny"))
        for _ in range(25):
            coords = dict(
                routing=rng.choice(("MIN", "VAL", "UGAL")),
                pattern=rng.choice(("UN", "ADV+1", "ADV+h")),
                offered_load=round(rng.uniform(0.05, 0.9), 3),
                warmup_cycles=rng.randrange(10, 500),
                measure_cycles=rng.randrange(10, 500),
                seed=rng.randrange(1, 10_000),
            )
            spec = steady_spec(params, **coords)
            twin = steady_spec(params, **coords)
            assert point_key(spec) == point_key(twin)
            neighbor = steady_spec(params, **{**coords, "seed": coords["seed"] + 1})
            assert point_key(spec) != point_key(neighbor)
