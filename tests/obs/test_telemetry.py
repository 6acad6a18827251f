"""Manifest, config hash, git revision and phase timers."""

import hashlib
import json
import pickle
import re

import pytest

from repro.config.parameters import SimulationParameters
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
    ObservationConfig,
    ObservationHub,
    build_manifest,
    config_hash,
    git_revision,
    phase_timer,
)
from repro.simulation.simulator import Simulator
from repro.topology.registry import available_topologies, topology_preset

#: Every preset of the parameter set, and the tiny preset of every topology.
PRESETS = {
    "tiny": SimulationParameters.tiny,
    "small": SimulationParameters.small,
    "transient": SimulationParameters.transient,
    "paper": SimulationParameters.paper,
    **{
        f"tiny-{name}": (lambda name=name: SimulationParameters.tiny(topology_preset(name)))
        for name in available_topologies()
    },
}


def fresh_hash(params) -> str:
    """The configuration hash recomputed from scratch, without the memo."""
    canonical = json.dumps(params.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class TestConfigHash:
    def test_stable_for_equal_configurations(self, tiny_params):
        assert config_hash(tiny_params) == config_hash(tiny_params)
        assert re.fullmatch(r"[0-9a-f]{16}", config_hash(tiny_params))

    def test_backend_is_excluded(self, tiny_params):
        """Backends are bit-identical, so their traces share one hash."""
        assert config_hash(tiny_params.with_backend("object")) == config_hash(
            tiny_params.with_backend("soa")
        )

    def test_any_other_field_changes_the_hash(self, tiny_params, small_params):
        assert config_hash(tiny_params) != config_hash(small_params)


@pytest.mark.parametrize("preset", sorted(PRESETS))
class TestConfigHashMemo:
    """The per-instance memo never answers differently from a fresh hash."""

    def test_memo_equals_a_fresh_hash(self, preset):
        params = PRESETS[preset]()
        assert config_hash(params) == fresh_hash(params)
        assert config_hash(params) == fresh_hash(params)  # served from the memo

    def test_copies_hash_by_their_own_fields(self, preset):
        params = PRESETS[preset]()
        config_hash(params)  # fill the memo before copying
        other = "object" if params.backend == "soa" else "soa"
        assert config_hash(params.with_backend(other)) == config_hash(params)
        changed = params.with_threshold(params.base_contention_threshold + 1)
        assert config_hash(changed) != config_hash(params)
        assert config_hash(changed) == fresh_hash(changed)

    def test_pickle_keeps_the_hash_and_equality(self, preset):
        empty = PRESETS[preset]()
        filled = PRESETS[preset]()
        digest = config_hash(filled)
        assert empty == filled and hash(empty) == hash(filled)
        assert empty.as_dict() == filled.as_dict()
        assert empty.canonical_dict() == filled.canonical_dict()
        for params in (empty, filled):
            copy = pickle.loads(pickle.dumps(params))
            assert copy == empty == filled
            assert config_hash(copy) == digest


class TestGitRevision:
    """``git_revision`` reads ``.git`` itself, so each case builds one."""

    SHA = "0123456789abcdef0123456789abcdef01234567"

    def _repository(self, root, head):
        git_dir = root / ".git"
        git_dir.mkdir()
        (git_dir / "HEAD").write_text(head + "\n")
        return git_dir

    def test_resolves_a_loose_ref(self, tmp_path):
        git_dir = self._repository(tmp_path, "ref: refs/heads/main")
        (git_dir / "refs" / "heads").mkdir(parents=True)
        (git_dir / "refs" / "heads" / "main").write_text(self.SHA + "\n")
        assert git_revision(tmp_path / "src" / "module.py") == self.SHA[:12]

    def test_resolves_a_ref_only_in_packed_refs(self, tmp_path):
        git_dir = self._repository(tmp_path, "ref: refs/heads/main")
        other = "f" * 40
        (git_dir / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{other} refs/heads/other\n"
            f"{self.SHA} refs/heads/main\n"
        )
        assert git_revision(tmp_path) == self.SHA[:12]

    def test_resolves_a_detached_head(self, tmp_path):
        self._repository(tmp_path, self.SHA)
        assert git_revision(tmp_path / "deep" / "er") == self.SHA[:12]

    def test_unknown_for_a_ref_nowhere(self, tmp_path):
        self._repository(tmp_path, "ref: refs/heads/gone")
        assert git_revision(tmp_path) == "unknown"

    def test_unknown_outside_a_repository(self, tmp_path):
        assert git_revision(tmp_path / "nowhere") == "unknown"


class TestManifest:
    def test_simulator_manifest_fields(self, tiny_params):
        sim = Simulator(
            tiny_params,
            "Base",
            "ADV+1",
            0.45,
            seed=7,
            observation=ObservationConfig(),
        )
        manifest = build_manifest(sim)
        assert manifest["ev"] == "manifest"
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["trace_schema"] == TRACE_SCHEMA_VERSION
        assert manifest["config_hash"] == config_hash(tiny_params)
        assert manifest["seed"] == 7
        assert manifest["routing"] == "Base"
        assert manifest["pattern"] == "ADV+1"
        assert manifest["offered_load"] == 0.45
        assert manifest["num_nodes"] == sim.topology.num_nodes
        # attach_observation already stamped the same manifest on the hub.
        assert sim.obs.manifest == manifest


class TestPhaseTimer:
    def test_none_hub_is_a_noop(self):
        with phase_timer(None, "warmup"):
            pass  # must not raise, must not require a hub

    def test_accumulates_into_the_perf_block(self):
        hub = ObservationHub()
        with phase_timer(hub, "measure"):
            pass
        with phase_timer(hub, "measure"):
            pass
        with phase_timer(hub, "drain"):
            pass
        phases = hub.perf["phase_seconds"]
        assert set(phases) == {"measure", "drain"}
        assert phases["measure"] >= 0.0

    def test_records_even_when_the_phase_raises(self):
        hub = ObservationHub()
        with pytest.raises(RuntimeError):
            with phase_timer(hub, "broken"):
                raise RuntimeError("boom")
        assert "broken" in hub.perf["phase_seconds"]


class TestEnvAttach:
    def test_repro_obs_env_attaches_probes(self, tiny_params, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "sample=0.5,snapshot=25")
        sim = Simulator(tiny_params, "MIN", "UN", 0.2, seed=1)
        assert sim.obs is not None
        assert sim.obs.config == ObservationConfig(
            flight_sample_rate=0.5, snapshot_period=25
        )
        assert sim.engine.obs is sim.obs
        assert sim.network.routing._obs is sim.obs

    def test_explicit_config_wins_over_env(self, tiny_params, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        sim = Simulator(
            tiny_params,
            "MIN",
            "UN",
            0.2,
            seed=1,
            observation=ObservationConfig(),
        )
        assert sim.obs is not None
