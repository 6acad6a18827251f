"""ObservationConfig validation, the hash sampler, and REPRO_OBS parsing."""

import pytest

from repro.obs import ObservationConfig, pid_sampled

FULL = 2**32


class TestPidSampled:
    def test_rate_one_samples_every_pid(self):
        threshold = ObservationConfig(flight_sample_rate=1.0).sample_threshold()
        assert threshold == FULL
        assert all(pid_sampled(pid, threshold) for pid in range(10_000))

    def test_rate_zero_samples_nothing(self):
        threshold = ObservationConfig(flight_sample_rate=0.0).sample_threshold()
        assert threshold == 0
        assert not any(pid_sampled(pid, threshold) for pid in range(10_000))

    def test_partial_rate_hits_roughly_the_requested_fraction(self):
        threshold = ObservationConfig(flight_sample_rate=0.25).sample_threshold()
        hits = sum(pid_sampled(pid, threshold) for pid in range(10_000))
        assert 0.20 < hits / 10_000 < 0.30

    def test_decision_is_deterministic(self):
        threshold = ObservationConfig(flight_sample_rate=0.5).sample_threshold()
        first = [pid_sampled(pid, threshold) for pid in range(1_000)]
        second = [pid_sampled(pid, threshold) for pid in range(1_000)]
        assert first == second


class TestValidation:
    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_sample_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ValueError, match="flight_sample_rate"):
            ObservationConfig(flight_sample_rate=rate)

    def test_negative_snapshot_period_rejected(self):
        with pytest.raises(ValueError, match="snapshot_period"):
            ObservationConfig(snapshot_period=-1)

    def test_negative_max_events_rejected(self):
        with pytest.raises(ValueError, match="max_events"):
            ObservationConfig(max_events=-1)


class TestFromEnv:
    def test_unset_and_zero_mean_disabled(self):
        assert ObservationConfig.from_env({}) is None
        assert ObservationConfig.from_env({"REPRO_OBS": ""}) is None
        assert ObservationConfig.from_env({"REPRO_OBS": "0"}) is None

    def test_one_enables_the_defaults(self):
        assert ObservationConfig.from_env({"REPRO_OBS": "1"}) == ObservationConfig()

    def test_key_value_list_tunes_fields(self):
        config = ObservationConfig.from_env(
            {"REPRO_OBS": "sample=0.25, snapshot=100, max_events=9"}
        )
        assert config == ObservationConfig(
            flight_sample_rate=0.25, snapshot_period=100, max_events=9
        )

    def test_unknown_key_rejected(self):
        for item in ("sampel=0.5", "link=0", "trigger=1"):
            with pytest.raises(ValueError, match="unknown REPRO_OBS key"):
                ObservationConfig.from_env({"REPRO_OBS": item})

    def test_bare_token_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            ObservationConfig.from_env({"REPRO_OBS": "snapshot"})

    @pytest.mark.parametrize(
        "item, message",
        [
            ("sample=half", "could not convert"),
            ("snapshot=1.5", "invalid literal"),
            ("max_events=many", "invalid literal"),
            ("sample=1.5", "flight_sample_rate"),
            ("snapshot=-1", "snapshot_period"),
            ("max_events=-5", "max_events"),
        ],
    )
    def test_bad_value_rejected(self, item, message):
        with pytest.raises(ValueError, match=message):
            ObservationConfig.from_env({"REPRO_OBS": item})

    def test_blank_entries_and_padding_are_ignored(self):
        config = ObservationConfig.from_env({"REPRO_OBS": " ,sample = 0.5,, snapshot= 10 ,"})
        assert config == ObservationConfig(flight_sample_rate=0.5, snapshot_period=10)
