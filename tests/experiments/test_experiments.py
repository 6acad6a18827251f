"""Tests for the experiment harnesses (scales, sweeps, figure runners, reporting)."""

import dataclasses
import math

import pytest

from repro.experiments import (
    SMALL_SCALE,
    TINY_SCALE,
    TRANSIENT_SCALE,
    aggregate_point,
    aggregate_transients,
    format_table,
    get_scale,
    load_sweep,
    pivot_series,
    rows_to_csv,
    run_figure10,
    run_figure5,
    run_figure6,
    steady_state_point,
    threshold_analysis,
)
from repro.experiments.figure5 import figure5_report
from repro.experiments.figure9 import oscillation_amplitude
from repro.experiments.scales import ExperimentScale
from repro.experiments.threshold_analysis import average_vcs_per_port
from repro.config.parameters import PAPER_PARAMETERS
from repro.simulation.results import TransientResult

#: A drastically reduced scale so the harness tests stay fast.
FAST_SCALE = dataclasses.replace(
    TINY_SCALE,
    warmup_cycles=100,
    measure_cycles=200,
    seeds=(1,),
    un_loads=(0.2,),
    adv_loads=(0.2,),
)


class TestScales:
    def test_get_scale_by_name(self):
        assert get_scale("tiny") is TINY_SCALE
        assert get_scale("SMALL") is SMALL_SCALE
        assert get_scale("transient") is TRANSIENT_SCALE
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_scales_have_consistent_fields(self):
        for scale in (TINY_SCALE, SMALL_SCALE, TRANSIENT_SCALE):
            assert scale.warmup_cycles > 0
            assert scale.measure_cycles > 0
            assert scale.seeds
            assert all(0 < load <= 1 for load in scale.un_loads + scale.adv_loads)

    def test_with_params(self):
        scale = TINY_SCALE.with_params(SMALL_SCALE.params)
        assert scale.params is SMALL_SCALE.params
        assert scale.name == TINY_SCALE.name


class TestSweep:
    def test_steady_state_point_runs_all_seeds(self):
        results = steady_state_point(
            FAST_SCALE.params, "MIN", "UN", 0.2, 100, 200, seeds=(1, 2)
        )
        assert len(results) == 2
        assert {r.seed for r in results} == {1, 2}

    def test_aggregate_point_structure(self):
        results = steady_state_point(FAST_SCALE.params, "MIN", "UN", 0.2, 100, 200, seeds=(1, 2))
        row = aggregate_point(results)
        assert row["routing"] == "MIN"
        assert row["offered_load"] == 0.2
        assert row["seeds"] == 2.0
        assert row["mean_latency"] > 0
        assert not math.isnan(row["accepted_load"])

    def test_aggregate_point_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_point([])

    def test_load_sweep_row_count(self):
        rows = load_sweep(FAST_SCALE, ["MIN", "Base"], "UN")
        assert len(rows) == 2  # 2 routings x 1 load
        assert {row["routing"] for row in rows} == {"MIN", "Base"}

    def test_load_sweep_explicit_loads_replace_the_scale_loads(self):
        """One row per routing and given load; the scale's loads are unused."""
        rows = load_sweep(FAST_SCALE, ["MIN", "Base"], "UN", loads=(0.05, 0.1))
        assert len(rows) == 4
        assert {(row["routing"], row["offered_load"]) for row in rows} == {
            ("MIN", 0.05), ("MIN", 0.1), ("Base", 0.05), ("Base", 0.1),
        }


class TestFigureHarnesses:
    def test_run_figure5_rows(self):
        rows = run_figure5(pattern="UN", scale=FAST_SCALE, routings=("MIN", "Base"))
        assert len(rows) == 2
        report = figure5_report(rows, "UN")
        assert "Figure 5" in report and "MIN" in report

    def test_run_figure6_rows(self):
        rows = run_figure6(scale=FAST_SCALE, routings=("Base",), uniform_fractions=(0.0, 1.0))
        assert len(rows) == 2
        assert {row["uniform_fraction"] for row in rows} == {0.0, 1.0}

    @pytest.mark.parametrize(
        "pattern,thresholds,reference",
        [("UN", (2, 3, 5), "MIN"), ("ADV+1", (3, 5, 8), "VAL")],
        ids=["fig10a_UN", "fig10b_ADV1"],
    )
    def test_run_figure10_includes_reference_and_thresholds(
        self, pattern, thresholds, reference
    ):
        rows = run_figure10(pattern=pattern, thresholds=thresholds, scale=FAST_SCALE)
        names = {row["routing"] for row in rows}
        assert {f"Base(th={t})" for t in thresholds} | {reference} <= names

    def test_oscillation_amplitude(self):
        series = {"mean_latency": [100.0, 200.0, 150.0, 160.0, 155.0, 150.0]}
        amplitude = oscillation_amplitude(series, settle_fraction=0.5)
        assert amplitude == pytest.approx(10.0)
        assert math.isnan(oscillation_amplitude({"mean_latency": []}))

    def test_aggregate_transients(self):
        r1 = TransientResult("Base", 0.2, 1, 100, [0, 10], [100.0, 120.0], [0.1, 0.5])
        r2 = TransientResult("Base", 0.2, 2, 100, [0, 10], [110.0, 130.0], [0.2, 0.6])
        merged = aggregate_transients([r1, r2])
        assert merged["mean_latency"] == [105.0, 125.0]
        assert merged["misrouted_fraction"][1] == pytest.approx(0.55)
        with pytest.raises(ValueError):
            aggregate_transients([])


class TestThresholdAnalysis:
    def test_paper_average_vcs_matches_section6a(self):
        # Section VI-A reports an average of 2.74 VCs per input port.
        assert average_vcs_per_port(PAPER_PARAMETERS) == pytest.approx(2.74, abs=0.01)

    def test_paper_threshold_window_contains_6(self):
        analysis = threshold_analysis(PAPER_PARAMETERS)
        assert analysis.lower_bound <= 6 <= analysis.upper_bound
        assert analysis.recommended == analysis.lower_bound
        assert analysis.as_dict()["average_vcs_per_port"] == pytest.approx(2.74, abs=0.01)


class TestReporting:
    ROWS = [
        {"routing": "MIN", "load": 0.2, "latency": 130.1234},
        {"routing": "Base", "load": 0.2, "latency": 131.5678},
    ]

    def test_format_table_alignment_and_precision(self):
        text = format_table(self.ROWS, columns=["routing", "latency"], precision=2, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "130.12" in text and "131.57" in text
        assert "load" not in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_rows_to_csv(self):
        csv_text = rows_to_csv(self.ROWS)
        assert csv_text.splitlines()[0] == "routing,load,latency"
        assert len(csv_text.splitlines()) == 3
        assert rows_to_csv([]) == ""

    def test_pivot_series(self):
        rows = [
            {"load": 0.1, "routing": "MIN", "latency": 100},
            {"load": 0.1, "routing": "Base", "latency": 101},
            {"load": 0.2, "routing": "MIN", "latency": 110},
        ]
        pivoted = pivot_series(rows, "load", "routing", "latency")
        assert pivoted[0] == {"load": 0.1, "MIN": 100, "Base": 101}
        assert pivoted[1]["MIN"] == 110
