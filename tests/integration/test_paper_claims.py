"""Integration tests: the paper's key qualitative claims at reduced scale.

These tests run full simulations (seconds each) and check the *shape* of the
paper's results rather than absolute numbers:

* Fig. 5a — under uniform traffic, Base and ECtN match MIN's latency while
  the congestion-based mechanisms (PB, OLM) pay a latency penalty.
* Fig. 5b / 5c — under ADV+1 and ADV+h, minimal routing saturates at the
  single-global-link limit while all the adaptive mechanisms sustain the
  offered load.  The Fig. 5 sweep harness reproduces both shapes.
* Fig. 6 — in an ADV+1/UN mix, all-UN traffic is the easy case for every
  adaptive mechanism.
* Figs. 7b / 8 — after a UN → ADV+1 switch, Base and ECtN go from
  misrouting almost nothing to misrouting most of their traffic, with small
  and large buffers.
* Fig. 9 — PB and ECtN both settle into a series whose oscillation
  amplitude can be measured.
* Fig. 10 — a low Base threshold misroutes spuriously under UN; a high one
  loses throughput under ADV+1.
* Section III  — contention counters keep working when buffers grow (the
  trigger is decoupled from buffer size), and no mechanism deadlocks under
  sustained adversarial saturation.
* Section VI-A — the measured average contention counter under saturated
  uniform traffic is of the order of the analytical VCs-per-port figure.

The figure claims run the figure harnesses at the reduced scales of
``conftest.py``.
"""

import pytest

from repro.config.parameters import SimulationParameters
from repro.experiments import (
    measured_average_counter,
    oscillation_amplitude,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    threshold_analysis,
)
from repro.simulation.simulator import Simulator

ADAPTIVE = ("PB", "OLM", "Base", "Hybrid", "ECtN")


def steady(params, routing, pattern, load, seed=1, warmup=400, measure=900):
    sim = Simulator(params, routing, pattern, load, seed=seed)
    return sim.run_steady_state(warmup_cycles=warmup, measure_cycles=measure)


def _at_load(rows, load, column):
    """``{routing: row[column]}`` over the harness rows at ``load``."""
    return {row["routing"]: row[column] for row in rows if row["offered_load"] == load}


@pytest.fixture(scope="module")
def small_params():
    return SimulationParameters.small()


@pytest.fixture(scope="module")
def uniform_results(small_params):
    load = 0.25
    return {
        routing: steady(small_params, routing, "UN", load)
        for routing in ("MIN", "PB", "OLM", "Base", "ECtN")
    }


class TestUniformTraffic:
    def test_contention_mechanisms_match_min_latency(self, uniform_results):
        """Fig. 5a: Base and ECtN achieve MIN's optimal latency before saturation."""
        min_latency = uniform_results["MIN"].mean_latency
        assert uniform_results["Base"].mean_latency <= min_latency * 1.05
        assert uniform_results["ECtN"].mean_latency <= min_latency * 1.05

    def test_congestion_mechanisms_pay_latency_penalty(self, uniform_results):
        """Fig. 5a: PB and OLM misroute occasionally and have higher latency."""
        min_latency = uniform_results["MIN"].mean_latency
        assert uniform_results["OLM"].mean_latency > min_latency * 1.02
        assert uniform_results["PB"].mean_latency > min_latency * 1.02

    def test_contention_mechanisms_do_not_misroute_under_uniform(self, uniform_results):
        assert uniform_results["Base"].global_misroute_fraction < 0.05
        assert uniform_results["ECtN"].global_misroute_fraction < 0.05

    def test_all_mechanisms_deliver_offered_load(self, uniform_results):
        for routing, result in uniform_results.items():
            assert result.accepted_load == pytest.approx(0.25, abs=0.04), routing


#: The ``small`` preset has h = 2, so ADV+h (Fig. 5c) is a different
#: adversary from ADV+1 (Fig. 5b), with the same single-link limit for MIN.
ADVERSARIAL = ("ADV+1", "ADV+h")


class TestAdversarialTraffic:
    @pytest.mark.parametrize("pattern", ADVERSARIAL)
    def test_min_saturates_at_single_link_limit(self, small_params, pattern):
        """Fig. 5b/5c: MIN cannot exceed 1/(a*p) under ADV+1 or ADV+h."""
        result = steady(small_params, "MIN", pattern, 0.3)
        limit = 1.0 / (small_params.topology.a * small_params.topology.p)
        assert result.accepted_load <= limit * 1.25
        assert result.accepted_load >= limit * 0.6

    @pytest.mark.parametrize("pattern", ADVERSARIAL)
    @pytest.mark.parametrize("routing", ADAPTIVE)
    def test_adaptive_mechanisms_sustain_adversarial_load(
        self, small_params, routing, pattern
    ):
        """Fig. 5b/5c: every adaptive mechanism delivers the offered 0.3 load."""
        result = steady(small_params, routing, pattern, 0.3)
        assert result.accepted_load == pytest.approx(0.3, abs=0.05)
        assert result.global_misroute_fraction > 0.2  # most traffic is diverted

    def test_adaptive_latency_beats_min_under_adversarial(self, small_params):
        min_result = steady(small_params, "MIN", "ADV+1", 0.3)
        olm_result = steady(small_params, "OLM", "ADV+1", 0.3)
        base_result = steady(small_params, "Base", "ADV+1", 0.3)
        assert olm_result.mean_latency < min_result.mean_latency
        assert base_result.mean_latency < min_result.mean_latency


class TestBufferSizeDecoupling:
    @pytest.mark.parametrize("routing", ("Base", "Hybrid", "ECtN"))
    def test_contention_trigger_unaffected_by_large_buffers(self, small_params, routing):
        """Section II/III: the contention mechanisms misroute under ADV+1
        regardless of buffer depth."""
        large = small_params.with_buffers(
            local=small_params.local_input_buffer_phits * 8,
            global_=small_params.global_input_buffer_phits * 8,
        )
        small_run = steady(small_params, routing, "ADV+1", 0.3)
        large_run = steady(large, routing, "ADV+1", 0.3)
        assert large_run.global_misroute_fraction > 0.2
        assert large_run.accepted_load == pytest.approx(small_run.accepted_load, abs=0.05)


class TestNoDeadlock:
    @pytest.mark.parametrize("routing", ("MIN", "VAL") + ADAPTIVE)
    def test_sustained_adversarial_saturation_keeps_progressing(self, routing):
        """The VC assignment is deadlock-free: even far beyond saturation the
        network keeps delivering packets (the stall watchdog would raise)."""
        params = SimulationParameters.tiny()
        sim = Simulator(params, routing, "ADV+1", offered_load=0.9, seed=3,
                        stall_watchdog_cycles=1500)
        sim.run_cycles(3000)
        assert sim.engine.delivered_packets > 0


class TestFigure5Sweep:
    @pytest.mark.parametrize(
        "pattern", ["UN", "ADV+1", "ADV+h"], ids=["fig5a_UN", "fig5b_ADV1", "fig5c_ADVh"]
    )
    def test_sweep_has_the_figure_shape(self, steady_scale, pattern):
        """The Fig. 5 harness over MIN, VAL, OLM, Base and ECtN: one row per
        routing and load; under UN the contention mechanisms match MIN's
        latency at the lowest load, under ADV+1 / ADV+h every adaptive
        mechanism out-delivers MIN at the highest load."""
        routings = ("MIN", "VAL", "OLM", "Base", "ECtN")
        rows = run_figure5(pattern=pattern, scale=steady_scale, routings=routings)
        loads = steady_scale.un_loads if pattern == "UN" else steady_scale.adv_loads
        assert len(rows) == len(routings) * len(loads)
        if pattern == "UN":
            latency = _at_load(rows, min(loads), "mean_latency")
            assert latency["Base"] <= latency["MIN"] * 1.1
            assert latency["ECtN"] <= latency["MIN"] * 1.1
        else:
            accepted = _at_load(rows, max(loads), "accepted_load")
            for routing in ("OLM", "Base", "ECtN"):
                assert accepted[routing] > accepted["MIN"], routing


class TestMixedTraffic:
    @pytest.mark.parametrize("routing", ADAPTIVE)
    def test_uniform_mix_is_no_slower_than_adversarial(self, steady_scale, routing):
        """Fig. 6: uniform traffic is the easy case, so the latency with an
        all-UN mix stays within 1.2x of the latency with an all-ADV+1 mix."""
        fractions = (0.0, 0.5, 1.0)
        rows = run_figure6(
            scale=steady_scale, routings=(routing,), uniform_fractions=fractions
        )
        assert len(rows) == len(fractions)
        latency = {row["uniform_fraction"]: row["mean_latency"] for row in rows}
        assert latency[1.0] <= latency[0.0] * 1.2


class TestTransientAdaptation:
    @pytest.mark.parametrize("routing", ("Base", "ECtN"))
    @pytest.mark.parametrize("figure", ["fig7", "fig8"])
    def test_contention_trigger_starts_misrouting_after_the_switch(
        self, transient_scale, figure, routing
    ):
        """Figs. 7b and 8: the contention mechanisms misroute under 20 % of
        their packets before the UN -> ADV+1 switch and over 50 % from 40
        cycles after it.  Fig. 8 enlarges the buffers (4x here, 8x in the
        paper); the contention trigger does not depend on the buffer size."""
        if figure == "fig7":
            series = run_figure7(scale=transient_scale, routings=(routing,))
        else:
            series = run_figure8(
                scale=transient_scale,
                routings=(routing,),
                buffer_factor=4,
                observe_after=transient_scale.transient_observe_after,
            )
        run = series[routing]
        binned = [
            (cycle, fraction)
            for cycle, fraction in zip(run["cycles"], run["misrouted_fraction"])
            if fraction == fraction  # empty bins are NaN
        ]
        before = [fraction for cycle, fraction in binned if cycle < 0]
        after = [fraction for cycle, fraction in binned if cycle >= 40]
        assert before and after
        assert max(before) < 0.2
        assert max(after) > 0.5

    @pytest.mark.parametrize("routing", ("PB", "ECtN"))
    def test_oscillation_is_measurable(self, transient_scale, routing):
        """Fig. 9: PB and ECtN both deliver over the long window, so the
        peak-to-peak amplitude that quantifies PB's oscillations exists."""
        series = run_figure9(
            scale=transient_scale,
            routings=(routing,),
            observe_after=transient_scale.transient_observe_after * 2,
        )
        assert set(series) == {routing}
        amplitude = oscillation_amplitude(series[routing])
        assert amplitude == amplitude  # not NaN


class TestThresholdSensitivity:
    def test_low_thresholds_misroute_spuriously_under_uniform(self, steady_scale):
        """Fig. 10a: under UN the lower the Base threshold, the more packets
        it misroutes at the highest load; at the lowest load no threshold
        costs latency against MIN."""
        thresholds = (2, 3, 5)
        rows = run_figure10(pattern="UN", thresholds=thresholds, scale=steady_scale)
        labels = [f"Base(th={t})" for t in thresholds]
        misrouted = _at_load(rows, max(steady_scale.un_loads), "global_misroute_fraction")
        assert [misrouted[label] for label in labels] == sorted(
            (misrouted[label] for label in labels), reverse=True
        )
        assert misrouted[labels[0]] > misrouted[labels[-1]]
        latency = _at_load(rows, min(steady_scale.un_loads), "mean_latency")
        for label in labels:
            assert latency[label] <= latency["MIN"] * 1.05, label

    def test_high_thresholds_lose_adversarial_throughput(self, steady_scale):
        """Fig. 10b: under ADV+1 a higher Base threshold delays misrouting,
        so the accepted load at the highest load never grows with it, and
        the lowest threshold delivers at least 1.5x the highest."""
        thresholds = (3, 5, 8)
        rows = run_figure10(pattern="ADV+1", thresholds=thresholds, scale=steady_scale)
        accepted = _at_load(rows, max(steady_scale.adv_loads), "accepted_load")
        series = [accepted[f"Base(th={t})"] for t in thresholds]
        assert series == sorted(series, reverse=True)
        assert series[0] >= 1.5 * series[-1]


class TestThresholdAnalysis:
    def test_measured_counter_is_of_the_analytical_order(self):
        """Section VI-A: under saturated uniform traffic the average
        contention counter is positive and of the order of the analytical
        average VCs per port."""
        params = SimulationParameters.tiny()
        measured = measured_average_counter(
            params, offered_load=0.9, warmup_cycles=300, sample_cycles=150
        )
        assert 0.0 < measured < 3 * threshold_analysis(params).average_vcs_per_port
