"""The sweep-service CLI, driven in-process through ``main``.

Pins the exact contract the CI service-smoke lane relies on: exit code 0
with all assertions green on a warm replay, exit code 2 when an
``--assert-*`` / ``--expect-rows`` check fails, exit code 1 on usage
errors, and telemetry documents that embed the BENCH baseline.
"""

from __future__ import annotations

import json

import pytest

from repro.tools.sweep_service import main, run_experiment
from repro.service import CachingSweepExecutor

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _run_args(tmp_path, *extra: str):
    return [
        "run",
        "--experiment",
        "figure5",
        "--scale",
        "tiny",
        "--pattern",
        "UN",
        "--routings",
        "MIN",
        "--loads",
        "0.1",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--quiet",
        *extra,
    ]


class TestRunCommand:
    def test_cold_then_warm_with_all_assertions(self, tmp_path):
        cold = _run_args(
            tmp_path,
            "--rows-out",
            str(tmp_path / "out" / "rows-cold.json"),
            "--telemetry-out",
            str(tmp_path / "out" / "tele-cold.json"),
        )
        assert main(cold) == 0
        tele_cold = json.loads((tmp_path / "out" / "tele-cold.json").read_text())
        assert tele_cold["schema"] == "sweep-service-run-v1"
        assert tele_cold["cache"]["hits"] == 0
        assert tele_cold["cache"]["misses"] == tele_cold["points"] > 0

        warm = _run_args(
            tmp_path,
            "--rows-out",
            str(tmp_path / "out" / "rows-warm.json"),
            "--telemetry-out",
            str(tmp_path / "out" / "tele-warm.json"),
            "--expect-rows",
            str(tmp_path / "out" / "rows-cold.json"),
            "--assert-min-hit-rate",
            "0.9",
            "--cold-telemetry",
            str(tmp_path / "out" / "tele-cold.json"),
            # The warm run serves from cache; even a modest floor proves
            # the replay path without making the test timing-sensitive.
            "--assert-min-speedup",
            "1.0",
        )
        assert main(warm) == 0
        tele_warm = json.loads((tmp_path / "out" / "tele-warm.json").read_text())
        assert tele_warm["cache"]["hit_rate"] == 1.0
        rows_cold = (tmp_path / "out" / "rows-cold.json").read_text()
        rows_warm = (tmp_path / "out" / "rows-warm.json").read_text()
        assert rows_warm == rows_cold  # byte-identical replay

    def test_failed_row_expectation_exits_2(self, tmp_path):
        assert main(_run_args(tmp_path)) == 0
        wrong = tmp_path / "wrong-rows.json"
        wrong.write_text(json.dumps([{"routing": "nope"}]))
        assert main(_run_args(tmp_path, "--expect-rows", str(wrong))) == 2

    def test_unmet_hit_rate_exits_2(self, tmp_path):
        # Cold run: zero hits, so any positive floor fails.
        assert main(_run_args(tmp_path, "--assert-min-hit-rate", "0.5")) == 2

    def test_speedup_without_cold_telemetry_is_a_usage_error(self, tmp_path):
        assert main(_run_args(tmp_path, "--assert-min-speedup", "10")) == 1


class TestAdminCommands:
    def test_stats_prune_clear_cycle(self, tmp_path, capsys):
        assert main(_run_args(tmp_path)) == 0
        cache_dir = str(tmp_path / "cache")

        assert main(["stats", "--cache-dir", cache_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["entries"] > 0
        assert summary["kinds"] == {"steady": summary["entries"]}

        # Nothing is stale under the current schema revision.
        assert main(["prune", "--cache-dir", cache_dir]) == 0
        assert "pruned 0 stale entries" in capsys.readouterr().out

        assert main(["clear", "--cache-dir", cache_dir]) == 0
        assert f"removed {summary['entries']} entries" in capsys.readouterr().out
        assert main(["stats", "--cache-dir", cache_dir]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0


class TestRunExperimentDispatch:
    def test_unknown_experiment_rejected(self):
        exe = CachingSweepExecutor()
        try:
            with pytest.raises(ValueError, match="unknown experiment"):
                run_experiment("figure99", exe)
        finally:
            exe.close()

    def test_fault_sweep_routes_through_the_executor(self, tmp_path):
        exe = CachingSweepExecutor()
        try:
            rows, report = run_experiment(
                "fault_sweep", exe, scale="tiny", pattern="UN", routings=["MIN"]
            )
        finally:
            exe.close()
        assert rows and "MIN" in report
        # Healthy baseline points of the fault sweep are cacheable; the
        # sweep must have gone through the caching layer.
        assert exe.stats.lookups > 0
