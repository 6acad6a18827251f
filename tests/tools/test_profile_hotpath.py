"""The profiling harness CLI, focused on the machine-readable output."""

import json

import pytest

from repro.config.parameters import VALID_BACKENDS, default_backend
from repro.tools.profile_hotpath import main


def _run_json(capsys, *extra):
    assert (
        main(["--preset", "tiny", "--cycles", "120", "--json", *extra]) == 0
    )
    return json.loads(capsys.readouterr().out)


class TestJsonOutput:
    def test_document_shape(self, capsys):
        doc = _run_json(capsys)
        assert doc["schema"] == "profile-hotpath-v1"
        assert doc["scenario"] == "steady"
        assert doc["backend"] == default_backend()
        assert doc["cycles_executed"] > 0
        assert doc["wall_seconds"] > 0
        assert doc["cycles_per_second"] > 0
        assert doc["top_functions"]

    @pytest.mark.parametrize("backend", sorted(VALID_BACKENDS))
    def test_backend_choices_are_the_valid_backends(self, capsys, backend):
        assert _run_json(capsys, "--backend", backend)["backend"] == backend

    def test_top_functions_respect_sort_and_limit(self, capsys):
        doc = _run_json(capsys, "--top", "5", "--sort", "cumulative")
        rows = doc["top_functions"]
        assert len(rows) == 5
        cumtimes = [row["cumtime"] for row in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)
        for row in rows:
            assert {"file", "line", "function", "ncalls", "tottime", "cumtime"} <= set(
                row
            )

    def test_text_mode_unchanged(self, capsys):
        assert main(["--preset", "tiny", "--cycles", "120"]) == 0
        out = capsys.readouterr().out
        assert "scenario=steady" in out
        assert "cycles/s" in out
