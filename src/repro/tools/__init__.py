"""Developer tools: golden re-recording, the sweep service CLI, trace reports.

These are command-line entry points (``python -m repro.tools.<name>``), not
library code used by the simulator itself:

* :mod:`repro.tools.record_goldens` — re-record the fixed-seed golden
  results consumed by ``tests/simulation/test_golden_determinism.py``;
* :mod:`repro.tools.sweep_service` — figure sweeps through the
  content-addressed result cache, plus cache administration;
* :mod:`repro.tools.trace_report` — report on and diff dumped ``repro.obs``
  traces.

Speed is measured by the repo benchmark, ``perf/run.py`` (see
``perf/README.md``).
"""
