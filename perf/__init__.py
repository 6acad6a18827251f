"""The repo benchmark: five fixed workloads, host-time metrics, per-layer trace.

Entry point: ``python3 perf/run.py`` (see ``perf/README.md``).
"""
