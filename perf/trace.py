"""Outside-in tracing: timing wrappers around the public layer boundaries.

``install()`` wraps the *public* boundary callables of the ``repro`` packages
with ``perf_counter_ns`` spans — at class level for methods, by rebinding the
name in every ``repro`` module for functions.  It runs in the traced worker
only, before the traced pass builds its Simulators, and is never undone: the
worker exits afterwards.  Nothing inside ``src/`` is edited; decisions the SoA
fast mode inlines (trigger gates, the PB / ECtN broadcasts) are therefore
charged to ``simulation.run`` — splitting them needs in-program spans.

Hot edges are aggregated in memory as ``(name, parent) -> calls, total ns,
child-covered ns``; coarse spans (set-up, point, run, map, and the worker's
own pass / build / replay spans) are kept individually with their parent and
the id of the point they belong to.  A name's self time is its total minus
what its child spans cover.  A wrapper that finds its own name on top of the
stack passes through, so a ``super()`` chain or a hook calling its helper
counts as one call.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import weakref
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["PER_LAYER", "Tracer", "install"]

#: Every per-layer metric and its unit, in ``BENCHMARK.json`` order.  A metric
#: a workload does not exercise reads 0.
PER_LAYER: Dict[str, str] = {
    "config.hash.calls": "count",
    "config.hash.self_s": "s",
    "topology.build.calls": "count",
    "topology.build_s": "s",
    "topology.min_port.calls": "count",
    "topology.min_port.self_s": "s",
    "routing.build_s": "s",
    "routing.select_output.calls": "count",
    "routing.select_output.self_s": "s",
    "routing.evals_per_hop": "ratio",
    "routing.grants": "count",
    "routing.hooks.calls": "count",
    "routing.hooks.self_s": "s",
    "routing.post_cycle.calls": "count",
    "routing.post_cycle.self_s": "s",
    "traffic.generate.calls": "count",
    "traffic.generate.self_s": "s",
    "traffic.packets": "count",
    "traffic.next_arrival.calls": "count",
    "network.build_s": "s",
    "simulation.engine_build_s": "s",
    "simulation.run.calls": "count",
    "simulation.run.self_s": "s",
    "simulation.cycles_executed": "count",
    "simulation.cycles_skipped": "count",
    "simulation.delivered": "count",
    "simulation.us_per_hop": "us",
    "simulation.us_per_cycle": "us",
    "metrics.record.calls": "count",
    "metrics.record.self_s": "s",
    "metrics.summary_s": "s",
    "obs.record.calls": "count",
    "obs.record.self_s": "s",
    "obs.events": "count",
    "obs.events_dropped": "count",
    "obs.finalize_s": "s",
    "obs.dump_s": "s",
    "obs.trace_mb": "MB",
    "experiments.point.calls": "count",
    "experiments.point.self_s": "s",
    "experiments.map.self_s": "s",
    "service.point_key.calls": "count",
    "service.point_key.self_s": "s",
    "service.lookup.calls": "count",
    "service.lookup.self_s": "s",
    "service.lookup.hits": "count",
    "service.hit_ratio": "ratio",
    "service.codec.self_s": "s",
    "service.fingerprint.calls": "count",
    "service.fingerprint.self_s": "s",
    "service.store.calls": "count",
    "service.store.self_s": "s",
    "service.cache_entries": "count",
    "service.cache_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

Observer = Callable[[tuple], Optional[Callable[[Any], None]]]


class Tracer:
    """Span stack, edge aggregates, counters and the kept coarse spans."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, child-covered ns]``.
        self.stack: List[list] = []
        #: ``(name, parent name) -> [calls, total ns, child-covered ns]``.
        self.edges: Dict[Tuple[str, Optional[str]], List[int]] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[dict] = []
        #: Id of the simulation point being built or run (0 = none yet); a
        #: kept span carries the id current when it closes.
        self.point = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> Tuple[Optional[list], list]:
        parent = self.stack[-1] if self.stack else None
        frame = [name, 0]
        self.stack.append(frame)
        return parent, frame

    def _close(self, parent: Optional[list], frame: list, start: int, end: int, keep: bool) -> None:
        self.stack.pop()
        name = frame[0]
        duration = end - start
        parent_name = None
        if parent is not None:
            parent[1] += duration
            parent_name = parent[0]
        edge = self.edges.get((name, parent_name))
        if edge is None:
            edge = self.edges[(name, parent_name)] = [0, 0, 0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += frame[1]
        if keep:
            self.spans.append(
                {
                    "name": name,
                    "layer": name.split(".", 1)[0],
                    "parent": parent_name,
                    "point": self.point,
                    "start_ns": start,
                    "end_ns": end,
                }
            )

    def wrap(
        self,
        func: Callable,
        name: str,
        keep: bool = False,
        observe: Optional[Observer] = None,
    ) -> Callable:
        """``func`` timed as span ``name``.

        ``keep`` stores each span individually; ``observe(args)`` runs before
        the span opens and may return a callable that receives the result
        (for counts that need the call's arguments or outcome).
        """
        stack = self.stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            done = observe(args) if observe is not None else None
            parent, frame = self._open(name)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(parent, frame, start, perf_counter_ns(), keep)
            if done is not None:
                done(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A kept span around the benchmark's own code (pass, build)."""
        parent, frame = self._open(name)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(parent, frame, start, perf_counter_ns(), True)

    # ------------------------------------------------------------ reporting
    def calls(self, name: str) -> int:
        return sum(e[0] for (n, _), e in self.edges.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(e[1] for (n, _), e in self.edges.items() if n == name) / 1e9

    def self_s(self, name: str) -> float:
        return sum(e[1] - e[2] for (n, _), e in self.edges.items() if n == name) / 1e9

    def layer_metrics(self) -> Dict[str, float]:
        """Every ``PER_LAYER`` metric the wrappers themselves can give."""
        out = {name: 0.0 for name in PER_LAYER}
        for name in PER_LAYER:
            stem, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls(stem)
            elif kind == "self_s":
                out[name] = self.self_s(stem)
        out["topology.build_s"] = self.total_s("topology.build")
        out["routing.build_s"] = self.total_s("routing.build")
        out["network.build_s"] = self.total_s("network.build")
        out["simulation.engine_build_s"] = self.total_s("simulation.engine_build")
        out["metrics.summary_s"] = self.total_s("metrics.summary")
        out["obs.finalize_s"] = self.total_s("obs.finalize")
        out["obs.dump_s"] = self.total_s("obs.dump")
        out.update({k: v for k, v in self.counts.items() if k in PER_LAYER})
        grants = out["routing.grants"]
        executed = out["simulation.cycles_executed"]
        run_us = out["simulation.run.self_s"] * 1e6
        if grants:
            out["routing.evals_per_hop"] = out["routing.select_output.calls"] / grants
            out["simulation.us_per_hop"] = run_us / grants
        if executed:
            out["simulation.us_per_cycle"] = run_us / executed
        lookups = out["service.lookup.calls"]
        if lookups:
            out["service.hit_ratio"] = out["service.lookup.hits"] / lookups
        out["trace.spans"] = sum(e[0] for e in self.edges.values())
        return out

    def document(self) -> dict:
        """What ``trace-<workload>.json`` holds besides the metrics."""
        return {
            "edges": [
                {
                    "name": name,
                    "parent": parent,
                    "calls": calls,
                    "total_ns": total,
                    "child_ns": child,
                }
                for (name, parent), (calls, total, child) in sorted(
                    self.edges.items(), key=lambda item: (item[0][0], item[0][1] or "")
                )
            ],
            "spans": self.spans,
        }


# ------------------------------------------------------------------ install
def _rebind(func: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module global that is ``func`` at ``wrapper``.

    ``from x import f`` copies the reference, so the defining module is not
    enough; tuples of runners (the caching executor's allow-list) are rebuilt.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".", 1)[0] != "repro":
            continue
        for key, value in list(vars(module).items()):
            if value is func:
                setattr(module, key, wrapper)
            elif isinstance(value, tuple) and any(item is func for item in value):
                setattr(
                    module, key, tuple(wrapper if item is func else item for item in value)
                )


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every class below it, each once."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))


def install() -> Tracer:
    """Wrap the layer boundaries; returns the tracer that collects them."""
    import repro.experiments  # noqa: F401  (imports every layer below)
    import repro.service  # noqa: F401
    from repro.experiments import parallel
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.latency import LatencyStats
    from repro.metrics.timeseries import TimeSeriesRecorder
    from repro.network.network import Network
    from repro.obs import telemetry
    from repro.obs.hub import ObservationHub
    from repro.routing import create_routing
    from repro.routing.base import RoutingAlgorithm
    from repro.routing.contention.counters import ContentionTracker
    from repro.service import cache, keys
    from repro.simulation.backends import create_engine
    from repro.simulation.engine import Engine
    from repro.simulation.simulator import Simulator
    from repro.topology.base import Topology
    from repro.topology.registry import create_topology
    from repro.traffic.bernoulli import BernoulliTrafficGenerator

    tracer = Tracer()
    point_of: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    point_ids = itertools.count(1)

    def new_point(args):
        tracer.point = point_of[args[0]] = next(point_ids)

    def resume_point(args):
        tracer.point = point_of.get(args[0], tracer.point)

    def functions(*items, **options) -> None:
        for func, name in items:
            _rebind(func, tracer.wrap(func, name, **options))

    def methods(cls: type, names, span: str, **options) -> None:
        """Wrap ``names`` wherever ``cls`` or a subclass defines them."""
        for sub in _subclasses(cls):
            for attr in names:
                func = vars(sub).get(attr)
                if callable(func) and not isinstance(func, (staticmethod, classmethod)):
                    setattr(sub, attr, tracer.wrap(func, span, **options))

    def counting(metric: str, amount=lambda result: 1) -> Observer:
        def observe(args):
            return lambda result: tracer.count(metric, amount(result))

        return observe

    def engine_cycles(args):
        engine = args[0]
        cycle, skipped = engine.cycle, engine.cycles_skipped

        def done(result):
            jumped = engine.cycles_skipped - skipped
            tracer.count("simulation.cycles_skipped", jumped)
            tracer.count("simulation.cycles_executed", engine.cycle - cycle - jumped)

        return done

    # Set-up: kept individually, one span per constructed part.  Every
    # Simulator is one point; its id is resumed when the point is run.
    methods(Simulator, ["__init__"], "simulation.build", keep=True, observe=new_point)
    functions(
        (create_topology, "topology.build"),
        (create_routing, "routing.build"),
        (create_engine, "simulation.engine_build"),
        keep=True,
    )
    methods(Network, ["__init__"], "network.build", keep=True)
    # The simulated run.
    methods(Simulator, ["run_steady_state", "run_transient"], "simulation.point",
            keep=True, observe=resume_point)
    methods(Engine, ["run"], "simulation.run", keep=True, observe=engine_cycles)
    methods(BernoulliTrafficGenerator, ["generate"], "traffic.generate",
            observe=counting("traffic.packets", len))
    methods(BernoulliTrafficGenerator, ["next_arrival_cycle"], "traffic.next_arrival")
    methods(RoutingAlgorithm, ["select_output"], "routing.select_output")
    methods(RoutingAlgorithm, ["on_grant"], "routing.hooks",
            observe=counting("routing.grants"))
    methods(
        RoutingAlgorithm,
        ["on_inject", "on_packet_arrival", "on_packet_head", "on_packet_leave_input"],
        "routing.hooks",
    )
    methods(ContentionTracker, ["on_head", "on_leave"], "routing.hooks")
    methods(RoutingAlgorithm, ["post_cycle"], "routing.post_cycle")
    methods(Topology, ["minimal_output_port"], "topology.min_port")
    methods(MetricsCollector, ["record_delivery"], "metrics.record",
            observe=counting("simulation.delivered"))
    methods(MetricsCollector, ["record_generated", "record_dropped"], "metrics.record")
    methods(MetricsCollector, ["summary"], "metrics.summary")
    methods(LatencyStats, ["percentile"], "metrics.summary")
    methods(TimeSeriesRecorder, ["points"], "metrics.summary")
    methods(
        ObservationHub,
        ["record_grant", "record_delivery", "record_dropped", "on_cycle", "on_warp"],
        "obs.record",
    )
    methods(ObservationHub, ["finalize"], "obs.finalize")
    methods(ObservationHub, ["dump"], "obs.dump")
    # Experiments and the sweep service.
    functions(
        (parallel.run_steady_point, "experiments.point"),
        (parallel.run_transient_point_spec, "experiments.point"),
        keep=True,
    )
    methods(parallel.ParallelSweepExecutor, ["map"], "experiments.map", keep=True)
    functions((telemetry.config_hash, "config.hash"), (keys.point_key, "service.point_key"))
    functions((keys.result_fingerprint, "service.fingerprint"))
    functions((cache.encode_entry, "service.codec"), (cache.decode_entry, "service.codec"))
    methods(cache.DirectoryResultCache, ["store"], "service.store")
    methods(
        cache.DirectoryResultCache,
        ["lookup"],
        "service.lookup",
        observe=counting("service.lookup.hits", lambda r: 0 if r is None else 1),
    )
    return tracer
