"""High-level simulation facade.

:class:`Simulator` wires together a topology, a routing mechanism, a traffic
pattern and the cycle engine, and exposes the two measurement protocols used
by the paper:

* :meth:`Simulator.run_steady_state` — warm-up followed by a measurement
  window, reporting average latency, accepted load and misrouting fractions
  (the points of Figs. 5, 6 and 10);
* :meth:`Simulator.run_transient` — warm-up under one traffic pattern, switch
  to another at ``t = 0``, and report per-cycle-bin latency/misrouting series
  (Figs. 7, 8 and 9).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.config.parameters import SimulationParameters
from repro.metrics.collector import MetricsCollector
from repro.metrics.timeseries import TimeSeriesRecorder
from repro.network.network import Network
from repro.obs import ObservationConfig, ObservationHub, build_manifest, phase_timer
from repro.routing import create_routing
from repro.simulation.backends import create_engine
from repro.simulation.results import SteadyStateResult, TransientResult
from repro.topology.base import Topology
from repro.topology.faults import FaultModel, FaultRuntime
from repro.topology.registry import create_topology
from repro.traffic import TrafficPattern, TransientTraffic, create_pattern
from repro.traffic.bernoulli import BernoulliTrafficGenerator

__all__ = ["Simulator"]


class Simulator:
    """One simulated system: topology + routing + traffic + engine."""

    def __init__(
        self,
        params: SimulationParameters,
        routing: str,
        pattern: "TrafficPattern | str | None" = None,
        offered_load: float = 0.0,
        seed: int = 1,
        stall_watchdog_cycles: Optional[int] = 20_000,
        pattern_factory: Optional[Callable[[Topology], TrafficPattern]] = None,
        time_warp: bool = True,
        fault_model: Optional[FaultModel] = None,
        observation: "ObservationConfig | ObservationHub | None" = None,
    ):
        """Build one simulated system.

        ``pattern`` may be a pattern name (``"UN"``, ``"ADV+1"`` ...) or a
        ready-made :class:`~repro.traffic.base.TrafficPattern`.  When the
        pattern needs the simulator's topology to be constructed (e.g. the
        mixed-traffic experiment), pass ``pattern_factory`` — a callable
        ``topology -> TrafficPattern`` — instead of ``pattern``.

        The seed spawns three *named* RNG streams: the routing stream
        (misrouting candidate picks, Valiant intermediates), the traffic
        arrival stream (block pre-sampled Bernoulli draws) and the
        destination/payload stream (one draw per generated packet).
        Separating them keeps every stream's draw order well-defined no
        matter how the engine batches or warps over cycles.

        ``time_warp`` lets the engine jump over provably idle cycles; results
        are bit-identical either way (disable only for validation).

        ``fault_model`` injects link faults (see
        :mod:`repro.topology.faults`).  Its RNG is a *fourth* named stream,
        spawned only when a fault model is present — the first three children
        of a ``SeedSequence`` are independent of how many siblings follow, so
        healthy runs stay bit-identical with the fault subsystem in the tree.

        ``observation`` attaches the :mod:`repro.obs` probe subsystem — an
        :class:`~repro.obs.ObservationConfig` (a hub is built for it) or a
        ready-made :class:`~repro.obs.ObservationHub`.  When omitted, the
        ``REPRO_OBS`` environment variable can enable probes without
        touching call sites (mirroring ``REPRO_BACKEND``); probes never
        touch the RNG streams, so results are bit-identical with
        observation on or off.
        """
        if (pattern is None) == (pattern_factory is None):
            raise ValueError("exactly one of pattern / pattern_factory is required")
        self.params = params
        self.seed = seed
        seed_seq = np.random.SeedSequence(seed)
        routing_seq, arrival_seq, payload_seq = seed_seq.spawn(3)
        #: Routing stream (kept as ``rng`` for backward compatibility).
        self.rng = np.random.default_rng(routing_seq)
        self.arrival_rng = np.random.default_rng(arrival_seq)
        self.payload_rng = np.random.default_rng(payload_seq)
        self.topology = create_topology(params.topology)
        self.faults: Optional[FaultRuntime] = None
        if fault_model is not None and not fault_model.is_trivial:
            (fault_seq,) = seed_seq.spawn(1)
            fault_rng = np.random.default_rng(fault_seq)
            self.faults = FaultRuntime(self.topology, fault_model, fault_rng)
        self.routing = create_routing(routing, self.topology, params, self.rng)
        if self.faults is not None:
            self.routing.attach_faults(self.faults)
        self.network = Network(self.topology, params, self.routing, faults=self.faults)
        if pattern_factory is not None:
            pattern = pattern_factory(self.topology)
        elif isinstance(pattern, str):
            pattern = create_pattern(pattern, self.topology)
        self.pattern = pattern
        self.traffic = BernoulliTrafficGenerator(
            topology=self.topology,
            pattern=pattern,
            offered_load=offered_load,
            packet_size_phits=params.packet_size_phits,
            rng=self.payload_rng,
            arrival_rng=self.arrival_rng,
        )
        self.engine = create_engine(
            params.backend,
            self.network,
            self.traffic,
            metrics=None,
            stall_watchdog_cycles=stall_watchdog_cycles,
            time_warp=time_warp,
            faults=self.faults,
        )
        #: Of the last ``run_steady_state`` / ``run_transient``: the cycles its
        #: drain took (at most ``drain_cycles``) and the window packets still
        #: undelivered when it ended — they are missing from the result's
        #: latency and misrouting figures.
        self.drain_cycles_used = 0
        self.unsettled_packets = 0
        self.obs: Optional[ObservationHub] = None
        if observation is None:
            observation = ObservationConfig.from_env()
        if observation is not None:
            self.attach_observation(observation)

    # ------------------------------------------------------------ observation
    def attach_observation(
        self, observation: "ObservationConfig | ObservationHub"
    ) -> ObservationHub:
        """Wire a probe hub into the engine and stamp its run manifest."""
        hub = (
            observation
            if isinstance(observation, ObservationHub)
            else ObservationHub(observation)
        )
        self.obs = hub
        self.engine.attach_observation(hub)
        hub.set_manifest(build_manifest(self))
        return hub

    # ------------------------------------------------------------------ basic
    @property
    def cycle(self) -> int:
        return self.engine.cycle

    def run_cycles(self, cycles: int) -> None:
        """Advance the simulation without measuring (warm-up / drain)."""
        self.engine.run(cycles)

    def _drain(self, metrics: MetricsCollector, drain_cycles: int) -> None:
        """Let the window's packets reach their destination, so that their
        latency is included: for ``drain_cycles`` at most, and no longer than
        it takes the closed window to settle."""
        engine = self.engine
        start = engine.cycle
        # A fault run drains in full: ``dropped_packets`` counts every drop
        # over the whole span the collector is attached, not only the
        # window's packets.
        until = metrics.window_settled if self.faults is None else None
        engine.run(drain_cycles, until)
        self.drain_cycles_used = engine.cycle - start
        self.unsettled_packets = metrics.unsettled_packets()
        if self.obs is not None:
            self.obs.perf.update(
                drain_cycles_used=self.drain_cycles_used,
                unsettled_packets=self.unsettled_packets,
            )

    # ----------------------------------------------------------- steady state
    def run_steady_state(
        self,
        warmup_cycles: int,
        measure_cycles: int,
        drain_cycles: Optional[int] = None,
    ) -> SteadyStateResult:
        """Warm up, measure for ``measure_cycles``, drain, and summarise."""
        if drain_cycles is None:
            drain_cycles = self._default_drain_cycles()
        obs = self.obs
        with phase_timer(obs, "warmup"):
            self.run_cycles(warmup_cycles)

        start = self.engine.cycle
        end = start + measure_cycles
        metrics = MetricsCollector(
            num_nodes=self.topology.num_nodes, measure_start=start, measure_end=end
        )
        metrics.finalize_window()
        self.engine.metrics = metrics
        with phase_timer(obs, "measure"):
            self.engine.run(measure_cycles)
        with phase_timer(obs, "drain"):
            self._drain(metrics, drain_cycles)
        self.engine.metrics = None
        if obs is not None:
            obs.finalize(self.engine)

        return SteadyStateResult(
            routing=self.routing.name,
            pattern=self.pattern.name,
            offered_load=self.traffic.offered_load,
            seed=self.seed,
            mean_latency=metrics.latency.mean,
            p99_latency=metrics.latency.percentile(99),
            accepted_load=metrics.throughput.accepted_load,
            global_misroute_fraction=metrics.misrouting.global_misroute_fraction,
            local_misroute_fraction=metrics.misrouting.local_misroute_fraction,
            mean_hops=metrics.misrouting.mean_hops,
            delivered_packets=metrics.misrouting.delivered,
            dropped_packets=metrics.dropped_packets,
            fault_rerouted_packets=metrics.fault_rerouted_delivered,
        )

    # -------------------------------------------------------------- transient
    def run_transient(
        self,
        warmup_cycles: int,
        observe_before: int,
        observe_after: int,
        bin_size: int = 10,
        drain_cycles: Optional[int] = None,
    ) -> TransientResult:
        """Run a transient experiment around the pattern's switch cycle.

        The simulator must have been built with a
        :class:`~repro.traffic.transient.TransientTraffic` pattern whose
        ``switch_cycle`` equals ``warmup_cycles``: the traffic changes right
        after the warm-up, observation covers ``observe_before`` cycles before
        and ``observe_after`` cycles after the change, and the reported cycle
        axis is relative to the change (as in Figs. 7–9).
        """
        if not isinstance(self.pattern, TransientTraffic):
            raise TypeError("run_transient requires a TransientTraffic pattern")
        switch = self.pattern.switch_cycle
        if switch != warmup_cycles:
            raise ValueError(
                f"pattern switch cycle ({switch}) must equal warmup_cycles ({warmup_cycles})"
            )
        if drain_cycles is None:
            drain_cycles = self._default_drain_cycles()

        series = TimeSeriesRecorder(
            bin_size=bin_size,
            start_cycle=switch - observe_before,
            end_cycle=switch + observe_after,
        )
        metrics = MetricsCollector(
            num_nodes=self.topology.num_nodes,
            measure_start=switch - observe_before,
            measure_end=switch + observe_after,
            timeseries=series,
        )
        metrics.finalize_window()
        self.engine.metrics = metrics
        with phase_timer(self.obs, "transient"):
            self.engine.run(switch + observe_after)
            self._drain(metrics, drain_cycles)
        self.engine.metrics = None
        if self.obs is not None:
            self.obs.finalize(self.engine)

        points = series.points()
        return TransientResult(
            routing=self.routing.name,
            offered_load=self.traffic.offered_load,
            seed=self.seed,
            switch_cycle=switch,
            cycles=[p.bin_start - switch for p in points],
            mean_latency=[p.mean_latency for p in points],
            misrouted_fraction=[p.misrouted_fraction for p in points],
        )

    # ---------------------------------------------------------------- helpers
    def _default_drain_cycles(self) -> int:
        """A drain period long enough for in-flight packets to be delivered."""
        p = self.params
        rtt = 2 * p.global_link_latency + 4 * p.local_link_latency
        return max(4 * rtt, 20 * p.packet_size_phits)

    @classmethod
    def build_transient(
        cls,
        params: SimulationParameters,
        routing: str,
        before: str,
        after: str,
        offered_load: float,
        switch_cycle: int,
        seed: int = 1,
        stall_watchdog_cycles: Optional[int] = 20_000,
        time_warp: bool = True,
    ) -> "Simulator":
        """Convenience constructor for UN→ADV-style transient experiments."""
        topology = create_topology(params.topology)
        pattern = TransientTraffic(
            topology,
            before=create_pattern(before, topology),
            after=create_pattern(after, topology),
            switch_cycle=switch_cycle,
        )
        return cls(
            params,
            routing,
            pattern,
            offered_load,
            seed=seed,
            stall_watchdog_cycles=stall_watchdog_cycles,
            time_warp=time_warp,
        )
