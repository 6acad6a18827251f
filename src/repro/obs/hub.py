"""The observation hub: probes, flight recorder, and the event stream.

One :class:`ObservationHub` instance is attached to an engine (either
backend) via ``engine.attach_observation(hub)``.  The engine then pays
exactly one cached-attribute ``is None`` check per instrumentation site:

* ``RoutingAlgorithm.on_grant`` (both backends funnel every grant through
  the same base-class method) → :meth:`ObservationHub.record_grant`, the
  per-hop site serving the flight recorder, link-utilization accumulation
  and trigger traces at once;
* the engines' delivery/drop drain loops → :meth:`record_delivery` /
  :meth:`record_dropped`;
* the end of ``step()`` → :meth:`on_cycle` (periodic snapshots, counters);
* the warp-jump branch of ``run()`` → :meth:`on_warp` (quiet ranges).

Why grants, not trigger evaluations: the SoA backend legitimately skips
re-evaluating heads whose trigger state cannot have changed (the
``alloc_clean`` fast path) and inlines closed-gate checks, so the *number
of trigger consultations* differs across backends while remaining
observationally identical.  The committed grant — and every quantity
readable at grant time — is bit-identical, which is exactly the invariant
the cross-backend trace-equality test pins.

The hub is an observer only: it never mutates simulation state and never
touches an RNG stream (sampling is a packet-id hash, see
:mod:`repro.obs.config`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.config import ObservationConfig, pid_sampled
from repro.obs.telemetry import TRACE_SCHEMA_VERSION
from repro.topology.base import PortKind

__all__ = ["ObservationHub", "FLIGHT_EVENTS", "load_trace"]

#: Event kinds produced by the flight recorder (the deterministic,
#: backend-invariant subset of the stream; ``trace_diff`` compares these).
FLIGHT_EVENTS = ("inject", "hop", "deliver", "drop")

_NEVER = 2**62

#: Buffer-class letter per output-port kind (ejection ports have
#: ``PortKind.INJECTION``; seen from the crossbar they are the exit).
_KIND_CHAR = {PortKind.GLOBAL: "G", PortKind.LOCAL: "L", PortKind.INJECTION: "E"}


class ObservationHub:
    """Collects probe events, flight records and run telemetry for one run."""

    __slots__ = (
        "config",
        "events",
        "manifest",
        "perf",
        "_threshold",
        "_reader",
        "_radix",
        "_port_chars",
        "_topology",
        "_link_phits",
        "_seen_pids",
        "_next_snapshot",
        "_trigger_totals",
        "_last_trigger",
        "_grants",
        "_events_dropped",
        "_cycles_observed",
        "_alloc_router_cycles",
        "_warp_jumps",
        "_snapshots_taken",
        "_snapshots_skipped",
    )

    def __init__(self, config: Optional[ObservationConfig] = None):
        self.config = config or ObservationConfig()
        self.events: List[dict] = []
        self.manifest: Optional[dict] = None
        self.perf: dict = {}
        self._threshold = self.config.sample_threshold()
        self._reader = None
        self._radix = 0
        self._port_chars: List[str] = []
        self._topology = None
        self._link_phits: List[int] = []
        self._seen_pids: set = set()
        self._next_snapshot = _NEVER
        #: rid -> [consultations, escapes] over sampled grants.
        self._trigger_totals: Dict[int, List[int]] = {}
        #: rid -> the most recent trigger consultation (stall diagnostics).
        self._last_trigger: Dict[int, dict] = {}
        self._grants = 0
        self._events_dropped = 0
        self._cycles_observed = 0
        self._alloc_router_cycles = 0
        self._warp_jumps = 0
        self._snapshots_taken = 0
        self._snapshots_skipped = 0

    # ------------------------------------------------------------- attachment
    def on_attach(self, engine) -> None:
        """Bind to an engine: build the backend's state reader, size tables."""
        self._reader = engine._make_obs_reader()
        topology = engine.network.topology
        self._topology = topology
        self._radix = topology.router_radix
        self._port_chars = [_KIND_CHAR[kind] for kind in topology.port_kinds]
        self._link_phits = [0] * (topology.num_routers * self._radix)
        if self.config.snapshot_period:
            self._next_snapshot = self.config.snapshot_period

    # ------------------------------------------------------------ hot hooks
    def record_grant(self, routing, router, port, vc, packet, decision, cycle) -> None:
        """One committed grant (called from ``RoutingAlgorithm.on_grant``).

        At this point ``on_packet_leave_input`` has already fired in both
        backends, so contention counters exclude the departing packet and
        ``packet.contention_port`` is cleared — trigger snapshots recompute
        the minimal port from the topology instead.
        """
        self._grants += 1
        out_port = decision.output_port
        rid = router.router_id
        if self.config.link_utilization:
            self._link_phits[rid * self._radix + out_port] += packet.size_phits
        pid = packet.pid
        if not pid_sampled(pid, self._threshold):
            return
        if pid not in self._seen_pids:
            self._seen_pids.add(pid)
            self._emit(
                {
                    "ev": "inject",
                    "pid": pid,
                    "cycle": packet.injection_cycle,
                    "src": packet.src,
                    "dst": packet.dst,
                    "size": packet.size_phits,
                    "created": packet.creation_cycle,
                }
            )
        kind = self._hop_kind(decision, out_port)
        event = {
            "ev": "hop",
            "pid": pid,
            "cycle": cycle,
            "router": rid,
            "in_port": port,
            "in_vc": vc,
            "out_port": out_port,
            "out_vc": decision.vc,
            "cls": f"{self._port_chars[out_port]}{decision.vc}",
            "kind": kind,
        }
        if self.config.trigger_trace and kind not in ("eject", "fault"):
            trigger = routing.trigger_observation(router, packet)
            if trigger is not None:
                escape = kind != "minimal"
                trigger["escape"] = escape
                event["trigger"] = trigger
                totals = self._trigger_totals.setdefault(rid, [0, 0])
                totals[0] += 1
                if escape:
                    totals[1] += 1
                self._last_trigger[rid] = {"pid": pid, "cycle": cycle, **trigger}
        self._emit(event)

    def record_delivery(self, packet, cycle) -> None:
        """A packet handed to its destination node (engine drain loop)."""
        pid = packet.pid
        if not pid_sampled(pid, self._threshold):
            return
        self._emit(
            {
                "ev": "deliver",
                "pid": pid,
                "cycle": packet.delivered_cycle,
                "latency": packet.delivered_cycle - packet.creation_cycle,
                "hops": packet.hops,
            }
        )

    def record_dropped(self, packet, cycle) -> None:
        """A packet dropped as unreachable after a fault (engine drain loop)."""
        pid = packet.pid
        if not pid_sampled(pid, self._threshold):
            return
        self._emit({"ev": "drop", "pid": pid, "cycle": cycle, "hops": packet.hops})

    def on_cycle(self, cycle: int, alloc_routers: int) -> None:
        """End of one executed engine cycle (both backends)."""
        self._cycles_observed += 1
        self._alloc_router_cycles += alloc_routers
        if cycle >= self._next_snapshot:
            self._take_snapshot(cycle)
            self._next_snapshot = cycle + self.config.snapshot_period

    def on_warp(self, start: int, target: int) -> None:
        """The engine warped from ``start`` to ``target`` (exclusive..inclusive).

        Warped-over cycles are provably no-ops — the network state at
        ``target`` equals the state at ``start`` — so snapshot points
        inside the range are recorded as one explicit quiet range rather
        than re-read (they would all be identical) or silently lost.
        """
        self._warp_jumps += 1
        event = {"ev": "warp", "start": start, "end": target}
        period = self.config.snapshot_period
        if period and self._next_snapshot <= target:
            missed = (target - self._next_snapshot) // period + 1
            self._snapshots_skipped += missed
            event["snapshots_skipped"] = missed
            self._next_snapshot += missed * period
        self._emit(event)

    # ------------------------------------------------------------- internals
    def _hop_kind(self, decision, out_port: int) -> str:
        if decision.set_fault_mode:
            return "fault"
        if self._port_chars[out_port] == "E":
            return "eject"
        if decision.set_must_misroute_global:
            return "nm_global_proxy"
        if decision.nonminimal_global:
            return "nm_global"
        if decision.nonminimal_local:
            return "nm_local"
        return "minimal"

    def _emit(self, event: dict) -> None:
        if len(self.events) >= self.config.max_events:
            self._events_dropped += 1
            return
        self.events.append(event)

    def _take_snapshot(self, cycle: int) -> None:
        reader = self._reader
        if reader is None:
            return
        self._snapshots_taken += 1
        self._emit(
            {
                "ev": "snapshot",
                "cycle": cycle,
                "inputs": [list(row) for row in reader.input_occupancy()],
                "outputs": [list(row) for row in reader.output_committed()],
            }
        )

    # ------------------------------------------------------------- telemetry
    def finalize(self, engine) -> dict:
        """Fold the engine's counters into the ``perf`` block and return it."""
        perf = self.perf
        perf.update(
            {
                "ev": "perf",
                "cycles_executed": engine.cycle - engine.cycles_skipped,
                "cycles_skipped": engine.cycles_skipped,
                "warp_jumps": self._warp_jumps,
                "cycles_observed": self._cycles_observed,
                "alloc_router_cycles": self._alloc_router_cycles,
                "delivered_packets": engine.delivered_packets,
                "dropped_packets": engine.dropped_packets,
                "grants": self._grants,
                "events": len(self.events),
                "events_dropped": self._events_dropped,
                "snapshots_taken": self._snapshots_taken,
                "snapshots_skipped": self._snapshots_skipped,
            }
        )
        draws = getattr(engine, "_draws", None)
        if draws is not None:
            perf["rng_draws"] = draws
        return perf

    def set_manifest(self, manifest: dict) -> None:
        self.manifest = manifest

    # ----------------------------------------------------------- query / dump
    def flight_events(self, pid: Optional[int] = None) -> List[dict]:
        """The deterministic flight-recorder subset, optionally one packet."""
        events = [e for e in self.events if e["ev"] in FLIGHT_EVENTS]
        if pid is not None:
            events = [e for e in events if e.get("pid") == pid]
        return events

    def link_utilization(self) -> List[dict]:
        """Per-(router, output port) forwarded phits, non-zero links only."""
        rows = []
        radix = self._radix
        for index, phits in enumerate(self._link_phits):
            if phits:
                rid, port = divmod(index, radix)
                rows.append(
                    {
                        "router": rid,
                        "port": port,
                        "kind": self._port_chars[port],
                        "phits": phits,
                    }
                )
        return rows

    def trigger_summary(self) -> List[dict]:
        """Per-router trigger consultations and escape counts (sampled grants)."""
        return [
            {"router": rid, "consultations": totals[0], "escapes": totals[1]}
            for rid, totals in sorted(self._trigger_totals.items())
        ]

    def last_trigger(self, rid: int) -> Optional[dict]:
        return self._last_trigger.get(rid)

    def stall_context(self, pid: int, rid: int) -> List[str]:
        """Extra ``SimulationStallError`` diagnostics from the probe state."""
        lines = []
        path = self.flight_events(pid)
        if path:
            hops = ", ".join(
                f"c{e['cycle']} r{e['router']} p{e['in_port']}->"
                f"{e['out_port']} {e['cls']} {e['kind']}"
                for e in path
                if e["ev"] == "hop"
            )
            lines.append(f"  recorded flight path of pid={pid}: {hops or 'no hops'}")
        trigger = self._last_trigger.get(rid)
        if trigger is not None:
            lines.append(f"  last trigger decision at router {rid}: {trigger}")
        return lines

    def to_jsonl(self) -> str:
        """Serialize manifest + events + perf, one JSON object per line."""
        # One encoder for the whole dump: ``json.dumps(..., sort_keys=True)``
        # builds a fresh ``JSONEncoder`` per call, i.e. per event.
        encode = json.JSONEncoder(sort_keys=True).encode
        lines = []
        if self.manifest is not None:
            lines.append(encode(self.manifest))
        lines.extend(map(encode, self.events))
        if self.perf:
            lines.append(encode(self.perf))
        return "\n".join(lines) + "\n"

    def dump(self, path) -> None:
        Path(path).write_text(self.to_jsonl())


def load_trace(path) -> dict:
    """Load a JSONL trace into ``{"manifest", "events", "perf"}``.

    Tolerates streams without a manifest or perf line (e.g. a hub dumped
    mid-run); unknown trace schema versions are rejected loudly rather
    than misread.
    """
    manifest = None
    perf = None
    events: List[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        ev = record.get("ev")
        if ev == "manifest":
            manifest = record
            schema = record.get("trace_schema")
            if schema is not None and schema > TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"trace schema {schema} is newer than supported "
                    f"({TRACE_SCHEMA_VERSION}); upgrade repro"
                )
        elif ev == "perf":
            perf = record
        else:
            events.append(record)
    return {"manifest": manifest, "events": events, "perf": perf}
