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
import os
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.config import _HASH_MASK, _HASH_MULT, ObservationConfig, pid_sampled
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

# A flight event is one flat tuple ``(tag, *fields)`` in the row list: no
# dict per hop, and a tuple of scalars leaves the GC's tracked set at the
# first collection that visits it.  ``tag`` selects the field names below;
# a hop that consulted a trigger has tag ``_FIRST_SCHEMA + i`` and carries,
# after the hop fields, ``escape`` and the observation's *values* — its key
# tuple is ``ObservationHub._schemas[i]``, interned once per hub.
_INJECT, _DELIVER, _DROP, _HOP, _FIRST_SCHEMA = range(5)
#: The ``cls`` slot holds the port-kind letter only; the buffer class is
#: that letter followed by ``out_vc``.
_HOP_FIELDS = (
    "pid",
    "cycle",
    "router",
    "in_port",
    "in_vc",
    "out_port",
    "out_vc",
    "cls",
    "kind",
)
_ROW_FIELDS = (
    ("inject", ("pid", "cycle", "src", "dst", "size", "created")),
    ("deliver", ("pid", "cycle", "latency", "hops")),
    ("drop", ("pid", "cycle", "hops")),
    ("hop", _HOP_FIELDS),
)
_ESCAPE = 1 + len(_HOP_FIELDS)  # row index of ``escape``; the values follow

#: Lines per ``write`` of a dump (bounds the transient to one chunk).
_DUMP_CHUNK_LINES = 1024


def _picker(indices):
    """``itemgetter`` that returns a tuple for any number of indices."""
    if len(indices) == 1:
        (index,) = indices
        return lambda row: (row[index],)
    return itemgetter(*indices)


def _row_format(tag: int) -> Tuple[str, List[int]]:
    """``%``-template and row indices of a fixed-field row, keys pre-sorted.

    Every fixed field is an ``int`` except the hop's ``cls`` (letter plus
    ``out_vc``) and ``kind`` (one of six literals), so no value needs
    escaping and ``template % picked`` is the line ``json.dumps(event,
    sort_keys=True)`` would produce.
    """
    ev, fields = _ROW_FIELDS[tag]
    pieces, indices = [], []
    for key in sorted((*fields, "ev")):
        if key == "ev":
            pieces.append(f'"ev": "{ev}"')
            continue
        indices.append(1 + fields.index(key))
        if key == "cls":
            pieces.append('"cls": "%s%d"')
            indices.append(1 + fields.index("out_vc"))
        elif key == "kind":
            pieces.append('"kind": "%s"')
        else:
            pieces.append(f'"{key}": %d')
    return "{" + ", ".join(pieces) + "}", indices


class ObservationHub:
    """Collects probe events, flight records and run telemetry for one run."""

    __slots__ = (
        "config",
        "manifest",
        "perf",
        "_rows",
        "_schemas",
        "_schema_tags",
        "_threshold",
        "_max_events",
        "_reader",
        "_radix",
        "_port_chars",
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
        self.manifest: Optional[dict] = None
        self.perf: dict = {}
        #: Flight rows (tuples) and the rare snapshot / warp events (dicts),
        #: in emission order.
        self._rows: list = []
        #: Trigger-observation key tuples, and key tuple -> row tag.
        self._schemas: List[Tuple[str, ...]] = []
        self._schema_tags: Dict[Tuple[str, ...], int] = {}
        # The config is frozen: what the per-grant site reads is copied out.
        self._threshold = self.config.sample_threshold()
        self._max_events = self.config.max_events
        self._reader = None
        self._radix = 0
        self._port_chars: List[str] = []
        self._link_phits: List[int] = []
        #: Sampled pids currently in flight (granted, not yet delivered/dropped).
        self._seen_pids: set = set()
        self._next_snapshot = _NEVER
        #: rid -> [consultations, escapes] over sampled grants.
        self._trigger_totals: Dict[int, List[int]] = {}
        #: rid -> the hop row of the most recent trigger consultation.
        self._last_trigger: Dict[int, tuple] = {}
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
        self._link_phits[rid * self._radix + out_port] += packet.size_phits
        pid = packet.pid
        if ((pid * _HASH_MULT) & _HASH_MASK) >= self._threshold:  # not pid_sampled
            return
        rows = self._rows
        max_events = self._max_events
        if pid not in self._seen_pids:
            self._seen_pids.add(pid)
            if len(rows) < max_events:
                rows.append(
                    (
                        _INJECT,
                        pid,
                        packet.injection_cycle,
                        packet.src,
                        packet.dst,
                        packet.size_phits,
                        packet.creation_cycle,
                    )
                )
            else:
                self._events_dropped += 1
        char = self._port_chars[out_port]
        out_vc = decision.vc
        trigger = None
        if decision.set_fault_mode:
            kind = "fault"
        elif char == "E":
            kind = "eject"
        else:
            if decision.set_must_misroute_global:
                kind = "nm_global_proxy"
            elif decision.nonminimal_global:
                kind = "nm_global"
            elif decision.nonminimal_local:
                kind = "nm_local"
            else:
                kind = "minimal"
            trigger = routing.trigger_observation(router, packet)
        if trigger is None:
            row = (_HOP, pid, cycle, rid, port, vc, out_port, out_vc, char, kind)
        else:
            keys = tuple(trigger)
            tag = self._schema_tags.get(keys)
            if tag is None:
                tag = self._intern_schema(keys)
            escape = kind != "minimal"
            row = (
                tag,
                pid,
                cycle,
                rid,
                port,
                vc,
                out_port,
                out_vc,
                char,
                kind,
                escape,
                *trigger.values(),
            )
            totals = self._trigger_totals.setdefault(rid, [0, 0])
            totals[0] += 1
            if escape:
                totals[1] += 1
            self._last_trigger[rid] = row
        if len(rows) < max_events:
            rows.append(row)
        else:
            self._events_dropped += 1

    def record_delivery(self, packet, cycle) -> None:
        """A packet handed to its destination node (engine drain loop)."""
        pid = packet.pid
        if not pid_sampled(pid, self._threshold):
            return
        # A delivered packet is never granted again: forget it.
        self._seen_pids.discard(pid)
        delivered = packet.delivered_cycle
        self._emit(
            (_DELIVER, pid, delivered, delivered - packet.creation_cycle, packet.hops)
        )

    def record_dropped(self, packet, cycle) -> None:
        """A packet dropped as unreachable after a fault (engine drain loop)."""
        pid = packet.pid
        if not pid_sampled(pid, self._threshold):
            return
        self._seen_pids.discard(pid)
        self._emit((_DROP, pid, cycle, packet.hops))

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
    def _intern_schema(self, keys: Tuple[str, ...]) -> int:
        """Row tag for hops whose trigger observation has exactly ``keys``."""
        tag = self._schema_tags[keys] = _FIRST_SCHEMA + len(self._schemas)
        self._schemas.append(keys)
        return tag

    def _emit(self, event) -> None:
        """Append a row, or a snapshot / warp ``dict`` (rare, so they stay dicts)."""
        if len(self._rows) >= self._max_events:
            self._events_dropped += 1
            return
        self._rows.append(event)

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

    def _trigger(self, row: tuple) -> dict:
        """The trigger observation of a hop row, ``escape`` last."""
        trigger = dict(zip(self._schemas[row[0] - _FIRST_SCHEMA], row[_ESCAPE + 1 :]))
        trigger["escape"] = row[_ESCAPE]
        return trigger

    def _event(self, row) -> dict:
        """The event dict of one row (what was stored before rows existed)."""
        if type(row) is dict:
            return row
        tag = row[0]
        ev, fields = _ROW_FIELDS[min(tag, _HOP)]
        event = {"ev": ev}
        event.update(zip(fields, row[1:]))
        if tag >= _HOP:
            event["cls"] = f"{event['cls']}{event['out_vc']}"
            if tag > _HOP:
                event["trigger"] = self._trigger(row)
        return event

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
                "events": len(self._rows),
                "events_dropped": self._events_dropped,
                "snapshots_taken": self._snapshots_taken,
                "snapshots_skipped": self._snapshots_skipped,
            }
        )
        return perf

    def set_manifest(self, manifest: dict) -> None:
        self.manifest = manifest

    # ----------------------------------------------------------- query / dump
    @property
    def events(self) -> List[dict]:
        """Every recorded event as a dict, in emission order (built per call)."""
        return [self._event(row) for row in self._rows]

    def flight_events(self, pid: Optional[int] = None) -> List[dict]:
        """The deterministic flight-recorder subset, optionally one packet."""
        return [
            self._event(row)
            for row in self._rows
            if type(row) is tuple and (pid is None or row[1] == pid)
        ]

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
        row = self._last_trigger.get(rid)
        if row is None:
            return None
        return {"pid": row[1], "cycle": row[2], **self._trigger(row)}

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
        trigger = self.last_trigger(rid)
        if trigger is not None:
            lines.append(f"  last trigger decision at router {rid}: {trigger}")
        return lines

    def _formats(self, encode) -> list:
        """Per row tag: ``(template, fixed-field picker, trigger-value picker)``."""
        formats = []
        for tag in range(_FIRST_SCHEMA):
            template, indices = _row_format(tag)
            formats.append((template, _picker(indices), None))
        hop_template, hop_fields, _ = formats[_HOP]
        for keys in self._schemas:
            # ``escape`` is the hub's; an observation's own key of that name
            # is overwritten, as ``trigger["escape"] = ...`` did.
            slot = {key: _ESCAPE + 1 + i for i, key in enumerate(keys)}
            slot["escape"] = _ESCAPE
            names = sorted(slot)
            body = ", ".join(encode(key).replace("%", "%%") + ": %s" for key in names)
            formats.append(
                (
                    hop_template[:-1] + ', "trigger": {' + body + "}}",
                    hop_fields,
                    _picker([slot[key] for key in names]),
                )
            )
        return formats

    def _lines(self) -> Iterator[str]:
        """Manifest, events and perf as JSON lines, keys sorted.

        Rows go through one pre-sorted ``%``-template per tag; only trigger
        values, whose types the mechanism chooses, are encoded one by one.
        """
        encode = json.JSONEncoder(sort_keys=True).encode
        encoded: Dict[str, str] = {}

        def value(item):
            if type(item) is int:
                return item  # ``%s`` of an int is its JSON
            if item is True:
                return "true"
            if item is False:
                return "false"
            if item is None:
                return "null"
            if type(item) is str:  # not floats: -0.0 == 0.0 would share an entry
                text = encoded.get(item)
                if text is None:
                    text = encoded[item] = encode(item)
                return text
            return encode(item)

        formats = self._formats(encode)
        if self.manifest is not None:
            yield encode(self.manifest)
        for row in self._rows:
            if type(row) is dict:
                yield encode(row)
                continue
            template, fixed, trigger = formats[row[0]]
            if trigger is None:
                yield template % fixed(row)
            else:
                yield template % (fixed(row) + tuple(map(value, trigger(row))))
        if self.perf:
            yield encode(self.perf)

    def _chunks(self) -> Iterator[str]:
        """The JSONL text, ``_DUMP_CHUNK_LINES`` newline-terminated lines at a time."""
        lines = self._lines()
        while True:
            chunk = list(islice(lines, _DUMP_CHUNK_LINES))
            if not chunk:
                return
            chunk.append("")
            yield "\n".join(chunk)

    def to_jsonl(self) -> str:
        """Serialize manifest + events + perf, one JSON object per line."""
        return "".join(self._chunks())

    def dump(self, path) -> None:
        """Write the JSONL trace to ``path``, chunk by chunk and atomically.

        The text goes to a sibling temp file that replaces ``path`` only
        once complete, so a crash mid-dump leaves the old trace (or no
        file) rather than a truncated one ``load_trace`` would accept.
        """
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as handle:
                for chunk in self._chunks():
                    handle.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def load_trace(path) -> dict:
    """Load a JSONL trace into ``{"manifest", "events", "perf"}``.

    Tolerates streams without a manifest or perf line (e.g. a hub dumped
    mid-run); unknown trace schema versions are rejected loudly rather
    than misread.
    """
    manifest = None
    perf = None
    events: List[dict] = []
    with open(path) as handle:
        for line in handle:
            if not line.strip():
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
