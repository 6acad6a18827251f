"""Backend-specific network-state readers for occupancy snapshots.

The two engine backends keep the in-flight state in different places —
the object engine in per-router ``VCBuffer`` / ``OutputBuffer`` objects,
the SoA engine in flat arrays — so the hub delegates state reads to a
small reader built by ``engine._make_obs_reader()``.  Both readers report
the same logical quantities in the same ``(router, port, vc)`` order, so
a snapshot taken at the same cycle is identical across backends (asserted
by ``tests/obs/``).

Readers are pure observers: they only iterate, never mutate, and are
invoked outside the per-hop hot paths (snapshots are periodic).
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["ObjectStateReader", "SoAStateReader"]

#: (router, port, vc, buffered packets, buffered phits) for non-empty VCs.
OccupancyRow = Tuple[int, int, int, int, int]
#: (router, port, committed output phits) for non-empty output buffers.
OutputRow = Tuple[int, int, int]


class ObjectStateReader:
    """Reads occupancy from the object network's router buffers."""

    __slots__ = ("_network",)

    def __init__(self, network) -> None:
        self._network = network

    def input_occupancy(self) -> List[OccupancyRow]:
        rows: List[OccupancyRow] = []
        for router in self._network.routers:
            rid = router.router_id
            for port, ip in enumerate(router.input_ports):
                for vc, ivc in enumerate(ip.vcs):
                    buffer = ivc.buffer
                    packets = buffer.num_packets
                    if packets:
                        rows.append((rid, port, vc, packets, buffer.occupied_phits))
        return rows

    def output_committed(self) -> List[OutputRow]:
        rows: List[OutputRow] = []
        for router in self._network.routers:
            rid = router.router_id
            for port, op in enumerate(router.output_ports):
                committed = op.buffer.committed_phits
                if committed:
                    rows.append((rid, port, committed))
        return rows


class SoAStateReader:
    """Reads the same occupancy quantities from the flat SoA arrays."""

    __slots__ = ("_st",)

    def __init__(self, st) -> None:
        self._st = st

    def input_occupancy(self) -> List[OccupancyRow]:
        st = self._st
        rows: List[OccupancyRow] = []
        P, V = st.P, st.V
        in_q = st.in_q
        in_nvcs = st.in_nvcs
        for rid in range(st.R):
            for port in range(P):
                g = rid * P + port
                # Only the VCs the port has; one nothing was pushed into yet
                # holds ``None``, one that drained an empty list.
                for vc in range(in_nvcs[g]):
                    dq = in_q[g * V + vc]
                    if dq:
                        phits = sum(packet.size_phits for packet in dq)
                        rows.append((rid, port, vc, len(dq), phits))
        return rows

    def output_committed(self) -> List[OutputRow]:
        st = self._st
        rows: List[OutputRow] = []
        P = st.P
        out_committed = st.out_committed
        for rid in range(st.R):
            base = rid * P
            for port in range(P):
                committed = out_committed[base + port]
                if committed:
                    rows.append((rid, port, committed))
        return rows
