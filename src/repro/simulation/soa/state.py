"""Struct-of-arrays router state for the SoA simulation backend.

:class:`SoAState` holds every hot per-(router, port, vc) quantity of the
network in flat Python lists indexed arithmetically:

* ``g = rid * P + port`` addresses per-port state (output buffers, links,
  credit aggregates, allocator pointers);
* ``q = g * V + vc`` addresses per-VC state (input FIFOs, free space,
  head-seen flags, downstream credits), with ``V`` the network-wide maximum
  number of VCs on any port.

The layout is *copied from an already-built object network*
(:class:`~repro.network.network.Network`): every capacity, latency,
degradation factor, credit bias and upstream/downstream link resolved by the
object model's construction path is read back verbatim, so the SoA backend
shares the object model's build logic by construction instead of duplicating
it.  After the copy the object routers are never stepped again — the engine
(:mod:`repro.simulation.soa.engine`) mutates only this state.

Everything scheduled for a later cycle — credit returns, link arrivals,
output-port releases — lives in three *calendars*, ``cycle -> [events]``
dicts keyed by absolute due cycle, so a step pops exactly the events due now
instead of scanning every port that has something pending.

The output side of a hop holds no packets: with a constant pipeline latency,
a FIFO output buffer and a work-conserving link of fixed speed, the cycles a
granted packet starts on the wire, leaves it and arrives downstream follow
from the grant cycle and ``link_booked``.  The grant books them: the arrival
goes into ``arr_cal`` at once, and one *release* event, due when the packet
starts on the wire, gives the output-buffer space back (and, on an ejection
port, delivers the packet).

Scalar-hot state intentionally lives in plain Python lists, not numpy
arrays: the inner loops index single elements, where list indexing is
several times cheaper than numpy scalar indexing.

Routing algorithms never see these arrays directly.  They receive a
:class:`RouterView` — a façade exposing exactly the router surface the
routing layer reads (``router_id``, ``output_occupancy``, per-output-port
``buffer.committed_phits`` / ``credit_occupied`` / ``total_occupancy``) —
so every hook and ``select_output`` call observes live SoA state.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import DefaultDict, List, Optional

from repro.network.network import Network

__all__ = ["SoAState", "RouterView"]


class _OutputBufferView:
    """Read-only ``OutputBuffer`` façade over the flat arrays (routing reads)."""

    __slots__ = ("_st", "_g")

    def __init__(self, st: "SoAState", g: int):
        self._st = st
        self._g = g

    @property
    def committed_phits(self) -> int:
        return self._st.out_committed[self._g]

    @property
    def free_phits(self) -> int:
        return self._st.out_free[self._g]


class _OutputPortView:
    """Read-only ``OutputPort`` façade over the flat arrays (routing reads)."""

    __slots__ = ("_st", "_g", "kind", "buffer")

    def __init__(self, st: "SoAState", g: int, kind):
        self._st = st
        self._g = g
        self.kind = kind
        self.buffer = _OutputBufferView(st, g)

    @property
    def credit_occupied(self) -> int:
        return self._st.credit_occ[self._g]

    @property
    def link_busy_until(self) -> int:
        return self._st.link_busy[self._g]

    @property
    def max_credits(self) -> List[int]:
        st = self._st
        base = self._g * st.V
        return st.max_credits[base : base + st.down_nvcs[self._g]]

    def total_occupancy(self) -> int:
        st = self._st
        return st.out_committed[self._g] + st.credit_occ[self._g]


class RouterView:
    """The router surface exposed to routing algorithms by the SoA backend.

    Covers every attribute the routing layer reads from a ``Router`` (grepped
    across ``repro.routing``): ``router_id``, ``output_occupancy(port)``,
    ``output_ports[p].{kind, buffer.committed_phits, credit_occupied,
    total_occupancy}``, plus ``group``/``position`` for diagnostics.
    """

    __slots__ = ("_st", "router_id", "_base", "output_ports", "topology")

    def __init__(self, st: "SoAState", rid: int):
        self._st = st
        self.router_id = rid
        self._base = rid * st.P
        self.topology = st.topology
        self.output_ports = [
            _OutputPortView(st, self._base + port, st.port_kinds[port])
            for port in range(st.P)
        ]

    def output_occupancy(self, port: int) -> int:
        st = self._st
        g = self._base + port
        return st.out_committed[g] + st.credit_occ[g]

    @property
    def group(self) -> int:
        return self.topology.router_region(self.router_id)

    @property
    def position(self) -> int:
        return self.topology.router_position(self.router_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RouterView(id={self.router_id})"


class SoAState:
    """Flat struct-of-arrays copy of a built object network (see module doc)."""

    __slots__ = (
        "topology",
        "R",
        "P",
        "V",
        "port_kinds",
        "kind_is_injection",
        "kind_is_global",
        # per-q (R * P * V)
        "in_q",
        "in_free",
        "head_seen",
        "credits",
        "max_credits",
        # per-g (R * P)
        "in_nvcs",
        "up_g",
        "up_rid",
        "up_lat",
        "out_committed",
        "out_free",
        "link_busy",
        "link_booked",
        "link_lat",
        "ser_fac",
        "down_g",
        "down_nvcs",
        "credit_occ",
        "cap_sum",
        "in_ptr",
        "out_ptr",
        # per-rid
        "occ",
        "new_heads",
        "alloc_nvc",
        "alloc_clean",
        "active",
        "active_flag",
        "unsorted",
        "views",
        "node_rid",
        # calendars: absolute due cycle -> events
        "cred_cal",
        "arr_cal",
        "svc_cal",
    )

    def __init__(self, network: Network):
        from repro.topology.base import PortKind

        topo = network.topology
        self.topology = topo
        R = self.R = topo.num_routers
        P = self.P = topo.router_radix
        self.port_kinds = tuple(topo.port_kinds)
        self.kind_is_injection = tuple(
            k is PortKind.INJECTION for k in self.port_kinds
        )
        self.kind_is_global = tuple(k is PortKind.GLOBAL for k in self.port_kinds)

        # Network-wide maximum VCs per port (fault runs add the escape VC on
        # router-to-router links, so read the built ports, not the params).
        V = self.V = max(
            len(ip.vcs) for router in network.routers for ip in router.input_ports
        )
        nG = R * P
        nQ = nG * V

        # -- per-q -----------------------------------------------------------
        self.in_q: List[Optional[deque]] = [None] * nQ
        self.in_free = [0] * nQ
        self.head_seen = [False] * nQ
        self.credits = [0] * nQ
        self.max_credits = [0] * nQ

        # -- per-g -----------------------------------------------------------
        self.in_nvcs = [0] * nG
        self.up_g = [-1] * nG
        self.up_rid = [-1] * nG
        self.up_lat = [1] * nG
        self.out_committed = [0] * nG
        self.out_free = [0] * nG
        # Busy-until of the packet on the wire (the object model's
        # ``link_busy_until``), and of every grant booked so far.
        self.link_busy = [0] * nG
        self.link_booked = [0] * nG
        self.link_lat = [1] * nG
        self.ser_fac = [1] * nG
        self.down_g = [-1] * nG
        self.down_nvcs = [1] * nG
        self.credit_occ = [0] * nG
        self.cap_sum = [0] * nG
        self.in_ptr = [0] * nG
        self.out_ptr = [0] * nG

        # -- per-rid ---------------------------------------------------------
        self.occ: List[list] = [[] for _ in range(R)]
        self.new_heads: List[list] = [[] for _ in range(R)]
        self.alloc_nvc = [1] * R
        # "Clean" routers proved unable to act (no grant, no RNG draw) at
        # their last allocation; the engine skips their allocate phase until
        # an event that could change the outcome clears the flag.
        self.alloc_clean = [False] * R
        # Routers with an occupied buffer head, the only ones allocation
        # visits; kept in router-id order, re-sorted lazily.
        self.active: List[int] = []
        self.active_flag = [False] * R
        self.unsorted = False

        # -- copy the built configuration ------------------------------------
        for router in network.routers:
            rid = router.router_id
            base = rid * P
            self.alloc_nvc[rid] = max(len(ip.vcs) for ip in router.input_ports)
            for port, ip in enumerate(router.input_ports):
                g = base + port
                self.in_nvcs[g] = len(ip.vcs)
                if ip.upstream is not None:
                    up_rid, up_port = ip.upstream
                    self.up_rid[g] = up_rid
                    self.up_g[g] = up_rid * P + up_port
                    self.up_lat[g] = ip.upstream_latency
                for vc, ivc in enumerate(ip.vcs):
                    q = g * V + vc
                    self.in_q[q] = deque()
                    self.in_free[q] = ivc.buffer.free_phits
            for port, op in enumerate(router.output_ports):
                g = base + port
                self.out_free[g] = op.buffer.free_phits
                self.link_lat[g] = op.link_latency
                self.ser_fac[g] = op.serialize_factor
                # Degraded links carry a static credit-occupied bias.
                self.credit_occ[g] = op.credit_occupied
                self.down_nvcs[g] = len(op.credits)
                self.cap_sum[g] = sum(op.max_credits)
                if op.neighbor is not None:
                    down_rid, down_port = op.neighbor
                    self.down_g[g] = down_rid * P + down_port
                for vc in range(len(op.credits)):
                    q = g * V + vc
                    self.credits[q] = op.credits[vc]
                    self.max_credits[q] = op.max_credits[vc]

        # -- calendars -------------------------------------------------------
        # Plain dicts, so there is no wheel size to tune; a bucket is popped
        # whole on its due cycle.  Event shapes: credit returns
        # ``(rid, g, q, phits)``, link arrivals ``(g, vc, packet)``,
        # output-port releases ``(g, phits, link-free cycle, packet)`` with
        # the packet only on an ejection port (``None`` on a link: it already
        # sits in ``arr_cal``).  An empty ``svc_cal`` bucket is a horizon
        # marker (see ``SoAEngine._commit``).
        self.cred_cal: DefaultDict[int, list] = defaultdict(list)
        self.arr_cal: DefaultDict[int, list] = defaultdict(list)
        self.svc_cal: DefaultDict[int, list] = defaultdict(list)

        self.views = [RouterView(self, rid) for rid in range(R)]
        # Node -> router id, so the injection pass needs no object chain.
        self.node_rid = [node.router.router_id for node in network.nodes]

    # ------------------------------------------------------------- inspection
    def total_buffered_packets(self) -> int:
        """Packets inside the network (input buffers, output side, links).

        Mirrors ``Network.total_buffered_packets`` over the flat state: a
        forwarded packet sits in ``arr_cal`` from its grant until it arrives,
        an ejecting one rides its release event until it is delivered.
        """
        n = 0
        for dq in self.in_q:
            if dq:
                n += len(dq)
        for bucket in self.arr_cal.values():
            n += len(bucket)
        for bucket in self.svc_cal.values():
            n += sum(event[3] is not None for event in bucket)
        return n
