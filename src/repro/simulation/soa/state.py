"""Struct-of-arrays router state for the SoA simulation backend.

:class:`SoAState` holds every hot per-(router, port, vc) quantity of the
network in flat columns indexed arithmetically:

* ``g = rid * P + port`` addresses per-port state (output buffers, links,
  credit aggregates, allocator pointers);
* ``q = g * V + vc`` addresses per-VC state (input FIFOs, free space,
  head-seen flags, downstream credits), with ``V`` the network-wide maximum
  number of VCs on any port.

The arrays are filled from the rows of
:func:`repro.network.specs.port_specs` — every capacity, VC count, latency,
degradation factor, credit bias and link endpoint of every port — which are
the same rows the object model's ``Router._build_ports`` instantiates its
port objects from, so the SoA backend shares the object model's build logic
by construction instead of duplicating it, without ever building a
``Router``: the object graph does not exist on this backend unless something
asks the network for its ``routers``.

Everything scheduled for a later cycle — credit returns, link arrivals,
output-port releases — is not state of this class: it lives in the three
*calendars* of the compiled core (``_core.c``), C event structs keyed by
absolute due cycle, so a step pops exactly the events due now instead of
scanning every port that has something pending.  ``Core.calendars()`` shows
them as ``{due: [event tuples]}``, ``Core.schedule`` plants one.

The output side of a hop holds no packets: with a constant pipeline latency,
a FIFO output buffer and a work-conserving link of fixed speed, the cycles a
granted packet starts on the wire, leaves it and arrives downstream follow
from the grant cycle and ``link_booked``.  The grant books them: the arrival
goes into the arrival calendar at once, and one *release* event, due when the
packet starts on the wire, gives the output-buffer space back (and, on an
ejection port, delivers the packet).

The integer columns are ``array('q')`` columns, allocated at their size in
one block: the compiled core reads and writes them as C ``long long`` through
a buffer it holds for its lifetime (so they cannot be resized), with no
integer object per element and nothing inside for the cyclic collector to
traverse.  Python readers index them like lists.  The flags are lists of
bools, and the per-VC queues and the per-router key lists hold objects.

Construction fills numbers only; containers follow traffic.  ``in_q[q]`` is
``None`` until the first packet is pushed into that VC and a plain ``list``
from then on (a VC holds ``vc_capacity_phits // packet_size_phits`` packets at
most, so ``pop(0)`` moves a handful of pointers); whether a VC *exists* is
``vc < in_nvcs[g]``.  The per-port views of a :class:`RouterView` are built
when something first reads ``output_ports``.

Routing algorithms never see these arrays directly.  They receive a
:class:`RouterView` — a façade exposing exactly the router surface the
routing layer reads (``router_id``, ``output_occupancy``, per-output-port
``buffer.committed_phits`` / ``credit_occupied`` / ``total_occupancy``) —
so every hook and ``select_output`` call observes live SoA state.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from repro.network.specs import port_specs
from repro.topology.base import PortKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.network import Network

__all__ = ["SoAState", "RouterView"]


def _column(n: int, fill: int) -> "array[int]":
    """An integer column of ``n`` elements, all ``fill``."""
    return array("q", (fill,)) * n


class _PortColumns(NamedTuple):
    """The arrays the port views read: what a :class:`RouterView` keeps so it
    can build its ports later without holding the :class:`SoAState`."""

    out_committed: "array[int]"
    out_free: "array[int]"
    credit_occ: "array[int]"
    link_busy: "array[int]"
    max_credits: "array[int]"
    down_nvcs: "array[int]"
    V: int
    port_kinds: Tuple[PortKind, ...]


class _OutputBufferView:
    """Read-only ``OutputBuffer`` façade over the flat arrays (routing reads)."""

    __slots__ = ("_out_committed", "_out_free", "_g")

    def __init__(self, columns: _PortColumns, g: int):
        self._out_committed = columns.out_committed
        self._out_free = columns.out_free
        self._g = g

    @property
    def committed_phits(self) -> int:
        return self._out_committed[self._g]

    @property
    def free_phits(self) -> int:
        return self._out_free[self._g]


class _OutputPortView:
    """Read-only ``OutputPort`` façade over the flat arrays (routing reads)."""

    __slots__ = (
        "_out_committed",
        "_credit_occ",
        "_link_busy",
        "_max_credits",
        "_down_nvcs",
        "_V",
        "_g",
        "kind",
        "buffer",
    )

    def __init__(self, columns: _PortColumns, g: int, kind):
        self._out_committed = columns.out_committed
        self._credit_occ = columns.credit_occ
        self._link_busy = columns.link_busy
        self._max_credits = columns.max_credits
        self._down_nvcs = columns.down_nvcs
        self._V = columns.V
        self._g = g
        self.kind = kind
        self.buffer = _OutputBufferView(columns, g)

    @property
    def credit_occupied(self) -> int:
        return self._credit_occ[self._g]

    @property
    def link_busy_until(self) -> int:
        return self._link_busy[self._g]

    @property
    def max_credits(self) -> List[int]:
        base = self._g * self._V
        return self._max_credits[base : base + self._down_nvcs[self._g]].tolist()

    def total_occupancy(self) -> int:
        return self._out_committed[self._g] + self._credit_occ[self._g]


class RouterView:
    """The router surface exposed to routing algorithms by the SoA backend.

    Covers every attribute the routing layer reads from a ``Router`` (grepped
    across ``repro.routing``): ``router_id``, ``output_occupancy(port)``,
    ``output_ports[p].{kind, buffer.committed_phits, credit_occupied,
    total_occupancy}``, plus ``group``/``position`` for diagnostics.

    ``output_ports`` is built by its first reader — a user trigger on a
    ``LIVE`` row, a test, a tool; the stock trigger reads
    ``output_occupancy``, which reads the arrays directly, as do the
    transcribed triggers — so most routers of most runs never have one.

    A view holds the arrays it reads, never the :class:`SoAState` that holds
    the views: no reference cycle, and one attribute hop less per read.
    """

    __slots__ = (
        "_out_committed",
        "_credit_occ",
        "_columns",
        "_ports",
        "router_id",
        "_base",
        "topology",
    )

    def __init__(self, columns: _PortColumns, rid: int, topology):
        self._out_committed = columns.out_committed
        self._credit_occ = columns.credit_occ
        self._columns = columns
        self._ports: Optional[List[_OutputPortView]] = None
        self.router_id = rid
        self._base = rid * len(columns.port_kinds)
        self.topology = topology

    # A property, not ``__getattr__`` on an empty slot: a class that defines
    # ``__getattr__`` pays for it on every attribute read, and the hooks read
    # ``router_id`` several times per hop.
    @property
    def output_ports(self) -> List[_OutputPortView]:
        ports = self._ports
        if ports is None:
            columns = self._columns
            base = self._base
            ports = self._ports = [
                _OutputPortView(columns, base + port, kind)
                for port, kind in enumerate(columns.port_kinds)
            ]
        return ports

    def output_occupancy(self, port: int) -> int:
        g = self._base + port
        return self._out_committed[g] + self._credit_occ[g]

    @property
    def group(self) -> int:
        return self.topology.router_region(self.router_id)

    @property
    def position(self) -> int:
        return self.topology.router_position(self.router_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RouterView(id={self.router_id})"


class SoAState:
    """Flat struct-of-arrays router state of one network (see module doc)."""

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
    )

    def __init__(self, network: "Network"):
        topo = network.topology
        self.topology = topo
        R = self.R = topo.num_routers
        P = self.P = topo.router_radix
        self.port_kinds = tuple(topo.port_kinds)
        self.kind_is_injection = tuple(
            k is PortKind.INJECTION for k in self.port_kinds
        )
        self.kind_is_global = tuple(k is PortKind.GLOBAL for k in self.port_kinds)

        nG = R * P

        # -- per-g -----------------------------------------------------------
        self.in_nvcs = _column(nG, 0)
        self.up_g = _column(nG, -1)
        self.up_rid = _column(nG, -1)
        self.out_committed = _column(nG, 0)
        self.out_free = _column(nG, 0)
        # Busy-until of the packet on the wire (the object model's
        # ``link_busy_until``), and of every grant booked so far.
        self.link_busy = _column(nG, 0)
        self.link_booked = _column(nG, 0)
        self.link_lat = _column(nG, 1)
        self.ser_fac = _column(nG, 1)
        self.down_g = _column(nG, -1)
        self.down_nvcs = _column(nG, 1)
        self.credit_occ = _column(nG, 0)
        self.cap_sum = _column(nG, 0)
        self.in_ptr = _column(nG, 0)
        self.out_ptr = _column(nG, 0)

        # -- per-rid ---------------------------------------------------------
        self.occ: List[list] = [[] for _ in range(R)]
        self.new_heads: List[list] = [[] for _ in range(R)]
        self.alloc_nvc = _column(R, 1)
        # "Clean" routers proved unable to act (no grant, no RNG draw) at
        # their last allocation; the engine skips their allocate phase until
        # an event that could change the outcome clears the flag.
        self.alloc_clean = [False] * R
        # Routers with an occupied buffer head, the only ones allocation
        # visits; kept in router-id order, re-sorted lazily.
        self.active: List[int] = []
        self.active_flag = [False] * R
        self.unsorted = False

        # -- the built configuration, row by row -----------------------------
        # Per-port rows first: the per-VC arrays are sized by ``V``, the
        # network-wide maximum VCs per port, which is known only once every
        # row was seen (fault runs add the escape VC on router-to-router
        # links, so the rows decide, not the params).
        in_capacity = [0] * nG
        down_capacity = [0] * nG
        rows = port_specs(topo, network.params, network.routing, network.faults)
        for rid, specs in enumerate(rows):
            base = rid * P
            self.alloc_nvc[rid] = max(spec.num_vcs for spec in specs)
            for port, spec in enumerate(specs):
                g = base + port
                self.in_nvcs[g] = spec.num_vcs
                in_capacity[g] = spec.vc_capacity_phits
                self.out_free[g] = spec.output_buffer_phits
                self.link_lat[g] = spec.link_latency
                self.ser_fac[g] = spec.serialize_factor
                # Degraded links carry a static credit-occupied bias.
                self.credit_occ[g] = spec.credit_bias_phits
                self.down_nvcs[g] = spec.downstream_vcs
                down_capacity[g] = spec.downstream_vc_capacity_phits
                self.cap_sum[g] = (
                    spec.downstream_vcs * spec.downstream_vc_capacity_phits
                )
                if spec.neighbor is not None:
                    # Links are symmetric: the far end is both the input port
                    # this output feeds and the output port feeding this input.
                    nbr_rid, nbr_port = spec.neighbor
                    self.up_rid[g] = nbr_rid
                    self.down_g[g] = self.up_g[g] = nbr_rid * P + nbr_port
        # A credit travels back over the link its packet came in on.
        link_lat = self.link_lat
        up_lat = self.up_lat = _column(nG, 1)
        for g, up in enumerate(self.up_g):
            if up >= 0:
                up_lat[g] = link_lat[up]

        # -- per-q -----------------------------------------------------------
        V = self.V = max(self.in_nvcs)
        nQ = nG * V
        # ``None`` until the VC's first push, then a plain list (module doc).
        self.in_q: List[Optional[list]] = [None] * nQ
        self.in_free = _column(nQ, 0)
        self.head_seen = [False] * nQ
        self.credits = _column(nQ, 0)
        self.max_credits = _column(nQ, 0)
        for g in range(nG):
            base = g * V
            capacity = in_capacity[g]
            for q in range(base, base + self.in_nvcs[g]):
                self.in_free[q] = capacity
            capacity = down_capacity[g]
            for q in range(base, base + self.down_nvcs[g]):
                self.credits[q] = self.max_credits[q] = capacity

        columns = _PortColumns(
            self.out_committed, self.out_free, self.credit_occ, self.link_busy,
            self.max_credits, self.down_nvcs, V, self.port_kinds,
        )
        self.views = [RouterView(columns, rid, topo) for rid in range(R)]
        # Node -> router id, so the injection pass needs no object chain.
        self.node_rid = [topo.node_router(nid) for nid in range(topo.num_nodes)]

    # ------------------------------------------------------------- inspection
    def buffered_packets(self) -> int:
        """Packets in the input buffers (the calendars hold the rest of what
        ``total_buffered_packets`` counts: ``SoAEngine`` adds them)."""
        return sum(len(dq) for dq in self.in_q if dq)
