"""2-D flattened butterfly topology (Kim et al., ISCA 2007; k-ary 2-flat).

Routers sit on a ``rows x cols`` grid; router ``(x, y)`` (column ``x``, row
``y``) has id ``y * cols + x``.  Each router is joined all-to-all with the
other routers of its *row* through first-dimension links and all-to-all with
the other routers of its *column* through second-dimension links, and
attaches ``p`` compute nodes.

Port layout (identical on every router)::

    [0, p)                      injection / ejection ports
    [p, p + cols - 1)           row ports, LOCAL kind (one per other column)
    [p + cols - 1, radix)       column ports, GLOBAL kind (one per other row)

Mapping onto the Dragonfly vocabulary: a row is the analogue of a group (a
clique of LOCAL links), and the column links play the role of the global
links — which is why rows are the topology's *regions* and the column ports
carry the GLOBAL port kind.  Unlike the Dragonfly, each pair of rows is
joined by ``cols`` parallel links (one per column) and a column link lands
directly on the destination router, so minimal paths have at most two hops.

Minimal routing is dimension-ordered, row first: correct the column with a
row (LOCAL) hop, then the row with a column (GLOBAL) hop.  This mirrors the
Dragonfly's local-then-global minimal hierarchy and keeps every minimal and
Valiant path inside the strictly increasing buffer-class schedule of
:mod:`repro.routing.deadlock` (hop shapes ``l``, ``g``, ``l-g`` and their
two-leg Valiant concatenations).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config.parameters import FlattenedButterflyConfig
from repro.topology.base import PathModel, PortKind, Topology

__all__ = ["FlattenedButterflyTopology"]

#: Minimal hop shapes: one row hop, one column hop, or row-then-column.
_MINIMAL_HOP_KINDS = (
    ("local",),
    ("global",),
    ("local", "global"),
)

#: Hop shapes of the in-transit adaptive (MM+L) paths.  A global misroute
#: takes a column link to an intermediate row — directly, or behind a local
#: proxy row hop — and then continues minimally (row hop to the destination
#: column, column hop to the destination row); a local detour adds one row
#: hop in the source row (intra-row traffic) or the intermediate row.  All
#: shapes stay inside the strictly increasing buffer-class order under the
#: nonminimal VC budget, which is what makes the Dragonfly's MM+L policy
#: sound on the butterfly (checked at mechanism construction).
_ADAPTIVE_HOP_KINDS = (
    ("local", "local"),
    ("global", "global"),
    ("global", "local", "global"),
    ("global", "local", "local", "global"),
    ("local", "global", "global"),
    ("local", "global", "local", "global"),
    ("local", "global", "local", "local", "global"),
)


class FlattenedButterflyTopology(Topology):
    """2-D flattened butterfly with dimension-ordered (row-first) routing."""

    def __init__(self, config: FlattenedButterflyConfig):
        # Regions of a flattened butterfly are its rows.
        super().__init__(
            config.num_routers,
            config.p,
            config.router_radix,
            config.rows,
            PathModel.from_minimal_paths(
                "flattened_butterfly",
                _MINIMAL_HOP_KINDS,
                supports_in_transit_adaptive=True,
                adaptive_hop_kinds=_ADAPTIVE_HOP_KINDS,
            ),
        )
        self.config = config
        self._rows = config.rows
        self._cols = config.cols
        self._first_col_port = self._p + self._cols - 1
        self.port_kinds: Tuple[PortKind, ...] = tuple(
            PortKind.INJECTION
            if port < self._p
            else (PortKind.LOCAL if port < self._first_col_port else PortKind.GLOBAL)
            for port in range(self._radix)
        )

    # -------------------------------------------------------------- addressing
    def router_coords(self, router: int) -> Tuple[int, int]:
        """Grid coordinates ``(column, row)`` of ``router``."""
        y, x = divmod(router, self._cols)
        return x, y

    def router_id(self, column: int, row: int) -> int:
        if not (0 <= column < self._cols):
            raise ValueError(f"column {column} out of range [0, {self._cols})")
        if not (0 <= row < self._rows):
            raise ValueError(f"row {row} out of range [0, {self._rows})")
        return row * self._cols + column

    # ------------------------------------------------------------------- ports
    @property
    def row_ports(self) -> range:
        return range(self._p, self._first_col_port)

    @property
    def column_ports(self) -> range:
        return range(self._first_col_port, self._radix)

    # Dragonfly-vocabulary aliases used by topology-generic helpers.
    local_ports = row_ports
    global_ports = column_ports

    def row_port_to(self, column: int, peer_column: int) -> int:
        """Row port of a router in ``column`` leading to ``peer_column``."""
        if column == peer_column:
            raise ValueError("a router has no row port to itself")
        idx = peer_column if peer_column < column else peer_column - 1
        return self._p + idx

    def column_port_to(self, row: int, peer_row: int) -> int:
        """Column port of a router in ``row`` leading to ``peer_row``."""
        if row == peer_row:
            raise ValueError("a router has no column port to itself")
        idx = peer_row if peer_row < row else peer_row - 1
        return self._first_col_port + idx

    def _row_port_peer(self, column: int, port: int) -> int:
        idx = port - self._p
        return idx if idx < column else idx + 1

    def _column_port_peer(self, row: int, port: int) -> int:
        idx = port - self._first_col_port
        return idx if idx < row else idx + 1

    # --------------------------------------------------------------- neighbors
    def neighbor(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        kind = self.port_kinds[port]
        if kind is PortKind.INJECTION:
            return None
        x, y = self.router_coords(router)
        if kind is PortKind.LOCAL:
            peer_x = self._row_port_peer(x, port)
            return self.router_id(peer_x, y), self.row_port_to(peer_x, x)
        peer_y = self._column_port_peer(y, port)
        return self.router_id(x, peer_y), self.column_port_to(peer_y, y)

    # ----------------------------------------------------------------- routing
    def _route_port(self, router: int, dst_router: int) -> int:
        """Dimension-ordered (row-first) minimal output port towards ``dst_router``.

        At most two hops: a row hop to the destination's column, then a
        column hop to the destination's row.  When only one coordinate
        differs the single correcting hop is taken directly.
        """
        x, y = self.router_coords(router)
        dst_x, dst_y = self.router_coords(dst_router)
        if x != dst_x:
            return self.row_port_to(x, dst_x)
        return self.column_port_to(y, dst_y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlattenedButterflyTopology(p={self._p}, rows={self._rows}, "
            f"cols={self._cols}, nodes={self.num_nodes})"
        )
