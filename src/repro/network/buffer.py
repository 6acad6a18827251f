"""Buffers: per-VC input buffers and per-port output buffers.

All capacities and occupancies are expressed in phits.  Virtual cut-through
switching is assumed: a packet is admitted into a buffer only if the buffer
has space for the *whole* packet, and it is forwarded as a unit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from repro.network.packet import Packet

__all__ = ["VCBuffer", "OutputBuffer"]


class VCBuffer:
    """A FIFO buffer for one virtual channel of an input port.

    The head packet is mirrored in the ``head_packet`` attribute so the
    allocation hot loop can test for work with a single attribute read
    instead of a method call per VC per round.
    """

    __slots__ = ("capacity_phits", "_queue", "_occupied", "head_packet", "free_phits")

    def __init__(self, capacity_phits: int):
        if capacity_phits < 1:
            raise ValueError("buffer capacity must be positive")
        self.capacity_phits = capacity_phits
        self._queue: Deque[Packet] = deque()
        self._occupied = 0
        #: The packet at the head of the FIFO, or ``None`` when empty.
        self.head_packet: Optional[Packet] = None
        #: Maintained as a plain attribute (not a property) so the admission
        #: checks in the allocation hot loop are single attribute reads.
        self.free_phits = capacity_phits

    # -- state ---------------------------------------------------------------
    @property
    def occupied_phits(self) -> int:
        return self._occupied

    @property
    def num_packets(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return self.head_packet is None

    def can_accept(self, size_phits: int) -> bool:
        """Virtual cut-through admission check: room for the whole packet."""
        return self.free_phits >= size_phits

    # -- operations ----------------------------------------------------------
    def push(self, packet: Packet) -> None:
        if not self.can_accept(packet.size_phits):
            raise OverflowError(
                f"VC buffer overflow: {packet.size_phits} phits requested, "
                f"{self.free_phits} free (capacity {self.capacity_phits})"
            )
        if self.head_packet is None:
            self.head_packet = packet
        self._queue.append(packet)
        self._occupied += packet.size_phits
        self.free_phits -= packet.size_phits

    def head(self) -> Optional[Packet]:
        return self.head_packet

    def pop(self) -> Packet:
        if not self._queue:
            raise IndexError("pop from empty VC buffer")
        packet = self._queue.popleft()
        self._occupied -= packet.size_phits
        self.free_phits += packet.size_phits
        self.head_packet = self._queue[0] if self._queue else None
        return packet

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VCBuffer(occupied={self._occupied}/{self.capacity_phits} phits, "
            f"packets={len(self._queue)})"
        )


class OutputBuffer:
    """Per-output-port buffer between the crossbar and the link.

    Space is *committed* when a packet wins allocation (so that the router
    pipeline cannot overflow it) and *released* when the packet starts
    serializing onto the link.
    """

    __slots__ = ("capacity_phits", "_queue", "committed_phits", "head_packet", "free_phits")

    def __init__(self, capacity_phits: int):
        if capacity_phits < 1:
            raise ValueError("buffer capacity must be positive")
        self.capacity_phits = capacity_phits
        self._queue: Deque[Packet] = deque()
        #: Phits committed to the buffer (queued packets + in-pipeline
        #: grants).  A plain attribute, like ``free_phits`` below, so the
        #: occupancy probes of the adaptive mechanisms are attribute reads.
        self.committed_phits = 0
        #: The packet at the head of the FIFO, or ``None`` when empty.
        self.head_packet: Optional[Packet] = None
        #: Maintained as a plain attribute (not a property) so the admission
        #: checks in the allocation hot loop are single attribute reads.
        self.free_phits = capacity_phits

    @property
    def num_packets(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return self.head_packet is None

    def can_commit(self, size_phits: int) -> bool:
        return self.free_phits >= size_phits

    def commit(self, size_phits: int) -> None:
        """Reserve space for a packet that has won allocation."""
        if not self.can_commit(size_phits):
            raise OverflowError(
                f"output buffer over-commit: {size_phits} requested, {self.free_phits} free"
            )
        self.committed_phits += size_phits
        self.free_phits -= size_phits

    def enqueue(self, packet: Packet) -> None:
        """Place a packet (whose space was already committed) in the FIFO."""
        if self.head_packet is None:
            self.head_packet = packet
        self._queue.append(packet)

    def head(self) -> Optional[Packet]:
        return self.head_packet

    def pop(self) -> Packet:
        """Remove the head packet and release its committed space."""
        if not self._queue:
            raise IndexError("pop from empty output buffer")
        packet = self._queue.popleft()
        self.committed_phits -= packet.size_phits
        self.free_phits += packet.size_phits
        self.head_packet = self._queue[0] if self._queue else None
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutputBuffer(committed={self.committed_phits}/{self.capacity_phits} phits, "
            f"queued={len(self._queue)})"
        )
