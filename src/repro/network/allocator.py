"""Switch allocation: round-robin arbiters and a separable batch allocator.

The paper's router model (Table I / Section IV-B) uses a *separable batch
allocator* with a 2x internal speedup.  A separable allocator performs
input-first arbitration (each input port proposes at most one of its VC
requests) followed by output arbitration (each output port accepts at most
one proposal); the speedup is modelled by running several allocation rounds
per cycle.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence

__all__ = ["RoundRobinArbiter", "AllocationRequest", "SeparableAllocator"]


class RoundRobinArbiter:
    """A round-robin arbiter over a fixed number of clients."""

    __slots__ = ("num_clients", "_pointer")

    def __init__(self, num_clients: int):
        if num_clients < 1:
            raise ValueError("arbiter needs at least one client")
        self.num_clients = num_clients
        self._pointer = 0

    @property
    def pointer(self) -> int:
        return self._pointer

    def arbitrate(self, requests: Sequence[int]) -> int:
        """Grant one of ``requests`` (client indices); returns -1 if empty.

        The winner is the first requesting client at or after the current
        pointer; the pointer then advances past the winner, giving the
        classic strong-fairness rotation.  Equivalently, the winner minimizes
        the cyclic distance from the pointer, which is what the loop below
        computes in O(len(requests)) instead of scanning all clients.
        """
        if not requests:
            return -1
        pointer = self._pointer
        n = self.num_clients
        winner = -1
        winner_distance = n
        for client in requests:
            if client < 0 or client >= n:
                continue
            distance = client - pointer
            if distance < 0:
                distance += n
            if distance < winner_distance:
                winner_distance = distance
                winner = client
        if winner < 0:
            return -1
        self._pointer = (winner + 1) % n
        return winner


class AllocationRequest(NamedTuple):
    """A request from an input VC head for an output port.

    A ``NamedTuple`` rather than a dataclass: requests are created in the
    per-VC-per-round allocation hot loop and tuple construction is
    measurably cheaper.
    """

    input_port: int
    input_vc: int
    output_port: int
    size_phits: int
    payload: object = None  # opaque handle carried back to the router


class SeparableAllocator:
    """Input-first separable allocator.

    One arbiter per input port chooses among its VC requests; one arbiter per
    output port chooses among the surviving proposals.  ``allocate`` performs
    a single round; the router invokes it ``speedup`` times per cycle.
    """

    __slots__ = ("num_ports", "max_vcs", "_input_arbiters", "_output_arbiters")

    def __init__(self, num_ports: int, max_vcs: int):
        self.num_ports = num_ports
        self.max_vcs = max_vcs
        self._input_arbiters = [RoundRobinArbiter(max_vcs) for _ in range(num_ports)]
        self._output_arbiters = [RoundRobinArbiter(num_ports) for _ in range(num_ports)]

    def allocate(self, requests: Sequence[AllocationRequest]) -> List[AllocationRequest]:
        """Return the subset of ``requests`` granted in this round.

        Guarantees: at most one grant per input port and at most one grant
        per output port.
        """
        # --- input stage: each input port proposes one VC ---------------------
        by_input: Dict[int, Dict[int, AllocationRequest]] = {}
        for req in requests:
            vc_requests = by_input.get(req.input_port)
            if vc_requests is None:
                by_input[req.input_port] = vc_requests = {}
            vc_requests[req.input_vc] = req

        proposals: Dict[int, List[AllocationRequest]] = {}
        for in_port, vc_requests in by_input.items():
            # The arbiter picks the minimal cyclic distance from its pointer,
            # so the request order does not matter and the dict views can be
            # passed without sorting.
            winner_vc = self._input_arbiters[in_port].arbitrate(list(vc_requests))
            if winner_vc < 0:
                continue
            req = vc_requests[winner_vc]
            proposals.setdefault(req.output_port, []).append(req)

        # --- output stage: each output port accepts one proposal --------------
        grants: List[AllocationRequest] = []
        for out_port, port_proposals in proposals.items():
            by_in = {req.input_port: req for req in port_proposals}
            winner_in = self._output_arbiters[out_port].arbitrate(list(by_in))
            if winner_in < 0:
                continue
            grants.append(by_in[winner_in])
        return grants
