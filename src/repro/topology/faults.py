"""Link-fault model: failed links, degraded links, and fault schedules.

The paper evaluates routing only on healthy networks, but its central
mechanism — escaping congested minimal paths through nonminimal candidates —
is exactly what a deployment leans on when links *fail* or *degrade*.  This
module provides the fault layer the rest of the stack consumes:

:class:`FaultModel`
    A frozen, picklable description of the faults to inject: a random link
    failure percentage, explicit failed links, per-link degradations
    (bandwidth / latency multipliers), and an optional deterministic
    mid-run :class:`FaultSchedule` of ``(cycle, link, fail|repair)`` events.

:class:`FaultRuntime`
    The mutable per-simulation state derived from a model: which ports are
    currently dead, connected-component labels for reachability queries, and
    the per-epoch escape spanning tree used by the fault-aware routing
    fallback.  Every piece of randomness comes from a dedicated *fault RNG
    stream* spawned by the simulator **after** the three healthy streams
    (routing / arrival / payload), so a healthy run's draw sequences — and
    therefore the committed goldens — stay bit-identical whether or not this
    module is even imported.

Links are undirected: failing a link removes *both* directions.  A link is
named by either of its directed endpoints, a ``(router, port)`` pair, and is
canonicalized internally to the lexicographically smaller endpoint.
Injection/ejection ports never fail (the node sits next to its router).

Partition semantics: by default, constructing a :class:`FaultRuntime` whose
static failures — or any epoch of its schedule — disconnect the router graph
raises :class:`NetworkPartitionError`; passing ``allow_partition=True``
acknowledges the partition explicitly, and packets whose destination is
unreachable are then *dropped and counted* by the router instead of stalling
the watchdog.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.topology.base import PortKind, Topology

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "LinkId",
    "DegradedLink",
    "FaultEvent",
    "FaultSchedule",
    "FaultModel",
    "FaultRuntime",
    "NetworkPartitionError",
    "NO_FAULT_EVENT",
]

#: One directed endpoint of a link: ``(router_id, output_port)``.
LinkId = Tuple[int, int]

#: Sentinel for "no scheduled fault event" (matches the engine's _NO_EVENT).
NO_FAULT_EVENT = 2**62


class NetworkPartitionError(ValueError):
    """A fault set disconnects the router graph without ``allow_partition``."""


@dataclass(frozen=True)
class DegradedLink:
    """Degradation of one (undirected) link.

    ``bandwidth_factor`` multiplies the serialization time of every packet
    crossing the link (factor 2 = half bandwidth); ``latency_factor``
    multiplies the link's propagation latency.  ``contention_bias`` is the
    high-contention signal fed to the adaptive triggers, in *packets*: it is
    added to the link's contention counter and (scaled by the packet size)
    to its credit-occupancy estimate, so both counter-based (Base/Hybrid)
    and occupancy-based (OLM/UGAL) mechanisms steer away from the degraded
    link exactly as they would from a persistently congested one.  ``None``
    derives a default from the physical factors.
    """

    bandwidth_factor: int = 1
    latency_factor: int = 1
    contention_bias: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bandwidth_factor < 1 or self.latency_factor < 1:
            raise ValueError("degradation factors must be >= 1")
        if self.contention_bias is not None and self.contention_bias < 0:
            raise ValueError("contention_bias must be >= 0")

    @property
    def bias_packets(self) -> int:
        """Contention-signal strength in packets (derived when unset)."""
        if self.contention_bias is not None:
            return self.contention_bias
        return 2 * (self.bandwidth_factor - 1) + (self.latency_factor - 1)


class FaultEvent(NamedTuple):
    """One scheduled fault transition."""

    cycle: int
    link: LinkId
    kind: str  # "fail" | "repair"


@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic mid-run sequence of fail/repair events.

    Events are applied by the engine at the top of the scheduled cycle,
    before traffic generation — a scheduled fault is a *work event*, so the
    time-warp horizon never jumps past one.  Events are kept sorted by
    ``(cycle, link, kind)`` so replay order is independent of the order the
    caller listed them in.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        normalized = []
        for event in self.events:
            cycle, link, kind = event
            if kind not in ("fail", "repair"):
                raise ValueError(f"unknown fault event kind {kind!r}")
            if cycle < 0:
                raise ValueError("fault event cycles must be >= 0")
            normalized.append(FaultEvent(int(cycle), (int(link[0]), int(link[1])), kind))
        normalized.sort(key=lambda e: (e.cycle, e.link, e.kind))
        object.__setattr__(self, "events", tuple(normalized))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class FaultModel:
    """Picklable description of the faults to inject into one simulation.

    ``link_failure_percent`` fails that percentage of the network's
    (undirected) router-to-router links, sampled from the simulator's
    dedicated fault RNG stream; ``failed_links`` names links explicitly.
    ``degraded_links`` maps links to :class:`DegradedLink` multipliers
    (static for the whole run).  ``schedule`` adds deterministic mid-run
    fail/repair events.  ``allow_partition`` turns partition rejection into
    explicit drop-and-count semantics.
    """

    link_failure_percent: float = 0.0
    failed_links: Tuple[LinkId, ...] = ()
    degraded_links: Tuple[Tuple[LinkId, DegradedLink], ...] = ()
    schedule: Optional[FaultSchedule] = None
    allow_partition: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.link_failure_percent <= 100.0:
            raise ValueError("link_failure_percent must be in [0, 100]")
        object.__setattr__(
            self,
            "failed_links",
            tuple((int(r), int(p)) for r, p in self.failed_links),
        )
        degraded = []
        items = (
            self.degraded_links.items()
            if isinstance(self.degraded_links, dict)
            else self.degraded_links
        )
        for link, deg in items:
            if not isinstance(deg, DegradedLink):
                raise TypeError("degraded_links values must be DegradedLink")
            degraded.append(((int(link[0]), int(link[1])), deg))
        object.__setattr__(self, "degraded_links", tuple(degraded))
        if self.schedule is not None and not isinstance(self.schedule, FaultSchedule):
            object.__setattr__(self, "schedule", FaultSchedule(tuple(self.schedule)))

    @property
    def is_trivial(self) -> bool:
        """Whether this model injects nothing at all."""
        return (
            self.link_failure_percent == 0.0
            and not self.failed_links
            and not self.degraded_links
            and (self.schedule is None or len(self.schedule) == 0)
        )


class _Link(NamedTuple):
    """One undirected link: both directed endpoints, canonical end first."""

    router_a: int
    port_a: int
    router_b: int
    port_b: int


class FaultRuntime:
    """Mutable fault state of one simulation.

    Holds the currently-failed port sets consulted by the router's
    allocation stage, the fault schedule cursor consulted by the engine's
    time-warp horizon, and the reachability labels and escape-tree tables
    consulted by the routing algorithms' fault fallback
    (:meth:`~repro.routing.base.RoutingAlgorithm.fault_decision`).  The
    tables are memoized per *fault epoch* (bumped by every applied
    fail/repair batch), so every packet steered within one epoch follows a
    single consistent tree — which is what makes the escape path loop-free.
    """

    def __init__(self, topology: Topology, model: FaultModel, rng: "np.random.Generator"):
        self.topology = topology
        self.model = model
        self._num_routers = topology.num_routers
        # Undirected link table over the router graph (injection ports have
        # no neighbor and therefore never appear).
        links: List[_Link] = []
        link_index: Dict[LinkId, int] = {}
        for rid in range(topology.num_routers):
            for port in range(topology.router_radix):
                if topology.port_kinds[port] is PortKind.INJECTION:
                    continue
                nbr = topology.neighbor(rid, port)
                if nbr is None:
                    continue
                if (rid, port) in link_index:
                    continue
                nbr_router, nbr_port = nbr
                index = len(links)
                links.append(_Link(rid, port, nbr_router, nbr_port))
                link_index[(rid, port)] = index
                link_index[(nbr_router, nbr_port)] = index
        self._links = links
        self._link_index = link_index

        # --- static failure set ------------------------------------------------
        failed: Set[int] = set()
        for link in model.failed_links:
            failed.add(self._resolve_link(link))
        if model.link_failure_percent > 0.0:
            count = int(round(model.link_failure_percent / 100.0 * len(links)))
            candidates = [i for i in range(len(links)) if i not in failed]
            count = min(count, len(candidates))
            if count > 0:
                # One draw from the dedicated fault stream; deterministic for
                # a fixed (seed, topology, model).
                chosen = rng.choice(len(candidates), size=count, replace=False)
                failed.update(candidates[int(i)] for i in sorted(chosen))

        # --- degradations (static) ---------------------------------------------
        #: Directed ``(router, port) -> DegradedLink`` covering both ends.
        self.degraded: Dict[LinkId, DegradedLink] = {}
        for link, deg in model.degraded_links:
            index = self._resolve_link(link)
            entry = links[index]
            self.degraded[(entry.router_a, entry.port_a)] = deg
            self.degraded[(entry.router_b, entry.port_b)] = deg

        # --- live failure state ------------------------------------------------
        self._failed_links: Set[int] = set()
        #: Per-router set of currently dead output ports (symmetric: both
        #: endpoints of a failed link are marked).  Consulted by the router's
        #: allocation stage for every granted decision, so it is a plain
        #: list of sets indexed by router id.
        self.failed_ports: List[Set[int]] = [set() for _ in range(topology.num_routers)]
        for index in failed:
            self._fail_link(index)

        #: Monotone counter bumped by every applied fail/repair batch; the
        #: reachability and escape-tree caches (and the routing's class-ladder
        #: tables) are valid for one epoch only.
        self.epoch = 0
        self._components: Optional[List[int]] = None
        self._escape_tree: Optional[List[List[Tuple[int, int]]]] = None
        self._escape_cache: Dict[int, List[int]] = {}

        # --- counters ----------------------------------------------------------
        #: Packets dropped because their destination became unreachable.
        self.dropped_packets = 0
        #: Hops granted through the fault fallback (dateline steering, class
        #: ladder or escape tree).
        self.fault_reroute_hops = 0
        #: Distinct packets that entered fault mode at least once.
        self.rerouted_packets = 0

        # --- schedule ----------------------------------------------------------
        events = model.schedule.events if model.schedule is not None else ()
        self._events: Tuple[FaultEvent, ...] = events
        self._event_links: Tuple[int, ...] = tuple(
            self._resolve_link(e.link) for e in events
        )
        self._next_event = 0
        self.pending_event_cycle = events[0].cycle if events else NO_FAULT_EVENT

        # --- partition validation ----------------------------------------------
        if not model.allow_partition:
            self._reject_partition(self._failed_links, "static fault set")
            # Replay the schedule against a scratch copy so a disconnecting
            # epoch is rejected at construction, not a thousand cycles in.
            scratch = set(self._failed_links)
            i = 0
            while i < len(events):
                cycle = events[i].cycle
                while i < len(events) and events[i].cycle == cycle:
                    index = self._event_links[i]
                    if events[i].kind == "fail":
                        scratch.add(index)
                    else:
                        scratch.discard(index)
                    i += 1
                self._reject_partition(scratch, f"fault schedule at cycle {cycle}")

    # ------------------------------------------------------------------ helpers
    def _resolve_link(self, link: LinkId) -> int:
        index = self._link_index.get((int(link[0]), int(link[1])))
        if index is None:
            raise ValueError(
                f"({link[0]}, {link[1]}) does not name a router-to-router link "
                "of this topology (injection/ejection ports cannot fail)"
            )
        return index

    def _fail_link(self, index: int) -> None:
        if index in self._failed_links:
            return
        self._failed_links.add(index)
        link = self._links[index]
        self.failed_ports[link.router_a].add(link.port_a)
        self.failed_ports[link.router_b].add(link.port_b)

    def _repair_link(self, index: int) -> None:
        if index not in self._failed_links:
            return
        self._failed_links.discard(index)
        link = self._links[index]
        self.failed_ports[link.router_a].discard(link.port_a)
        self.failed_ports[link.router_b].discard(link.port_b)

    def _component_labels(self, failed: Set[int]) -> List[int]:
        """Connected-component label per router, over the surviving links."""
        topo = self.topology
        labels = [-1] * self._num_routers
        link_index = self._link_index
        label = 0
        for start in range(self._num_routers):
            if labels[start] != -1:
                continue
            labels[start] = label
            queue = deque((start,))
            while queue:
                rid = queue.popleft()
                for port in range(topo.router_radix):
                    index = link_index.get((rid, port))
                    if index is None or index in failed:
                        continue
                    link = self._links[index]
                    nbr = link.router_b if link.router_a == rid else link.router_a
                    if labels[nbr] == -1:
                        labels[nbr] = label
                        queue.append(nbr)
            label += 1
        return labels

    def _reject_partition(self, failed: Set[int], context: str) -> None:
        labels = self._component_labels(failed)
        components = max(labels) + 1
        if components > 1:
            sizes = [labels.count(c) for c in range(components)]
            raise NetworkPartitionError(
                f"{context} disconnects the network into {components} components "
                f"(sizes {sizes}); pass allow_partition=True to accept "
                "drop-and-count semantics for unreachable destinations"
            )

    # ------------------------------------------------------------------ queries
    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def num_failed_links(self) -> int:
        return len(self._failed_links)

    @property
    def failed_links(self) -> List[LinkId]:
        """Canonical ``(router, port)`` endpoint of every failed link."""
        return sorted(
            (self._links[i].router_a, self._links[i].port_a)
            for i in self._failed_links
        )

    def degradation(self, router: int, port: int) -> Optional[DegradedLink]:
        return self.degraded.get((router, port))

    def reachable(self, router_a: int, router_b: int) -> bool:
        """Whether two routers are in the same surviving component."""
        if router_a == router_b:
            return True
        labels = self._components
        if labels is None:
            labels = self._components = self._component_labels(self._failed_links)
        return labels[router_a] == labels[router_b]

    def escape_port(self, router: int, target_router: int) -> int:
        """Next-hop port of the unique escape-tree path towards a router.

        The escape tree is a per-epoch BFS spanning forest of the surviving
        graph.  Fault-escape traffic is confined to tree links on one
        dedicated escape VC: routing on a tree is a special case of
        up*/down* routing, whose channel dependency graph is acyclic on a
        single virtual channel, so the escape class stays deadlock-free no
        matter how the fault set mangles the topology's own VC schedule.
        """
        table = self._escape_cache.get(target_router)
        if table is None:
            table = self._tree_next_hops(target_router)
            self._escape_cache[target_router] = table
        return table[router]

    def _escape_adjacency(self) -> List[List[Tuple[int, int]]]:
        """Tree links of the escape forest as per-router ``(port, nbr)`` lists.

        One BFS spanning tree per surviving component, rooted at the
        component's lowest router id, links scanned in increasing port
        order — fully deterministic for a given epoch.
        """
        adj = self._escape_tree
        if adj is not None:
            return adj
        topo = self.topology
        link_index = self._link_index
        failed = self._failed_links
        links = self._links
        n = self._num_routers
        adj = [[] for _ in range(n)]
        visited = [False] * n
        for root in range(n):
            if visited[root]:
                continue
            visited[root] = True
            queue = deque((root,))
            while queue:
                rid = queue.popleft()
                for port in range(topo.router_radix):
                    index = link_index.get((rid, port))
                    if index is None or index in failed:
                        continue
                    link = links[index]
                    if link.router_a == rid:
                        nbr, nbr_port = link.router_b, link.port_b
                    else:
                        nbr, nbr_port = link.router_a, link.port_a
                    if not visited[nbr]:
                        visited[nbr] = True
                        adj[rid].append((port, nbr))
                        adj[nbr].append((nbr_port, rid))
                        queue.append(nbr)
        self._escape_tree = adj
        return adj

    def _tree_next_hops(self, target_router: int) -> List[int]:
        adj = self._escape_adjacency()
        next_hop = [-1] * self._num_routers
        seen = [False] * self._num_routers
        seen[target_router] = True
        queue = deque((target_router,))
        while queue:
            rid = queue.popleft()
            for _port, nbr in adj[rid]:
                if seen[nbr]:
                    continue
                seen[nbr] = True
                # The neighbour's first tree hop towards the target is its
                # port back to ``rid``.
                for nbr_port, back in adj[nbr]:
                    if back == rid:
                        next_hop[nbr] = nbr_port
                        break
                queue.append(nbr)
        return next_hop

    def filter_candidates(self, router: int, candidates: Sequence) -> Sequence:
        """Drop misroute candidates whose output port is currently dead.

        Returns the input sequence unchanged (no allocation) when no
        candidate is affected — the common case on a mostly-healthy network.
        """
        failed = self.failed_ports[router]
        if not failed:
            return candidates
        for candidate in candidates:
            if candidate.port in failed:
                return [c for c in candidates if c.port not in failed]
        return candidates

    # ------------------------------------------------------------------ events
    def apply_due(self, cycle: int) -> bool:
        """Apply every scheduled event with ``event.cycle <= cycle``.

        Returns whether anything changed (one *epoch* per call, however many
        same-cycle events were batched).  Invalidates the reachability and
        escape-tree caches so the routing fallback re-plans on the new graph.
        """
        events = self._events
        i = self._next_event
        changed = False
        while i < len(events) and events[i].cycle <= cycle:
            index = self._event_links[i]
            if events[i].kind == "fail":
                self._fail_link(index)
            else:
                self._repair_link(index)
            changed = True
            i += 1
        self._next_event = i
        self.pending_event_cycle = events[i].cycle if i < len(events) else NO_FAULT_EVENT
        if changed:
            self.epoch += 1
            self._components = None
            self._escape_tree = None
            self._escape_cache.clear()
        return changed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultRuntime(failed={len(self._failed_links)}/{len(self._links)} links, "
            f"degraded={len(self.degraded) // 2}, epoch={self.epoch})"
        )
