"""Misrouting candidate enumeration (MM+L policy, local detours, port tables).

The in-transit adaptive mechanisms (OLM and the contention-based mechanisms
of the paper) separate *when* to misroute (the trigger, which differs per
mechanism) from *where* to misroute (the candidate set, which they share).

Global misrouting follows the MM+L policy of Garcia et al. (INA-OCMC 2013):
at injection a packet may be diverted either through one of the current
router's own global links or through a local link towards another router of
the group (which then offers its own global links); after the first hop only
the current router's global links are considered.  Local misrouting inside
the intermediate or destination group picks a different local link than the
minimal one, adding one extra local hop.  The port-table policy's
candidates (the ring escape, the sibling uplinks) are a function of the
minimal port alone.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.topology.base import PortKind, Topology

__all__ = [
    "MisrouteCandidate",
    "compute_global_candidates",
    "compute_local_candidates",
    "compute_ring_escape_candidates",
    "compute_uplink_candidates",
]


class MisrouteCandidate(NamedTuple):
    """A possible nonminimal output port."""

    port: int
    kind: PortKind
    #: Group reached if this candidate is a global port (else ``None``).
    target_group: Optional[int]


def compute_global_candidates(
    topology: Topology,
    router_id: int,
    dst_group: int,
    minimal_port: int,
    allow_local_proxy: bool,
) -> List[MisrouteCandidate]:
    """Enumerate the MM+L global-misroute candidates for one routing key.

    Pure function of ``(router_id, dst_group, minimal_port,
    allow_local_proxy)`` for a given topology: the reference enumeration.
    :class:`~repro.routing.adaptive.AdaptiveInTransitRouting` answers every
    key as a filtered view of one shared candidate tuple per router, and the
    tests hold the views to this function.
    """
    current_group = topology.router_region(router_id)
    candidates: List[MisrouteCandidate] = []
    for port in topology.global_ports:
        if port == minimal_port:
            continue
        target = topology.port_target_region(router_id, port)
        if target == dst_group or target == current_group:
            continue
        candidates.append(MisrouteCandidate(port, PortKind.GLOBAL, target))
    if allow_local_proxy:
        for port in topology.local_ports:
            if port == minimal_port:
                continue
            candidates.append(MisrouteCandidate(port, PortKind.LOCAL, None))
    return candidates


def compute_local_candidates(
    topology: Topology, minimal_port: int
) -> List[MisrouteCandidate]:
    """Enumerate the local-detour candidates for one minimal port (pure)."""
    if topology.port_kind(minimal_port) is not PortKind.LOCAL:
        return []
    candidates: List[MisrouteCandidate] = []
    for port in topology.local_ports:
        if port == minimal_port:
            continue
        candidates.append(MisrouteCandidate(port, PortKind.LOCAL, None))
    return candidates


def compute_ring_escape_candidates(
    topology: Topology, minimal_port: int
) -> List[MisrouteCandidate]:
    """Nonminimal ring-escape candidates for one minimal ring port (pure).

    On dateline-schedule topologies (the torus) the only in-transit
    nonminimal choice is the *direction* around the minimal port's ring:
    the single candidate is the same dimension's opposite-direction port,
    which sends the packet the long way (up to ``k - 1`` links) around.
    The candidate set is a pure function of the minimal port — rings are
    laid out identically on every router — so callers memoize it per port.
    """
    if topology.port_kind(minimal_port) is not PortKind.LOCAL:
        return []
    return [
        MisrouteCandidate(
            topology.opposite_ring_port(minimal_port), PortKind.LOCAL, None
        )
    ]


def compute_uplink_candidates(
    topology: Topology, minimal_port: int
) -> List[MisrouteCandidate]:
    """Equal-cost uplink alternatives for one minimal port (pure).

    On ``up_down``-schedule topologies with an in-transit policy (the fat
    tree's uplink multipath, :mod:`repro.routing.adaptive`) every
    uplink of a switch below the destination's nearest common ancestor
    reaches it in the same number of hops, so when the minimal port is an
    uplink the *other* uplinks are the adaptive candidates — derived from
    the uniform port layout, not from coordinates.  Down hops and ejection
    are deterministic (the destination pins every descending digit), so a
    non-uplink minimal port has no candidates.  A diverted hop is
    equal-cost and stays on the up/down class schedule; it is still counted
    as a local misroute because it leaves the funneled default path.  Every
    switch whose minimal port is an uplink lies below the top level, where
    all uplinks are connected, so the set is a pure function of the minimal
    port and callers memoize it per port.
    """
    uplinks = topology.uplink_ports
    if minimal_port not in uplinks:
        return []
    return [
        MisrouteCandidate(port, PortKind.LOCAL, None)
        for port in uplinks
        if port != minimal_port
    ]
