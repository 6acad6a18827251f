"""Deadlock avoidance: virtual-channel assignment policies and their checks.

Two construction-time deadlock-freedom arguments are implemented, selected
by the topology's :attr:`~repro.topology.base.PathModel.vc_schedule`:

**Path-stage schedule** (dragonfly, flattened butterfly, full mesh).
The routing mechanisms walk an ascending sequence of buffer classes along
every path (Kim et al., ISCA 2008; Garcia et al., ICPP 2012/2013): with
``g`` the number of global hops already taken and ``l`` the number of local
hops already taken inside the current group,

* a global hop uses global VC ``g``;
* a local hop uses local VC ``min(l, 1)`` while ``g = 0`` (source group) and
  ``2*g - 1 + min(l, 1)`` afterwards.

Together with the path restrictions enforced by the routing mechanisms
(at most one global misroute; at most one local misroute per group; the
local "proxy" hop of an MM+L misroute must be followed by a global hop;
Valiant intermediate routers are chosen outside the source group; no local
misroute in the destination group after a global misroute), the buffer
classes used along any path follow the strictly increasing order::

    L0 < G0 < L1 < L2 < G1 < L3 < ejection

so the channel dependency graph is acyclic and the network cannot deadlock.
This needs 4 local VCs and 2 global VCs for the nonminimal mechanisms — the
same budget Table I gives VAL and PB.  (The paper's OLM-style mechanisms use
3 local VCs with a more intricate argument that we do not replicate; the
extra local VC is documented as a deviation in docs/architecture.md, "The
deadlock-check contract".)  :func:`path_stage_vc` is the one body of the
assignment: the routers call it and :func:`validate_hop_sequences` checks it.

**Dateline schedule** (torus).  Ring links form cycles, so *some* VC index
must be reused around each ring and the strictly-increasing argument cannot
apply.  Instead every ring has a *dateline* (its wrap-around link) and each
hop uses the buffer class ``(leg, dim, crossed)`` — Valiant leg, ring
dimension, and whether the current ring traversal has reached the dateline
— mapped to VC index ``2 * leg + crossed``.  The classes visited along any
dimension-order path are lexicographically non-decreasing, a traversal
occupies each class only on one ring where the dateline cut breaks the
cycle (packets travel at most ``k // 2 < k`` links per ring, so
post-dateline channels never wrap back around), and therefore the channel
dependency graph is acyclic.  :func:`validate_dateline_shapes` re-checks
those conditions for every class shape a topology declares.

**Up/down schedule** (fat tree).  Tree paths climb to an ancestor and
descend exactly once, so each hop occupies the buffer class ``(direction,
link_level)`` — up hops ride VC 0, down hops VC 1, both a pure function of
the output port.  Ranking up link level ``l`` as ``l`` and down link level
``l`` as ``2 * L - l - 1`` (``L`` link levels) makes every legal shape
strictly ascending: up legs climb levels, the up->down turn happens at most
once (every down rank exceeds every up rank), and down legs descend levels
in ascending rank order.  Distinct, totally ordered classes visited in
strictly increasing rank means the channel dependency graph is acyclic —
no dateline machinery needed.  :func:`validate_updown_shapes` re-checks
those conditions for every class shape a topology declares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.topology.base import PortKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.base import PathModel

__all__ = [
    "path_stage_vc",
    "path_buffer_classes",
    "validate_hop_sequences",
    "validate_dateline_shapes",
    "validate_updown_shapes",
    "validate_path_model",
]


#: Strictly increasing order of buffer classes used by the VC assignment.
#: Each entry is ``(kind, vc)``; ejection is implicitly the largest class.
BUFFER_CLASS_ORDER: List[Tuple[str, int]] = [
    ("local", 0),
    ("global", 0),
    ("local", 1),
    ("local", 2),
    ("global", 1),
    ("local", 3),
]


def class_rank(kind: str, vc: int) -> int:
    """Rank of a buffer class in the global order (larger = later)."""
    try:
        return BUFFER_CLASS_ORDER.index((kind, vc))
    except ValueError as exc:
        raise ValueError(f"unknown buffer class ({kind}, {vc})") from exc


def path_stage_vc(
    global_hops: int,
    local_hops_in_group: int,
    kind: PortKind,
    local_vcs: int,
    global_vcs: int,
) -> int:
    """The path-stage VC of a hop through a port of ``kind``.

    ``global_hops`` counts the global hops already taken (``g``) and
    ``local_hops_in_group`` the local hops already taken inside the current
    group (``l``).  A global hop rides global VC ``g``; a local hop rides
    local VC ``min(l, 1)`` in the source group and ``2g - 1 + min(l, 1)``
    after it; an injection/ejection hop rides VC 0.  Each index is capped at
    the last VC of the budget (``local_vcs`` / ``global_vcs``).

    This is the one body of the rule: the routers call it through
    :meth:`~repro.routing.base.RoutingAlgorithm.next_vc`, and
    :func:`validate_hop_sequences` checks the classes it yields.
    """
    if kind is PortKind.GLOBAL:
        last = global_vcs - 1
        return global_hops if global_hops < last else last
    if kind is PortKind.LOCAL:
        l = 1 if local_hops_in_group else 0
        vc = l if global_hops == 0 else 2 * global_hops - 1 + l
        last = local_vcs - 1
        return vc if vc < last else last
    return 0


_HOP_KINDS = {"local": PortKind.LOCAL, "global": PortKind.GLOBAL}


def path_buffer_classes(
    hop_kinds: Sequence[str], local_vcs: int, global_vcs: int
) -> List[Tuple[str, int]]:
    """Buffer classes used along a path described by its hop kinds.

    ``hop_kinds`` is a sequence of ``"local"`` / ``"global"`` strings in path
    order.  Returns the ``(kind, vc)`` class of every hop under
    :func:`path_stage_vc` with the given VC budget, tracking the stage
    counters the way :meth:`~repro.network.packet.Packet.record_hop` does.
    """
    classes: List[Tuple[str, int]] = []
    g = 0
    l_in_group = 0
    for kind_name in hop_kinds:
        kind = _HOP_KINDS.get(kind_name)
        if kind is None:
            raise ValueError(f"unknown hop kind {kind_name!r}")
        classes.append(
            (kind_name, path_stage_vc(g, l_in_group, kind, local_vcs, global_vcs))
        )
        if kind is PortKind.GLOBAL:
            g += 1
            l_in_group = 0
        else:
            l_in_group += 1
    return classes


def validate_hop_sequences(
    hop_sequences: Iterable[Sequence[str]],
    *,
    local_vcs: int,
    global_vcs: int,
    context: str = "routing",
) -> None:
    """Check that every hop sequence walks strictly increasing buffer classes.

    This is the topology-generic deadlock-freedom argument, parameterized by
    the topology's :class:`~repro.topology.base.PathModel`: for each declared
    hop-kind sequence, the classes :func:`path_buffer_classes` derives from
    :func:`path_stage_vc` — the function the routers call — within the given
    VC budget must be visited in strictly increasing global order.  A
    violation means the VC budget is too small for the topology's paths —
    raising here at construction time replaces a silent deadlock risk at
    simulation time.
    """
    for hops in hop_sequences:
        ranks = [
            class_rank(kind, vc)
            for kind, vc in path_buffer_classes(hops, local_vcs, global_vcs)
        ]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise ValueError(
                f"{context}: hop sequence {'-'.join(hops)} does not walk "
                f"strictly increasing buffer classes under the VC budget "
                f"(local={local_vcs}, global={global_vcs}); the configuration "
                "is not deadlock-free"
            )


def validate_dateline_shapes(
    shapes: Iterable[Sequence[Tuple[int, int, int]]],
    *,
    ring_vcs: int,
    context: str = "routing",
    ring_lengths: Optional[Sequence[int]] = None,
    max_ring_hops: Optional[Sequence[int]] = None,
) -> None:
    """Check dateline class shapes for acyclicity within a ring-VC budget.

    Each shape is a sequence of ``(leg, dim, crossed)`` buffer classes in
    path order, as declared by a dateline-schedule
    :class:`~repro.topology.base.PathModel` (consecutive hops may occupy
    the same class while a packet walks one ring, so the shape lists the
    *distinct* classes in visit order).  The schedule is deadlock-free when

    * the classes are **lexicographically strictly increasing** — distinct
      classes are visited in one global order, so dependencies between
      classes cannot cycle.  In particular a dimension's ``crossed`` bit
      can only go ``0 -> 1`` (the dateline is crossed at most once per
      traversal) and a later leg never reuses an earlier leg's classes;
    * within a single class, dependencies stay on one ring and the
      dateline cuts them: ``crossed = 0`` chains end before the wrap link
      and ``crossed = 1`` chains start at it, so neither can close the
      ring cycle as long as a traversal covers **fewer links than the
      ring has** — ``k // 2`` for minimal direction choice, ``k - 1`` for
      the nonminimal ring escape (one fixed direction the long way
      around).  Pass ``ring_lengths`` (per-dimension ring sizes) and
      ``max_ring_hops`` (the per-dimension worst-case links one traversal
      covers) to have this condition checked instead of assumed: every
      declared dimension must exist and satisfy
      ``max_ring_hops[dim] < ring_lengths[dim]``;
    * the VC index ``2 * leg + crossed`` of every class fits the ring-port
      VC budget.  The runtime assignment never caps dateline VCs (a capped
      class would silently merge with a lower one and void the argument),
      so raising here at construction time replaces a silent deadlock risk
      at simulation time.
    """
    if ring_lengths is not None and max_ring_hops is not None:
        for dim, (length, hops) in enumerate(zip(ring_lengths, max_ring_hops)):
            if hops >= length:
                raise ValueError(
                    f"{context}: a single traversal of dimension {dim} may "
                    f"cover {hops} of its {length} ring links; covering the "
                    "whole ring closes the channel-dependency cycle and the "
                    "dateline cut no longer applies"
                )
    for shape in shapes:
        for cls in shape:
            leg, dim, crossed = cls
            if leg < 0 or dim < 0 or crossed not in (0, 1):
                raise ValueError(
                    f"{context}: malformed dateline class {cls!r} "
                    "(expected (leg >= 0, dim >= 0, crossed in {0, 1}))"
                )
            if ring_lengths is not None and dim >= len(ring_lengths):
                raise ValueError(
                    f"{context}: dateline class {cls!r} names dimension "
                    f"{dim} but only {len(ring_lengths)} ring dimensions "
                    "are declared"
                )
            vc = 2 * leg + crossed
            if vc >= ring_vcs:
                raise ValueError(
                    f"{context}: dateline class {cls!r} needs ring VC {vc} "
                    f"but only {ring_vcs} ring VCs are budgeted; the "
                    "configuration is not deadlock-free"
                )
        if any(b <= a for a, b in zip(shape, shape[1:])):
            raise ValueError(
                f"{context}: dateline shape {tuple(shape)} does not visit "
                "(leg, dim, crossed) classes in strictly increasing "
                "lexicographic order; the channel dependency graph may cycle"
            )


def validate_updown_shapes(
    shapes: Iterable[Sequence[Tuple[int, int]]],
    *,
    local_vcs: int,
    link_levels: int,
    context: str = "routing",
) -> None:
    """Check up/down class shapes for acyclicity within the local-VC budget.

    Each shape is a sequence of ``(direction, link_level)`` buffer classes
    in path order (direction 0 = up, 1 = down), as declared by an
    up/down-schedule :class:`~repro.topology.base.PathModel`.  The schedule
    is deadlock-free when every shape visits classes in **strictly
    ascending rank order**, with up link level ``l`` ranked ``l`` and down
    link level ``l`` ranked ``2 * link_levels - l - 1``.  Ascending ranks
    force exactly the legal tree-path structure — up hops on ascending
    levels, at most one up->down turn (every down rank exceeds every up
    rank), down hops on descending levels — so the distinct, totally
    ordered classes cannot close a dependency cycle.  The VC of a class is
    its direction (up 0, down 1) and must fit the local-VC budget; the
    runtime assignment (:attr:`~repro.topology.base.Topology.updown_port_vcs`)
    never caps it, so raising here at construction time replaces a silent
    deadlock risk at simulation time.
    """
    if link_levels < 1:
        raise ValueError(
            f"{context}: an up/down path model needs at least one link level"
        )
    for shape in shapes:
        ranks: List[int] = []
        for cls in shape:
            try:
                direction, level = cls
            except (TypeError, ValueError):
                raise ValueError(
                    f"{context}: malformed up/down class {cls!r} "
                    "(expected (direction, link_level))"
                ) from None
            if direction not in (0, 1):
                raise ValueError(
                    f"{context}: malformed up/down class {cls!r} "
                    "(direction must be 0 for up or 1 for down)"
                )
            if not 0 <= level < link_levels:
                raise ValueError(
                    f"{context}: up/down class {cls!r} names link level "
                    f"{level} but only {link_levels} link levels are declared"
                )
            if direction >= local_vcs:
                raise ValueError(
                    f"{context}: up/down class {cls!r} needs local VC "
                    f"{direction} but only {local_vcs} local VCs are "
                    "budgeted; the configuration is not deadlock-free"
                )
            rank = level if direction == 0 else 2 * link_levels - level - 1
            ranks.append(rank)
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise ValueError(
                f"{context}: up/down shape {tuple(shape)} does not walk "
                "strictly ascending class ranks (up legs must climb link "
                "levels, turn down at most once, then descend); the channel "
                "dependency graph may cycle"
            )


def validate_path_model(
    path_model: "PathModel",
    *,
    local_vcs: int,
    global_vcs: int,
    include_valiant: bool,
    include_adaptive: bool = False,
) -> None:
    """Validate a topology's declared MIN (and optionally Valiant/adaptive)
    paths.

    Dispatches on the path model's VC schedule: path-stage models are
    checked hop sequence by hop sequence against the strictly increasing
    buffer-class order (:func:`validate_hop_sequences`); dateline models
    are checked shape by shape against the dateline rules
    (:func:`validate_dateline_shapes`), with the ring budget taken from the
    LOCAL VC count (ring ports carry the LOCAL kind); up/down models are
    checked shape by shape against the ascending-rank rule
    (:func:`validate_updown_shapes`), likewise within the LOCAL VC budget
    (tree links carry the LOCAL kind).

    ``include_adaptive`` additionally validates the in-transit adaptive
    surface the mechanism will use: the MM+L hop shapes
    (:attr:`~repro.topology.base.PathModel.adaptive_hop_kinds`) on
    path-stage models, the ring-escape shapes with the long-way traversal
    bound (``k - 1`` links per ring instead of the minimal ``k // 2``) on
    dateline models, and the uplink-multipath shapes on up/down models
    (equal-cost diverts, so they must satisfy the same ascending-rank rule
    as the minimal shapes).  A model that declares no in-transit policy
    (:attr:`~repro.topology.base.PathModel.supports_in_transit_adaptive`)
    is rejected whatever its schedule.
    """
    if include_adaptive and not path_model.supports_in_transit_adaptive:
        raise ValueError(
            f"{path_model.topology}: in-transit adaptive validation "
            "requested but the path model declares no in-transit policy"
        )
    if path_model.vc_schedule == "up_down":
        if path_model.has_global_ports:
            raise ValueError(
                f"{path_model.topology}: the up/down schedule is defined "
                "for tree (LOCAL-kind) links only, but the path model "
                "declares global ports"
            )
        shapes = list(path_model.updown_minimal_shapes)
        if include_valiant:
            shapes.extend(path_model.updown_valiant_shapes)
        if not shapes:
            raise ValueError(
                f"{path_model.topology}: an up/down path model must declare "
                "at least one (direction, link_level) class shape"
            )
        context = f"{path_model.topology} path model"
        validate_updown_shapes(
            shapes,
            local_vcs=local_vcs,
            link_levels=path_model.updown_link_levels,
            context=context,
        )
        if include_adaptive:
            validate_updown_shapes(
                path_model.updown_adaptive_shapes,
                local_vcs=local_vcs,
                link_levels=path_model.updown_link_levels,
                context=f"{context} (uplink multipath)",
            )
        return
    if path_model.vc_schedule == "dateline":
        if path_model.has_global_ports:
            raise ValueError(
                f"{path_model.topology}: the dateline schedule is defined "
                "for ring (LOCAL-kind) links only, but the path model "
                "declares global ports"
            )
        shapes = list(path_model.dateline_minimal_shapes)
        if include_valiant:
            shapes.extend(path_model.dateline_valiant_shapes)
        if not shapes:
            raise ValueError(
                f"{path_model.topology}: a dateline path model must declare "
                "at least one (leg, dim, crossed) class shape"
            )
        # The traversal bounds are *declared* by the path model (they state
        # the routing policy's runtime worst case), never derived from the
        # ring lengths here — deriving both sides of the comparison at the
        # call site would make the whole-ring check unfalsifiable.
        ring_lengths = path_model.ring_lengths or None
        context = f"{path_model.topology} path model"
        validate_dateline_shapes(
            shapes,
            ring_vcs=local_vcs,
            context=context,
            ring_lengths=ring_lengths,
            max_ring_hops=path_model.dateline_max_ring_hops or None,
        )
        if include_adaptive:
            validate_dateline_shapes(
                path_model.dateline_adaptive_shapes,
                ring_vcs=local_vcs,
                context=f"{context} (ring escape)",
                ring_lengths=ring_lengths,
                max_ring_hops=path_model.dateline_adaptive_max_ring_hops or None,
            )
        return
    sequences = list(path_model.minimal_hop_kinds)
    if include_valiant:
        sequences.extend(path_model.valiant_hop_kinds)
    if include_adaptive:
        sequences.extend(path_model.adaptive_hop_kinds)
    validate_hop_sequences(
        sequences,
        local_vcs=local_vcs,
        global_vcs=global_vcs,
        context=f"{path_model.topology} path model",
    )

