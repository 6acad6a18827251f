"""Simulation parameters mirroring Table I of the paper.

The paper (Fuentes et al., IPDPS 2015, Table I) evaluates a Canonical
Dragonfly with 31-port routers (h=8 global, p=8 injection, 15 local ports),
16 routers per group, 129 groups, virtual cut-through switching, a 5-cycle
router pipeline with a 2x internal speedup, and link latencies of 10 (local)
and 100 (global) cycles.  This module exposes those parameters as frozen
dataclasses together with smaller presets that keep the same proportions but
are tractable for a pure-Python cycle-level simulation.

The topology part is pluggable: :class:`SimulationParameters` holds any
:class:`TopologyConfig` — the canonical :class:`DragonflyConfig`, the 2-D
:class:`FlattenedButterflyConfig`, the :class:`FullMeshConfig`, the
k-ary n-cube :class:`TorusConfig`, or the k-ary n-tree
:class:`FatTreeConfig` — and the simulator instantiates the
matching :class:`~repro.topology.base.Topology` through
:func:`repro.topology.registry.create_topology`.  Each config class
carries its own ``tiny``/``small`` presets so experiment scales can swap
topologies without touching the microarchitectural parameters.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Dict, Tuple

__all__ = [
    "TopologyConfig",
    "DragonflyConfig",
    "FlattenedButterflyConfig",
    "FullMeshConfig",
    "TorusConfig",
    "FatTreeConfig",
    "SimulationParameters",
    "VALID_BACKENDS",
    "default_backend",
    "PAPER_PARAMETERS",
    "SMALL_PARAMETERS",
    "TINY_PARAMETERS",
]

#: Valid values of ``SimulationParameters.backend``.
VALID_BACKENDS = frozenset({"object", "soa"})


def default_backend() -> str:
    """The session's default simulation backend.

    Reads ``REPRO_BACKEND`` at *instantiation* time (not import time), so a
    test may monkeypatch the environment and every parameter set built
    afterwards picks the override up.  An empty value (an unset CI matrix
    variable) counts as unset; any other invalid value is rejected here, by
    name, because the module-level presets below would otherwise report it
    at import time as a ``backend=`` argument nobody passed.
    """
    backend = os.environ.get("REPRO_BACKEND") or "soa"
    if backend not in VALID_BACKENDS:
        # Retired names were all variants of ``soa`` (compiled kernels).
        hint = "; use soa" if backend.startswith("soa") else ""
        raise ValueError(
            f"environment variable REPRO_BACKEND={backend!r} is not one of "
            f"{sorted(VALID_BACKENDS)}{hint}"
        )
    return backend


@dataclass(frozen=True)
class TopologyConfig:
    """Base class for topology parameter sets.

    Subclasses are frozen dataclasses that set the class attribute ``kind``
    (the registry name) and provide the derived sizes below plus
    ``tiny()`` / ``small()`` presets.  The simulator resolves a config to a
    :class:`~repro.topology.base.Topology` through the registry in
    :mod:`repro.topology.registry`, keyed by the config's type.
    """

    #: Registry name of the topology this config describes.
    kind = "abstract"

    @property
    def num_routers(self) -> int:
        raise NotImplementedError

    @property
    def nodes_per_router(self) -> int:
        raise NotImplementedError

    @property
    def router_radix(self) -> int:
        raise NotImplementedError

    @property
    def num_nodes(self) -> int:
        return self.num_routers * self.nodes_per_router

    def describe(self) -> Dict[str, object]:
        """Flat summary of the topology sizes (for reports and ``as_dict``)."""
        return {
            "topology": self.kind,
            "routers": self.num_routers,
            "nodes": self.num_nodes,
            "router_radix": self.router_radix,
        }

    def canonical_dict(self) -> Dict[str, object]:
        """Complete, JSON-serializable identity of this topology config.

        Unlike :meth:`describe` (a human-oriented summary that omits
        semantic fields such as the Dragonfly's ``global_arrangement``),
        this enumerates **every** dataclass field, so two configs hash
        equal under :func:`repro.obs.telemetry.config_hash` if and only if
        they describe the same network.  Derived generically from the
        dataclass fields: a newly added parameter can never be silently
        missing from the hash.
        """
        payload: Dict[str, object] = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
        return payload


@dataclass(frozen=True)
class DragonflyConfig(TopologyConfig):
    """Canonical Dragonfly topology parameters.

    Parameters
    ----------
    p:
        Number of compute nodes attached to each router (injection ports).
    a:
        Number of routers in each first-level group.
    h:
        Number of global links per router.

    The canonical (maximum-size, complete-graph) Dragonfly has
    ``a*h + 1`` groups, ``a - 1`` local ports per router and one global link
    between every pair of groups.
    """

    kind = "dragonfly"

    p: int
    a: int
    h: int
    global_arrangement: str = "palmtree"

    def __post_init__(self) -> None:
        if self.p < 1 or self.a < 1 or self.h < 1:
            raise ValueError(
                f"Dragonfly parameters must be positive, got p={self.p}, a={self.a}, h={self.h}"
            )
        if self.global_arrangement not in ("palmtree", "consecutive"):
            raise ValueError(
                f"Unknown global arrangement {self.global_arrangement!r}; "
                "expected 'palmtree' or 'consecutive'"
            )

    # -- Derived quantities -------------------------------------------------
    @property
    def num_groups(self) -> int:
        """Number of groups in the canonical (complete) Dragonfly: a*h + 1."""
        return self.a * self.h + 1

    @property
    def routers_per_group(self) -> int:
        return self.a

    @property
    def num_routers(self) -> int:
        return self.num_groups * self.a

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def nodes_per_group(self) -> int:
        return self.p * self.a

    @property
    def num_nodes(self) -> int:
        return self.num_groups * self.nodes_per_group

    @property
    def local_ports_per_router(self) -> int:
        """Local (intra-group) ports: one to every other router in the group."""
        return self.a - 1

    @property
    def global_links_per_group(self) -> int:
        return self.a * self.h

    @property
    def router_radix(self) -> int:
        """Total number of router ports (injection + local + global)."""
        return self.p + self.local_ports_per_router + self.h

    def describe(self) -> Dict[str, object]:
        return {
            "topology": self.kind,
            "p": self.p,
            "a": self.a,
            "h": self.h,
            "groups": self.num_groups,
            "routers": self.num_routers,
            "nodes": self.num_nodes,
            "router_radix": self.router_radix,
        }

    # -- Presets ------------------------------------------------------------
    @classmethod
    def paper(cls) -> "DragonflyConfig":
        """The full-scale configuration from Table I (16,512 nodes)."""
        return cls(p=8, a=16, h=8)

    @classmethod
    def small(cls) -> "DragonflyConfig":
        """A scaled-down Dragonfly (p=2, a=4, h=2 -> 9 groups, 72 nodes)."""
        return cls(p=2, a=4, h=2)

    @classmethod
    def tiny(cls) -> "DragonflyConfig":
        """The smallest balanced Dragonfly useful for unit tests (36 nodes)."""
        return cls(p=2, a=3, h=1)


@dataclass(frozen=True)
class FlattenedButterflyConfig(TopologyConfig):
    """2-D flattened butterfly (k-ary 2-flat) topology parameters.

    Routers sit on a ``rows x cols`` grid.  Every router is connected to
    all other routers of its row (first-dimension links, LOCAL ports) and
    to all other routers of its column (second-dimension links, GLOBAL
    ports), and attaches ``p`` compute nodes.  Rows play the role of the
    Dragonfly's groups for region-based traffic and routing.
    """

    kind = "flattened_butterfly"

    p: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.rows < 1 or self.cols < 1:
            raise ValueError(
                "flattened butterfly parameters must be positive, got "
                f"p={self.p}, rows={self.rows}, cols={self.cols}"
            )
        if self.rows * self.cols < 2:
            raise ValueError("a flattened butterfly needs at least two routers")

    # -- Derived quantities -------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.rows * self.cols

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def row_ports_per_router(self) -> int:
        return self.cols - 1

    @property
    def column_ports_per_router(self) -> int:
        return self.rows - 1

    @property
    def router_radix(self) -> int:
        return self.p + self.row_ports_per_router + self.column_ports_per_router

    def describe(self) -> Dict[str, object]:
        return {
            "topology": self.kind,
            "p": self.p,
            "rows": self.rows,
            "cols": self.cols,
            "routers": self.num_routers,
            "nodes": self.num_nodes,
            "router_radix": self.router_radix,
        }

    # -- Presets ------------------------------------------------------------
    @classmethod
    def small(cls) -> "FlattenedButterflyConfig":
        """A 4x4 grid with four nodes per router (64 nodes).

        ``p == rows == cols`` keeps the MIN-vs-VAL adversarial contrast of
        larger flattened butterflies: the per-dimension VAL capacity
        ``(k - 1) / (2p)`` exceeds MIN's ``1/p`` bottleneck once ``k >= 4``.
        """
        return cls(p=4, rows=4, cols=4)

    @classmethod
    def tiny(cls) -> "FlattenedButterflyConfig":
        """The smallest useful grid for unit tests (3x3, 18 nodes)."""
        return cls(p=2, rows=3, cols=3)


@dataclass(frozen=True)
class FullMeshConfig(TopologyConfig):
    """Full-mesh topology parameters (the single-group Dragonfly limit).

    ``a`` routers are joined as a complete graph by LOCAL links (there are
    no global ports at all) and each attaches ``p`` compute nodes.  Every
    router is its own region: the adversarial pattern ``ADV+i`` sends the
    nodes of router ``r`` to router ``r + i``, saturating the single direct
    link under minimal routing.
    """

    kind = "full_mesh"

    p: int
    a: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.a < 2:
            raise ValueError(
                f"full mesh needs p >= 1 and a >= 2 routers, got p={self.p}, a={self.a}"
            )

    # -- Derived quantities -------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self.a

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def local_ports_per_router(self) -> int:
        return self.a - 1

    @property
    def router_radix(self) -> int:
        return self.p + self.a - 1

    def describe(self) -> Dict[str, object]:
        return {
            "topology": self.kind,
            "p": self.p,
            "a": self.a,
            "routers": self.num_routers,
            "nodes": self.num_nodes,
            "router_radix": self.router_radix,
        }

    # -- Presets ------------------------------------------------------------
    @classmethod
    def small(cls) -> "FullMeshConfig":
        """Eight routers with four nodes each (32 nodes)."""
        return cls(p=4, a=8)

    @classmethod
    def tiny(cls) -> "FullMeshConfig":
        """The smallest useful mesh for unit tests (6 routers, 12 nodes)."""
        return cls(p=2, a=6)


@dataclass(frozen=True)
class TorusConfig(TopologyConfig):
    """k-ary n-cube (torus) topology parameters, n in {2, 3}.

    ``dims`` gives the ring length of each dimension (e.g. ``(4, 4)`` for a
    4x4 2-D torus, ``(4, 4, 4)`` for a 3-D one); every router has one plus-
    and one minus-direction ring port per dimension (all LOCAL kind — a
    torus is a direct network with no global links) and attaches ``p``
    compute nodes.  Slabs of the *last* dimension (all routers sharing the
    last coordinate) play the role of the Dragonfly's groups for
    region-based traffic, and ``ADV+h`` resolves to the tornado offset
    ``dims[-1] // 2`` — the shift that concentrates all minimal traffic on
    one ring direction.

    Ring links cannot use the strictly-increasing buffer-class argument of
    the other topologies, so the torus declares the *dateline* VC schedule
    (see :mod:`repro.topology.torus` and :mod:`repro.routing.deadlock`).
    """

    kind = "torus"

    p: int
    dims: Tuple[int, ...]

    def __post_init__(self) -> None:
        # Accept any sequence for convenience; store the canonical tuple.
        object.__setattr__(self, "dims", tuple(int(k) for k in self.dims))
        if self.p < 1:
            raise ValueError(f"torus needs p >= 1 nodes per router, got p={self.p}")
        if not 2 <= len(self.dims) <= 3:
            raise ValueError(
                f"torus supports 2 or 3 dimensions, got dims={self.dims}"
            )
        if any(k < 2 for k in self.dims):
            raise ValueError(
                f"every torus dimension needs at least 2 routers, got dims={self.dims}"
            )

    # -- Derived quantities -------------------------------------------------
    @property
    def num_routers(self) -> int:
        n = 1
        for k in self.dims:
            n *= k
        return n

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def ring_ports_per_router(self) -> int:
        """Two ring ports (plus / minus direction) per dimension."""
        return 2 * len(self.dims)

    @property
    def router_radix(self) -> int:
        return self.p + self.ring_ports_per_router

    def describe(self) -> Dict[str, object]:
        return {
            "topology": self.kind,
            "p": self.p,
            "dims": "x".join(str(k) for k in self.dims),
            "routers": self.num_routers,
            "nodes": self.num_nodes,
            "router_radix": self.router_radix,
        }

    # -- Presets ------------------------------------------------------------
    @classmethod
    def small(cls) -> "TorusConfig":
        """A 4x4 torus with four nodes per router (64 nodes).

        ``dims[-1] = 4`` gives a nontrivial tornado offset (``ADV+h`` =
        ``ADV+2``): minimal dimension-order routing funnels all last-ring
        traffic one way and saturates at ``1/(2p)``, while Valiant spreads
        it over both directions and all intermediate slabs.
        """
        return cls(p=4, dims=(4, 4))

    @classmethod
    def tiny(cls) -> "TorusConfig":
        """The smallest torus with a real tornado pattern (4x4, 32 nodes)."""
        return cls(p=2, dims=(4, 4))


@dataclass(frozen=True)
class FatTreeConfig(TopologyConfig):
    """k-ary n-tree (fat tree) topology parameters.

    A k-ary n-tree has ``levels`` router levels of ``k**(levels-1)``
    switches each — level 0 holds the *leaf* switches, level ``levels-1``
    the *roots* — wired so every switch has ``k`` down and ``k`` up ports
    (leaves have no children below them, roots no parents above; those
    ports exist in the uniform radix but stay unconnected).  Compute nodes
    attach to the leaf switches only, ``p`` per leaf, so ``num_nodes`` is
    ``k**(levels-1) * p`` — *not* ``num_routers * p`` — and the topology
    passes its own node -> router map to
    :class:`~repro.topology.base.Topology`.

    The ``k`` most-significant-digit subtrees play the role of the
    Dragonfly's groups for region-based traffic: ``ADV+1`` sends every
    node's traffic into the next subtree, which under destination-funneled
    MIN concentrates each leaf's load on a single uplink — the subtree
    hotspot the adaptive uplink multipath is measured against.

    Tree links cannot deadlock when every path goes up then down exactly
    once, which the *up/down* VC schedule proves at construction (see
    :mod:`repro.topology.fat_tree` and :mod:`repro.routing.deadlock`).
    """

    kind = "fat_tree"

    p: int
    k: int
    levels: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(
                f"fat tree needs p >= 1 nodes per leaf switch, got p={self.p}"
            )
        if self.k < 2:
            raise ValueError(
                f"fat tree needs k >= 2 up/down links per switch, got k={self.k}"
            )
        if self.levels < 2:
            raise ValueError(
                f"fat tree needs at least 2 levels, got levels={self.levels}"
            )

    # -- Derived quantities -------------------------------------------------
    @property
    def switches_per_level(self) -> int:
        return self.k ** (self.levels - 1)

    @property
    def num_routers(self) -> int:
        return self.levels * self.switches_per_level

    @property
    def nodes_per_router(self) -> int:
        return self.p

    @property
    def num_nodes(self) -> int:
        """Nodes attach to the leaf level only."""
        return self.switches_per_level * self.p

    @property
    def router_radix(self) -> int:
        """``p`` injection + ``k`` down + ``k`` up ports, on every switch."""
        return self.p + 2 * self.k

    def describe(self) -> Dict[str, object]:
        return {
            "topology": self.kind,
            "p": self.p,
            "k": self.k,
            "levels": self.levels,
            "routers": self.num_routers,
            "nodes": self.num_nodes,
            "router_radix": self.router_radix,
        }

    # -- Presets ------------------------------------------------------------
    @classmethod
    def small(cls) -> "FatTreeConfig":
        """A 4-ary 2-tree with four nodes per leaf (8 switches, 16 nodes).

        The sharpest MIN-vs-multipath contrast: under ``ADV+1`` every
        leaf's four injectors funnel into one of its four uplinks under
        destination-funneled MIN (accepted load caps at ``1/p = 0.25``),
        while spreading over all four equal-cost uplinks lifts the cap to
        the full injection bandwidth.
        """
        return cls(p=4, k=4, levels=2)

    @classmethod
    def tiny(cls) -> "FatTreeConfig":
        """The smallest tree with an interior level (2-ary 3-tree, 8 nodes)."""
        return cls(p=2, k=2, levels=3)


@dataclass(frozen=True)
class SimulationParameters:
    """Full simulation parameter set (paper Table I).

    All sizes are expressed in *phits*; all latencies in router cycles.
    """

    topology: TopologyConfig

    # Router microarchitecture
    router_latency: int = 5
    internal_speedup: int = 2

    # Links
    local_link_latency: int = 10
    global_link_latency: int = 100

    # Switching / packets
    packet_size_phits: int = 8

    # Virtual channels
    global_port_vcs: int = 2
    local_port_vcs: int = 3
    injection_vcs: int = 3
    local_port_vcs_oblivious: int = 4  # VAL & PB need one extra local VC

    # Buffers (phits)
    output_buffer_phits: int = 32
    local_input_buffer_phits: int = 32   # per VC
    global_input_buffer_phits: int = 256  # per VC

    # Congestion (credit/occupancy) thresholds
    olm_congestion_threshold: float = 0.50   # relative, Section IV-A
    hybrid_congestion_threshold: float = 0.35
    pb_offset_threshold: int = 3             # "T" in PB's UGAL-like comparison

    # Contention thresholds (Section IV-A / Table I)
    base_contention_threshold: int = 6
    hybrid_contention_threshold: int = 7
    ectn_local_contention_threshold: int = 6
    ectn_combined_threshold: int = 10
    ectn_update_period: int = 100

    # PB saturation detection: a global link is marked saturated when the
    # occupancy of its output exceeds this fraction of the downstream buffer.
    pb_saturation_fraction: float = 0.50

    # Simulation backend.  ``"soa"`` (the default) is the struct-of-arrays
    # router model; ``"object"`` is the per-object model, the bit-identical
    # reference the cross-backend suites compare it against.  The
    # ``REPRO_BACKEND`` environment variable, when set, replaces the
    # default, so a whole test or benchmark session can be pointed at the
    # other backend without touching call sites (this is how CI runs the
    # tier-1 matrix).  See docs/architecture.md ("Simulation backends").
    backend: str = field(default_factory=lambda: default_backend())

    def __post_init__(self) -> None:
        validate_parameters(self)

    # -- Derived ------------------------------------------------------------
    def input_buffer_phits(self, port_kind: str) -> int:
        """Per-VC input-buffer size (phits) for a port of the given kind."""
        if port_kind == "global":
            return self.global_input_buffer_phits
        return self.local_input_buffer_phits

    def with_buffers(self, local: int, global_: int) -> "SimulationParameters":
        """Return a copy with different input-buffer sizes (used by Fig. 8)."""
        return replace(
            self,
            local_input_buffer_phits=local,
            global_input_buffer_phits=global_,
        )

    def with_threshold(self, base_threshold: int) -> "SimulationParameters":
        """Return a copy with a different Base contention threshold (Fig. 10)."""
        return replace(self, base_contention_threshold=base_threshold)

    def with_topology(self, topology: TopologyConfig) -> "SimulationParameters":
        return replace(self, topology=topology)

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view of the parameters (for reporting): the
        topology's description, then every other field, ``backend`` too."""
        return {
            **self.topology.describe(),
            **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "topology"},
        }

    def with_backend(self, backend: str) -> "SimulationParameters":
        """Return a copy selecting a different simulation backend."""
        return replace(self, backend=backend)

    def canonical_dict(self) -> Dict[str, object]:
        """Canonical serialization of the *simulated system* for hashing.

        This is the payload behind :func:`repro.obs.telemetry.config_hash`
        (trace manifests) and the sweep-service cache key, so the two
        always agree on what "the same configuration" means.  Two rules:

        * every semantic dataclass field is included — enumerated via
          :func:`dataclasses.fields` so a newly added parameter perturbs
          the hash without anyone remembering to list it (as
          :meth:`as_dict` does for the reporting view);
        * ``backend`` is **excluded**: the backends are bit-identical by
          contract, so the hash identifies the simulated system, not the
          engine that computed it.
        """
        payload: Dict[str, object] = {}
        for f in fields(self):
            if f.name in ("topology", "backend"):
                continue
            payload[f.name] = getattr(self, f.name)
        payload["topology"] = self.topology.canonical_dict()
        return payload

    @cached_property
    def _config_hash(self) -> str:
        """Memo behind :func:`repro.obs.telemetry.config_hash`; call that.

        Computed once per instance: a sweep's specs share one parameter
        set, so its keys hash the configuration once, not once per point.
        The memo is sound because the dataclass is frozen, every copy
        (``replace``, ``with_*``) is a new instance with an empty memo, and
        the memo is not a field, so ``__eq__``, ``__hash__``, ``as_dict``
        and :meth:`canonical_dict` never see it.
        """
        canonical = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- Presets ------------------------------------------------------------
    @classmethod
    def paper(cls) -> "SimulationParameters":
        """The exact Table I configuration (huge; slow in pure Python)."""
        return cls(topology=DragonflyConfig.paper())

    @classmethod
    def small(cls, topology: "TopologyConfig | None" = None) -> "SimulationParameters":
        """Scaled-down configuration preserving the Table I proportions.

        Link latencies and buffer depths are scaled by roughly the same
        factor so that the buffer-size/RTT relationship (which drives the
        credit-uncertainty effects in Section II) is preserved.  Pass a
        ``topology`` config to keep these microarchitectural settings on a
        different topology (e.g. ``FlattenedButterflyConfig.small()``).
        """
        return cls(
            topology=topology if topology is not None else DragonflyConfig.small(),
            local_link_latency=4,
            global_link_latency=16,
            packet_size_phits=4,
            output_buffer_phits=16,
            local_input_buffer_phits=16,
            global_input_buffer_phits=64,
            base_contention_threshold=4,
            hybrid_contention_threshold=5,
            ectn_local_contention_threshold=4,
            ectn_combined_threshold=6,
            ectn_update_period=50,
        )

    @classmethod
    def transient(cls) -> "SimulationParameters":
        """Preset for the transient experiments (Figs. 7-9).

        The paper's fast-adaptation effect relies on *source-side* contention:
        with ``p`` injection ports per router, an adversarial load ``rho``
        stresses the local link towards the group's gateway router whenever
        ``p * rho > 1``.  The Table I router has ``p = 8`` so the 20 % load of
        the transient experiments saturates that link; the two injection ports
        of the :meth:`small` preset cannot.  This preset therefore uses a
        larger balanced Dragonfly (p=4, a=8, h=4; 1,056 nodes) with the
        scaled-down latencies and buffers of :meth:`small`, driven at ~30 %
        load by the transient experiment scale, together with the paper's
        ``th = 6`` threshold.  It is noticeably slower to simulate than the
        small preset and is used only by the transient harnesses (Figs. 7-9).
        """
        return cls(
            topology=DragonflyConfig(p=4, a=8, h=4),
            local_link_latency=4,
            global_link_latency=16,
            packet_size_phits=4,
            output_buffer_phits=16,
            local_input_buffer_phits=16,
            global_input_buffer_phits=64,
            base_contention_threshold=6,
            hybrid_contention_threshold=7,
            ectn_local_contention_threshold=6,
            ectn_combined_threshold=10,
            ectn_update_period=50,
        )

    @classmethod
    def tiny(cls, topology: "TopologyConfig | None" = None) -> "SimulationParameters":
        """Smallest useful configuration for unit tests.

        Pass a ``topology`` config to keep the tiny latencies/buffers on a
        different topology (used by the cross-topology scales and goldens).
        """
        return cls(
            topology=topology if topology is not None else DragonflyConfig.tiny(),
            local_link_latency=2,
            global_link_latency=6,
            packet_size_phits=2,
            output_buffer_phits=8,
            local_input_buffer_phits=8,
            global_input_buffer_phits=16,
            base_contention_threshold=3,
            hybrid_contention_threshold=3,
            ectn_local_contention_threshold=3,
            ectn_combined_threshold=4,
            ectn_update_period=20,
        )


def validate_parameters(params: SimulationParameters) -> None:
    """Raise ``ValueError`` if a parameter combination is inconsistent."""
    if params.packet_size_phits < 1:
        raise ValueError("packet_size_phits must be >= 1")
    if params.router_latency < 0:
        raise ValueError("router_latency must be >= 0")
    if params.internal_speedup < 1:
        raise ValueError("internal_speedup must be >= 1")
    if params.local_link_latency < 1 or params.global_link_latency < 1:
        raise ValueError("link latencies must be >= 1 cycle")
    for name in (
        "output_buffer_phits",
        "local_input_buffer_phits",
        "global_input_buffer_phits",
    ):
        if getattr(params, name) < params.packet_size_phits:
            raise ValueError(
                f"{name}={getattr(params, name)} cannot hold a single "
                f"{params.packet_size_phits}-phit packet (virtual cut-through "
                "requires room for at least one full packet)"
            )
    for name in ("global_port_vcs", "local_port_vcs", "injection_vcs"):
        if getattr(params, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if params.local_port_vcs_oblivious < params.local_port_vcs:
        raise ValueError(
            "local_port_vcs_oblivious must be >= local_port_vcs (VAL/PB need "
            "at least as many VCs as the adaptive mechanisms)"
        )
    if not (0.0 < params.olm_congestion_threshold <= 1.0):
        raise ValueError("olm_congestion_threshold must be in (0, 1]")
    if not (0.0 < params.hybrid_congestion_threshold <= 1.0):
        raise ValueError("hybrid_congestion_threshold must be in (0, 1]")
    if not (0.0 < params.pb_saturation_fraction <= 1.0):
        raise ValueError("pb_saturation_fraction must be in (0, 1]")
    for name in (
        "base_contention_threshold",
        "hybrid_contention_threshold",
        "ectn_local_contention_threshold",
        "ectn_combined_threshold",
    ):
        if getattr(params, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if params.ectn_update_period < 1:
        raise ValueError("ectn_update_period must be >= 1")
    if params.backend not in VALID_BACKENDS:
        raise ValueError(
            f"backend={params.backend!r} is not one of {sorted(VALID_BACKENDS)}"
        )


#: The exact Table I configuration.
PAPER_PARAMETERS: SimulationParameters = SimulationParameters.paper()

#: A scaled-down configuration used by the example scripts and benchmarks.
SMALL_PARAMETERS: SimulationParameters = SimulationParameters.small()

#: The smallest configuration, used by unit tests.
TINY_PARAMETERS: SimulationParameters = SimulationParameters.tiny()
