"""Experiment scales.

The paper's experiments run a 16,512-node Dragonfly for tens of thousands of
cycles per point, averaged over 10 seeds — far beyond what a pure-Python
cycle-level simulation can do in an interactive setting.  An
:class:`ExperimentScale` bundles a topology/parameter preset with warm-up and
measurement lengths, seeds, and load grids, so that every figure harness can
be run at three fidelities:

``TINY_SCALE``
    Smallest meaningful runs; used by the test suite (seconds per point).
``SMALL_SCALE``
    The default for the example scripts; preserves the qualitative shapes of
    the paper's figures (tens of seconds per figure).
``PAPER_SCALE``
    The Table I configuration with the paper's cycle counts and 10 seeds.
    Provided for completeness; running it in pure Python takes a long time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.config.parameters import SimulationParameters
from repro.topology.registry import topology_preset

__all__ = [
    "ExperimentScale",
    "TINY_SCALE",
    "SMALL_SCALE",
    "TRANSIENT_SCALE",
    "PAPER_SCALE",
    "get_scale",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing of an experiment campaign."""

    name: str
    params: SimulationParameters
    warmup_cycles: int
    measure_cycles: int
    seeds: Tuple[int, ...]
    #: Offered loads for uniform-traffic sweeps (phits/node/cycle).
    un_loads: Tuple[float, ...]
    #: Offered loads for adversarial-traffic sweeps.
    adv_loads: Tuple[float, ...]
    #: Load used by the transient and oscillation experiments (paper: 0.2).
    transient_load: float = 0.2
    #: Observation window around the traffic change (cycles).
    transient_observe_before: int = 100
    transient_observe_after: int = 400
    transient_bin: int = 10
    #: Load used by the mixed-traffic experiment (paper: 0.35).
    mixed_load: float = 0.35

    def with_params(self, params: SimulationParameters) -> "ExperimentScale":
        return replace(self, params=params)

    def with_topology(self, topology: str) -> "ExperimentScale":
        """This scale on a different registered topology.

        The topology's preset matching the scale's *base* name is used
        (``tiny``-derived scales use the topology's ``tiny`` preset,
        everything else the ``small`` preset), keeping the scale's
        latencies, buffers and cycle counts so cross-topology comparisons
        hold everything else fixed.  A scale already on the requested
        topology — including the configured Dragonfly of an un-rebased
        scale — is returned unchanged, so a caller's explicit topology
        sizing is never silently replaced by a preset.
        """
        topology = topology.lower()
        if self.params.topology.kind == topology:
            return self
        base_name = self.name.split("/", 1)[0]
        preset = "tiny" if base_name == "tiny" else "small"
        config = topology_preset(topology, preset)
        return replace(
            self,
            name=f"{base_name}/{topology}",
            params=self.params.with_topology(config),
        )


TINY_SCALE = ExperimentScale(
    name="tiny",
    params=SimulationParameters.tiny(),
    warmup_cycles=300,
    measure_cycles=500,
    seeds=(1,),
    un_loads=(0.1, 0.4, 0.7),
    adv_loads=(0.1, 0.3, 0.5),
    transient_load=0.2,
    transient_observe_before=60,
    transient_observe_after=240,
    transient_bin=20,
)

SMALL_SCALE = ExperimentScale(
    name="small",
    params=SimulationParameters.small(),
    warmup_cycles=1_000,
    measure_cycles=2_000,
    seeds=(1, 2),
    un_loads=(0.05, 0.2, 0.4, 0.6, 0.8),
    adv_loads=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    transient_load=0.2,
    transient_observe_before=100,
    transient_observe_after=500,
    transient_bin=10,
)

#: Scale for the transient experiments (Figs. 7-9): the topology keeps the
#: paper's eight injection ports per router so that the 20 % adversarial load
#: stresses the source routers (see ``SimulationParameters.transient``).
TRANSIENT_SCALE = ExperimentScale(
    name="transient",
    params=SimulationParameters.transient(),
    warmup_cycles=300,
    measure_cycles=800,
    seeds=(1,),
    un_loads=(0.05, 0.2, 0.4),
    adv_loads=(0.05, 0.1, 0.2, 0.3),
    transient_load=0.3,
    transient_observe_before=40,
    transient_observe_after=240,
    transient_bin=20,
)

PAPER_SCALE = ExperimentScale(
    name="paper",
    params=SimulationParameters.paper(),
    warmup_cycles=10_000,
    measure_cycles=15_000,
    seeds=tuple(range(1, 11)),
    un_loads=tuple(round(0.05 * i, 2) for i in range(1, 20)),
    adv_loads=tuple(round(0.05 * i, 2) for i in range(1, 11)),
    transient_load=0.2,
    transient_observe_before=100,
    transient_observe_after=1600,
    transient_bin=10,
)

_SCALES: Dict[str, ExperimentScale] = {
    "tiny": TINY_SCALE,
    "small": SMALL_SCALE,
    "transient": TRANSIENT_SCALE,
    "paper": PAPER_SCALE,
}


def get_scale(name: str, topology: Optional[str] = None) -> ExperimentScale:
    """Look an experiment scale up by name (``tiny``, ``small``, ``paper``).

    With ``topology`` (a registry name such as ``"flattened_butterfly"``)
    the scale's Dragonfly preset is swapped for that topology's preset of
    matching size; see :meth:`ExperimentScale.with_topology`.
    """
    try:
        scale = _SCALES[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"Unknown scale {name!r}; available: {', '.join(_SCALES)}"
        ) from exc
    if topology is not None:
        scale = scale.with_topology(topology)
    return scale
