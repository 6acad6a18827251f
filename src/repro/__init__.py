"""repro: contention-based nonminimal adaptive routing in high-radix networks.

A cycle-level network simulator and routing library reproducing
*"Contention-based Nonminimal Adaptive Routing in High-radix Networks"*
(Fuentes et al., IPDPS 2015).  The package provides:

* :mod:`repro.config` — the Table I parameter sets and scaled-down presets;
* :mod:`repro.topology` — the canonical Dragonfly plus a 2-D flattened
  butterfly, a full mesh, and a k-ary n-cube torus with dateline virtual
  channels, behind a name-keyed registry;
* :mod:`repro.network` — the input/output-buffered VCT router model;
* :mod:`repro.routing` — MIN, VAL, UGAL, PB and OLM baselines plus the
  paper's contention-counter mechanisms (Base, Hybrid, ECtN);
* :mod:`repro.traffic` — uniform, adversarial (region-based), mixed and
  transient traffic;
* :mod:`repro.draws` — the one bounded integer draw every randomized
  decision makes;
* :mod:`repro.simulation` — the cycle engine and the steady-state/transient
  measurement protocols;
* :mod:`repro.metrics` — latency/throughput/misrouting statistics;
* :mod:`repro.experiments` — harnesses regenerating every figure of the
  paper's evaluation, plus the cross-topology sweep.

Quick start::

    from repro import Simulator, SimulationParameters

    params = SimulationParameters.small()
    sim = Simulator(params, routing="Base", pattern="ADV+1", offered_load=0.2)
    result = sim.run_steady_state(warmup_cycles=1000, measure_cycles=2000)
    print(result.mean_latency, result.accepted_load)

or, on a different topology::

    from repro import SimulationParameters, Simulator, topology_preset

    params = SimulationParameters.tiny(topology_preset("flattened_butterfly"))
    sim = Simulator(params, routing="UGAL", pattern="ADV+1", offered_load=0.2)
"""

from repro.config import (
    PAPER_PARAMETERS,
    SMALL_PARAMETERS,
    TINY_PARAMETERS,
    DragonflyConfig,
    FlattenedButterflyConfig,
    FullMeshConfig,
    SimulationParameters,
    TopologyConfig,
    TorusConfig,
)
from repro.routing import UnsupportedTopologyError, available_routings, create_routing
from repro.simulation import Simulator, SteadyStateResult, TransientResult
from repro.topology import (
    DegradedLink,
    DragonflyTopology,
    FaultModel,
    FaultSchedule,
    FlattenedButterflyTopology,
    FullMeshTopology,
    NetworkPartitionError,
    Topology,
    TorusTopology,
    available_topologies,
    create_topology,
    topology_preset,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "TopologyConfig",
    "DragonflyConfig",
    "FlattenedButterflyConfig",
    "FullMeshConfig",
    "TorusConfig",
    "SimulationParameters",
    "PAPER_PARAMETERS",
    "SMALL_PARAMETERS",
    "TINY_PARAMETERS",
    "Topology",
    "DragonflyTopology",
    "FlattenedButterflyTopology",
    "FullMeshTopology",
    "TorusTopology",
    "available_topologies",
    "create_topology",
    "topology_preset",
    "Simulator",
    "SteadyStateResult",
    "TransientResult",
    "available_routings",
    "create_routing",
    "UnsupportedTopologyError",
    "FaultModel",
    "FaultSchedule",
    "DegradedLink",
    "NetworkPartitionError",
]
