"""Struct-of-arrays simulation backend (``backend="soa"``).

See :mod:`repro.simulation.soa.engine` for the determinism contract,
:mod:`repro.simulation.soa.state` for the array layout and
:mod:`repro.simulation.soa._loader` for how the compiled hop chain
(``_core.c``) is built on first use.
"""

from repro.simulation.soa._loader import CoreUnavailable, load_core
from repro.simulation.soa.engine import SoAEngine
from repro.simulation.soa.state import RouterView, SoAState

__all__ = ["SoAEngine", "SoAState", "RouterView", "CoreUnavailable", "load_core"]
