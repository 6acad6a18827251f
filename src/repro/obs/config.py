"""Observation configuration and the deterministic packet sampler.

The flight-recorder sample is selected by hashing the packet id with a
Knuth multiplicative hash — **not** by drawing from an RNG stream.  The
number and order of RNG draws is part of the simulator's determinism
contract (see ``docs/architecture.md``), so a sampling decision that
consumed a draw would perturb every subsequent routing choice and break
the goldens.  The hash gives a well-mixed, reproducible subset that is
identical across backends and across runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["ObservationConfig", "pid_sampled"]

#: Knuth's multiplicative hash constant (2**32 / golden ratio, odd).
_HASH_MULT = 0x9E3779B1
_HASH_MASK = 0xFFFFFFFF

def pid_sampled(pid: int, threshold: int) -> bool:
    """Deterministic, RNG-free sampling decision for packet ``pid``.

    ``threshold`` is a 32-bit cut-off (see
    :meth:`ObservationConfig.sample_threshold`); a packet is sampled when
    its hashed id falls below it, so a rate of 1.0 samples everything and
    0.0 nothing.
    """
    return ((pid * _HASH_MULT) & _HASH_MASK) < threshold


@dataclass(frozen=True)
class ObservationConfig:
    """What the :class:`~repro.obs.hub.ObservationHub` records.

    The default configuration records everything except periodic snapshots
    (``snapshot_period=0`` disables them); ``from_env`` builds one from the
    ``REPRO_OBS`` environment variable so CI lanes can enable probes
    without touching call sites (mirroring ``REPRO_BACKEND``).
    """

    #: Fraction of packet ids recorded by the flight recorder (0.0 .. 1.0).
    flight_sample_rate: float = 1.0
    #: Cycles between occupancy snapshots; 0 disables periodic snapshots.
    snapshot_period: int = 0
    #: Hard cap on recorded events; beyond it events are counted as dropped
    #: in the ``perf`` block instead of silently growing without bound.
    max_events: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.flight_sample_rate <= 1.0:
            raise ValueError(
                f"flight_sample_rate must be in [0, 1], got {self.flight_sample_rate}"
            )
        if self.snapshot_period < 0:
            raise ValueError("snapshot_period must be >= 0")
        if self.max_events < 0:
            raise ValueError("max_events must be >= 0")

    def sample_threshold(self) -> int:
        """32-bit cut-off for :func:`pid_sampled` at this sample rate."""
        if self.flight_sample_rate >= 1.0:
            return _HASH_MASK + 1
        return int(self.flight_sample_rate * (_HASH_MASK + 1))

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> Optional["ObservationConfig"]:
        """Build a config from ``REPRO_OBS``, or ``None`` when unset.

        ``REPRO_OBS=1`` enables the defaults; a comma-separated key=value
        list tunes them, e.g. ``REPRO_OBS=sample=0.25,snapshot=100``.
        Recognized keys: ``sample`` (flight sample rate), ``snapshot``
        (snapshot period in cycles), ``max_events``.
        """
        if environ is None:
            environ = os.environ
        raw = environ.get("REPRO_OBS", "").strip()
        if raw in ("", "0"):
            return None
        kwargs = {}
        if raw != "1":
            for item in raw.split(","):
                item = item.strip()
                if not item:
                    continue
                if "=" not in item:
                    raise ValueError(
                        f"REPRO_OBS entries must be key=value (or the whole "
                        f"variable '1'), got {item!r}"
                    )
                key, value = item.split("=", 1)
                key = key.strip()
                value = value.strip()
                if key == "sample":
                    kwargs["flight_sample_rate"] = float(value)
                elif key == "snapshot":
                    kwargs["snapshot_period"] = int(value)
                elif key == "max_events":
                    kwargs["max_events"] = int(value)
                else:
                    raise ValueError(f"unknown REPRO_OBS key {key!r}")
        return cls(**kwargs)
