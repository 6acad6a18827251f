"""The one bounded draw of a run.

Every uniform integer a simulation draws — an in-transit misroute's pick
among its candidates, a Valiant intermediate, a Bernoulli destination — is
``integers(rng, low, high)``, which returns ``int(rng.integers(low, high))``:
the same value, and the same stream consumed from ``rng``.

Its body is the compiled core's ``integers`` (``simulation/soa/_core.c``, the
function the core's own trigger draws call) when
:func:`~repro.simulation.soa.load_core` succeeds, and :func:`numpy_integers`
otherwise.  The C body transcribes numpy's scalar int64 path of
``Generator.integers`` — Lemire's bounded draw over the bit generator's
``next_uint32``, under the bit generator's lock — for an exact
``numpy.random.Generator``, exact int bounds and a width of at most
``2**32 - 1``, and calls ``rng.integers`` by name for everything else, so
numpy raises or blocks as it always did.

:func:`integers` binds on its first call, so importing this module compiles
nothing.  Call it as ``draws.integers(...)`` (not a ``from`` import), so every
call site sees the bound body.
"""

from __future__ import annotations

__all__ = ["integers", "numpy_integers"]


def numpy_integers(rng, low: int, high: int) -> int:
    """``int(rng.integers(low, high))``: the body where no core compiles."""
    return int(rng.integers(low, high))


def integers(rng, low: int, high: int) -> int:
    """Uniform int in ``[low, high)`` drawn from ``rng``, exactly as
    ``int(rng.integers(low, high))`` draws it."""
    global integers
    from repro.simulation.soa import CoreUnavailable, load_core

    try:
        integers = load_core().integers
    except CoreUnavailable:
        integers = numpy_integers
    return integers(rng, low, high)
