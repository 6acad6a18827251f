"""Parallel execution of independent simulation points.

Every figure of the paper is a sweep over independent (routing, pattern,
load, seed) simulation points, which makes the campaigns embarrassingly
parallel.  :class:`ParallelSweepExecutor` fans a list of point
specifications out over a ``multiprocessing`` pool and returns the results
in the exact submission order, so a parallel sweep aggregates to
byte-identical rows as the serial path: each point builds its own
:class:`~repro.simulation.simulator.Simulator` from its own seed, exactly as
the serial loop does.

The executor is used by :func:`repro.experiments.sweep.load_sweep`,
:func:`repro.experiments.sweep.steady_state_point`, the transient runner and
the figure harnesses through their ``workers`` parameter, and by
:func:`repro.experiments.threshold_analysis.measured_average_counter` for
its per-seed counter sampling.

Point specifications must be picklable: routings and patterns travel as
names, and per-topology patterns travel as picklable factory objects (see
``MixedPatternFactory`` in :mod:`repro.experiments.figure6`).
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.config.parameters import SimulationParameters
from repro.simulation.results import SteadyStateResult, TransientResult
from repro.simulation.simulator import Simulator
from repro.topology.faults import FaultModel

__all__ = [
    "SteadyPointSpec",
    "TransientPointSpec",
    "ParallelSweepExecutor",
    "PointFailure",
    "SweepPointError",
    "resolve_executor",
    "run_steady_point",
    "run_transient_point_spec",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


class SteadyPointSpec(NamedTuple):
    """One steady-state simulation point (picklable)."""

    params: SimulationParameters
    routing: str
    pattern: Optional[str]
    offered_load: float
    warmup_cycles: int
    measure_cycles: int
    seed: int
    pattern_factory: Optional[Callable] = None
    #: Link-fault model for the point (``None`` = healthy network); appended
    #: with a default so pre-fault specs keep their tuple shape.
    fault_model: Optional[FaultModel] = None


class TransientPointSpec(NamedTuple):
    """One transient simulation point (picklable)."""

    params: SimulationParameters
    routing: str
    before: str
    after: str
    offered_load: float
    warmup_cycles: int
    observe_before: int
    observe_after: int
    bin_size: int
    seed: int


class SweepPointError(RuntimeError):
    """A simulation point failed; carries the point's spec for diagnosis.

    Raised by the point runners so an exception that escapes a worker
    process always identifies the failing (routing, pattern, load, seed)
    combination — without it, a crash deep inside a 500-point sweep names
    only a line of simulator code.  ``args`` holds ``(message, spec)`` so
    the exception pickles across the pool boundary intact.
    """

    def __init__(self, message: str, spec: Any = None):
        super().__init__(message, spec)
        self.spec = spec

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


def _describe_spec(spec: Any) -> str:
    """Compact human-readable identity of a point spec."""
    if isinstance(spec, SteadyPointSpec):
        return (
            f"routing={spec.routing} pattern={spec.pattern} "
            f"load={spec.offered_load} seed={spec.seed}"
            + (" faults=yes" if spec.fault_model is not None else "")
        )
    if isinstance(spec, TransientPointSpec):
        return (
            f"routing={spec.routing} {spec.before}->{spec.after} "
            f"load={spec.offered_load} seed={spec.seed}"
        )
    return repr(spec)


def run_steady_point(spec: SteadyPointSpec) -> SteadyStateResult:
    """Run one steady-state point (module-level, so pool workers can pickle it)."""
    try:
        sim = Simulator(
            spec.params,
            spec.routing,
            pattern=spec.pattern,
            offered_load=spec.offered_load,
            seed=spec.seed,
            pattern_factory=spec.pattern_factory,
            fault_model=spec.fault_model,
        )
        return sim.run_steady_state(spec.warmup_cycles, spec.measure_cycles)
    except Exception as exc:
        raise SweepPointError(
            f"steady point ({_describe_spec(spec)}) failed: {exc!r}", spec
        ) from exc


def run_transient_point_spec(spec: TransientPointSpec) -> TransientResult:
    """Run one transient point (module-level, so pool workers can pickle it)."""
    try:
        sim = Simulator.build_transient(
            spec.params,
            spec.routing,
            before=spec.before,
            after=spec.after,
            offered_load=spec.offered_load,
            switch_cycle=spec.warmup_cycles,
            seed=spec.seed,
        )
        return sim.run_transient(
            warmup_cycles=spec.warmup_cycles,
            observe_before=spec.observe_before,
            observe_after=spec.observe_after,
            bin_size=spec.bin_size,
        )
    except Exception as exc:
        raise SweepPointError(
            f"transient point ({_describe_spec(spec)}) failed: {exc!r}", spec
        ) from exc


@dataclass(frozen=True)
class PointFailure:
    """Typed failure of one sweep point (returned by ``map_robust``).

    ``kind`` is ``"error"`` for an exception raised inside the worker and
    ``"timeout"`` for a point that exceeded the per-point timeout — which
    also covers a worker process that died outright, since a crashed
    worker's task never produces a result.
    """

    spec: Any
    error: str
    kind: str = "error"
    attempts: int = 1
    #: The original exception object, when it happened in-process or
    #: round-tripped the pool boundary (``None`` for timeouts).
    exception: Optional[BaseException] = field(default=None, compare=False)


class ParallelSweepExecutor:
    """Maps point specs over a process pool with deterministic ordering.

    ``workers=None`` resolves to ``os.cpu_count()``; ``workers<=1`` (or a
    single item) runs serially in-process, which keeps tiny sweeps free of
    pool start-up cost and makes the executor safe to use unconditionally.
    Results always come back in submission order (``Pool.map`` semantics),
    so aggregation downstream is independent of worker scheduling.

    The pool is created lazily on the first parallel ``map`` and retained,
    so passing one executor (``executor=``) through several sweeps reuses
    the worker processes.  Call :meth:`close` (or use the executor as a
    context manager) when done; sweeps that create an executor internally
    close it themselves.
    """

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.workers)
        return self._pool

    def map(self, func: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Apply ``func`` to every item, preserving input order."""
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [func(item) for item in items]
        return self._ensure_pool().map(func, items)

    def map_robust(
        self,
        func: Callable[[_T], _R],
        items: Sequence[_T],
        *,
        timeout: Optional[float] = None,
        retries: int = 1,
    ) -> List[Union[_R, "PointFailure"]]:
        """``map`` that isolates failures instead of aborting the sweep.

        Every item yields either ``func(item)`` or a :class:`PointFailure`,
        in input order — one crashed, hung or raising point never costs the
        results of the others.

        * A worker exception charges one attempt; the item is resubmitted
          with the *same* spec up to ``retries`` extra times, then reported
          as ``PointFailure(kind="error")``.
        * ``timeout`` (seconds per point) bounds each result collection.  A
          timed-out point charges an attempt and the pool is torn down and
          recreated — a hung worker cannot be recovered, and a worker that
          died outright (its task would never complete) surfaces the same
          way.  Points that were merely queued behind the teardown are
          resubmitted without charging their attempts.
        * Without a ``timeout`` a hung or crashed worker blocks forever:
          pass one whenever the point function is not trusted to return.
        """
        items = list(items)
        n = len(items)
        results: List[Any] = [None] * n
        if self.workers <= 1 or n <= 1:
            for i, item in enumerate(items):
                results[i] = self._run_serial(func, item, retries)
            return results
        attempts = [0] * n
        pending = list(range(n))
        while pending:
            pool = self._ensure_pool()
            handles = [(i, pool.apply_async(func, (items[i],))) for i in pending]
            pending = []
            for pos, (i, handle) in enumerate(handles):
                try:
                    results[i] = handle.get(timeout)
                except multiprocessing.TimeoutError:
                    attempts[i] += 1
                    if attempts[i] <= retries:
                        pending.append(i)
                    else:
                        results[i] = PointFailure(
                            spec=items[i],
                            error=(
                                f"no result within {timeout}s "
                                "(hung point or dead worker)"
                            ),
                            kind="timeout",
                            attempts=attempts[i],
                        )
                    # The stuck worker poisons the whole pool: replace it and
                    # resubmit every uncollected item (collateral resubmits
                    # do not charge attempts).
                    self.close()
                    pending.extend(j for j, _ in handles[pos + 1 :])
                    break
                except Exception as exc:
                    attempts[i] += 1
                    if attempts[i] <= retries:
                        pending.append(i)
                    else:
                        results[i] = PointFailure(
                            spec=getattr(exc, "spec", None) or items[i],
                            error=str(exc) or repr(exc),
                            kind="error",
                            attempts=attempts[i],
                            exception=exc,
                        )
        return results

    @staticmethod
    def _run_serial(func: Callable[[_T], _R], item: _T, retries: int):
        attempt = 0
        while True:
            attempt += 1
            try:
                return func(item)
            except Exception as exc:
                if attempt > retries:
                    return PointFailure(
                        spec=getattr(exc, "spec", None) or item,
                        error=str(exc) or repr(exc),
                        kind="error",
                        attempts=attempt,
                        exception=exc,
                    )

    def close(self) -> None:
        """Shut the worker pool down (no-op if none was ever started)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelSweepExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelSweepExecutor(workers={self.workers})"


@contextmanager
def resolve_executor(
    workers: Optional[int], executor: Optional[ParallelSweepExecutor]
) -> Iterator[ParallelSweepExecutor]:
    """Yield ``executor`` if given, else a temporary one closed on exit.

    A caller-provided executor is *borrowed* (its pool survives for further
    sweeps); an internally-created one is owned and its pool is shut down
    when the sweep finishes.
    """
    if executor is not None:
        yield executor
        return
    owned = ParallelSweepExecutor(workers=workers if workers is not None else 1)
    try:
        yield owned
    finally:
        owned.close()
