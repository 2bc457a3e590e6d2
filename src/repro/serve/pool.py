"""Tier 3 of the spectrum service: warm tables in front of PLINGER.

A request that misses the store is one
:func:`~repro.plinger.driver.run_plinger` call on the ``inprocess``
backend (master in the calling thread, ``nproc - 1`` worker threads,
the unmodified wire protocol), so the output is
bit-identical to a batch PLINGER run — and therefore to serial LINGER —
by construction.  What :class:`WarmPool` adds is the one thing worth
keeping between requests: an LRU of each recent cosmology's built
``(Background, ThermalHistory)``, handed to the workers by reference.
A repeat-cosmology request skips the ~20 ms table build, which is most
of the non-ODE cost of a small run; spawning the threads is not
(EXPERIMENTS.md TAB-POOL), so nothing else is resident.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

from ..background import Background
from ..cache import PrecomputeCache
from ..errors import ServeError
from ..linger.kgrid import KGrid
from ..linger.serial import LingerConfig, LingerResult, build_tables
from ..params import CosmologyParams
from ..plinger.driver import run_plinger
from ..resilience import FaultTolerance
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory

__all__ = ["WarmPool", "PoolStats"]


@dataclass
class PoolStats:
    """Cumulative pool accounting (one service lifetime)."""

    runs: int = 0
    warm_runs: int = 0
    cold_builds: int = 0
    resident_evictions: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class WarmPool:
    """PLINGER runs over an LRU of built per-cosmology tables.

    Parameters
    ----------
    nproc:
        Rank count per run: 1 master (the calling thread) plus
        ``nproc - 1`` worker threads.
    cache:
        Optional :class:`~repro.cache.PrecomputeCache`; when given,
        cold table builds go build-or-load through the content-
        addressed store, so even a *cold* cosmology can skip the solve.
    fault_tolerance:
        The per-run :class:`~repro.resilience.FaultTolerance` policy.
    max_resident:
        How many cosmologies stay warm at once (LRU beyond that).
    """

    def __init__(self, nproc: int = 4,
                 cache: PrecomputeCache | None = None,
                 fault_tolerance: FaultTolerance = FaultTolerance(),
                 max_resident: int = 8) -> None:
        if nproc < 2:
            raise ServeError("WarmPool needs at least 1 worker (nproc >= 2)")
        if max_resident < 1:
            raise ServeError("max_resident must be >= 1")
        self.nproc = int(nproc)
        self.cache = cache
        self.fault_tolerance = fault_tolerance
        self.max_resident = int(max_resident)
        self.stats = PoolStats()
        #: tables digest -> (background, thermo), least recent first
        self._resident: OrderedDict[
            str, tuple[Background, ThermalHistory]] = OrderedDict()
        # one grid in flight; also guards the LRU and the stats
        self._lock = threading.Lock()
        self._closed = False

    def _tables(self, params: CosmologyParams, telemetry: Telemetry,
                ) -> tuple[tuple[Background, ThermalHistory], bool]:
        """``((background, thermo), was_warm)`` for ``params``, building
        and evicting as the LRU requires (caller holds the lock)."""
        digest = params.digest("serve_tables")  # k-grid independent
        tables = self._resident.get(digest)
        if tables is not None:
            self._resident.move_to_end(digest)
            return tables, True
        tables = build_tables(params, cache=self.cache, telemetry=telemetry)
        self._resident[digest] = tables
        self.stats.cold_builds += 1
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)
            self.stats.resident_evictions += 1
        return tables, False

    def run(self, params: CosmologyParams, kgrid: KGrid,
            config: LingerConfig | None = None,
            telemetry: Telemetry = NULL_TELEMETRY,
            ) -> tuple[LingerResult, bool]:
        """Serve one full grid.

        Returns ``(result, was_warm)`` where ``was_warm`` says the
        cosmology's tables were already resident.  Runs are serialized
        on the pool (one grid in flight; concurrency above this lives
        in the daemon's coalescing layer).
        """
        config = config or LingerConfig(record_sources=False,
                                        keep_mode_results=False)
        if config.keep_mode_results or config.record_sources:
            raise ServeError("the warm pool serves wire records only "
                             "(no source recording)")
        with self._lock:
            if self._closed:
                raise ServeError("WarmPool is closed")
            (background, thermo), was_warm = self._tables(params,
                                                          telemetry)
            result, _stats = run_plinger(
                params, kgrid, config, nproc=self.nproc,
                backend="inprocess", background=background, thermo=thermo,
                telemetry=telemetry, fault_tolerance=self.fault_tolerance,
            )
            self.stats.runs += 1
            self.stats.warm_runs += was_warm
        return result, was_warm

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def close(self) -> None:
        """Drop the resident tables and refuse further runs (waits for
        a run in flight).  Idempotent."""
        with self._lock:
            self._closed = True
            self._resident.clear()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
