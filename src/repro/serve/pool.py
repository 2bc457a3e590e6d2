"""Tier 3 of the spectrum service: warm tables and resident threads.

A request that misses the store is one
:func:`~repro.linger.serial.run_linger` call on the calling thread (the
daemon's compute thread) plus ``nproc - 2`` threads the pool keeps, so
the records are serial LINGER's bit for bit.  No message is sent and,
after the first run, no thread is started.  The other thing
:class:`WarmPool` keeps between requests is an LRU of recent
cosmologies' built ``(Background, ThermalHistory)``: a repeat
cosmology skips the ~4.5 ms table build (EXPERIMENTS.md TAB-POOL).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from ..background import Background
from ..errors import ServeError
from ..linger.kgrid import KGrid
from ..linger.serial import (LingerConfig, LingerResult, build_tables,
                             run_linger)
from ..params import CosmologyParams
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
    """Grid runs on resident threads over an LRU of built tables.

    Parameters
    ----------
    nproc:
        ``nproc - 1`` modes at once: the calling thread plus
        ``nproc - 2`` resident threads, started on first use.
    max_resident:
        How many cosmologies stay warm at once (LRU beyond that).
    """

    def __init__(self, nproc: int = 4, max_resident: int = 8) -> None:
        if nproc < 2:
            raise ServeError("WarmPool needs at least 1 worker (nproc >= 2)")
        if max_resident < 1:
            raise ServeError("max_resident must be >= 1")
        self.nproc = int(nproc)
        self.max_resident = int(max_resident)
        self._helpers = (ThreadPoolExecutor(self.nproc - 2, "serve-mode")
                         if self.nproc > 2 else None)
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
        tables = build_tables(params, telemetry=telemetry)
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
            result = run_linger(params, kgrid, config,
                                background=background, thermo=thermo,
                                telemetry=telemetry, executor=self._helpers)
            self.stats.runs += 1
            self.stats.warm_runs += was_warm
        return result, was_warm

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def close(self) -> None:
        """Drop the resident tables, stop the resident threads and
        refuse further runs (waits for a run in flight).  Idempotent."""
        with self._lock:
            self._closed = True
            self._resident.clear()
            if self._helpers is not None:
                self._helpers.shutdown(wait=True)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
