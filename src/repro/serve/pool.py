"""Tier 3 of the spectrum service: warm tables and resident threads.

A request that misses the store runs its wavenumbers on the calling
thread (the daemon's compute thread) and ``nproc - 2`` threads the pool
keeps; all take indices from one dispatch-order iterator (largest k
first), one :func:`~repro.linger.serial.compute_mode` call each — the
unit of work of :func:`~repro.linger.serial.run_linger`, ladder
included — so the records are serial LINGER's bit for bit.  No message
is sent and, after the first run, no thread is started.  The other
thing :class:`WarmPool` keeps between requests is an LRU of recent
cosmologies' built ``(Background, ThermalHistory)``: a repeat
cosmology skips the ~4.5 ms table build (EXPERIMENTS.md TAB-POOL).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from ..background import Background
from ..errors import ServeError
from ..linger.kgrid import KGrid
from ..linger.serial import (LingerConfig, LingerResult, build_tables,
                             compute_mode)
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
        self._helpers = ThreadPoolExecutor(max(self.nproc - 2, 1),
                                           "serve-mode")
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
            wall0 = time.perf_counter()
            headers, payloads = self._modes(background, thermo, kgrid,
                                            config, telemetry)
            result = LingerResult(
                params=params, kgrid=kgrid, config=config,
                headers=headers, payloads=payloads,
                modes=[None] * kgrid.nk, background=background,
                thermo=thermo, wall_seconds=time.perf_counter() - wall0)
            self.stats.runs += 1
            self.stats.warm_runs += was_warm
        return result, was_warm

    def _modes(self, background, thermo, kgrid, config, telemetry):
        """Headers and payloads in ascending k.  A failed mode stops
        the hand-out; its error is raised once every thread has
        stopped.  Helpers record into collectors of their own, merged
        after (``compute_mode`` patches its collector's last mode)."""
        headers, payloads = [None] * kgrid.nk, [None] * kgrid.nk
        order = iter(kgrid.dispatch_order.tolist())
        take = threading.Lock()
        failed: list[BaseException] = []

        def sweep(tel: Telemetry) -> Telemetry:
            try:
                while not failed:
                    with take:
                        idx = next(order, None)
                    if idx is None:
                        break
                    headers[idx], payloads[idx], _ = compute_mode(
                        background, thermo, kgrid.k[idx], idx + 1, config,
                        telemetry=tel)
            except BaseException as exc:
                failed.append(exc)
            return tel

        helpers = [self._helpers.submit(
            sweep, Telemetry() if telemetry.enabled else NULL_TELEMETRY)
            for _ in range(min(self.nproc - 2, kgrid.nk - 1))]
        sweep(telemetry)
        for helper in helpers:
            tel = helper.result()
            if tel.enabled:
                telemetry.merge(tel.to_dict())
        if failed:
            raise failed[0]
        return headers, payloads

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def close(self) -> None:
        """Drop the resident tables, stop the resident threads and
        refuse further runs (waits for a run in flight).  Idempotent."""
        with self._lock:
            self._closed = True
            self._resident.clear()
            self._helpers.shutdown(wait=True)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
