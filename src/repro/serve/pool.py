"""Tier 3 of the spectrum service: warm tables and resident threads.

A request that misses the store is one
:func:`~repro.linger.serial.run_linger` call on the calling thread (the
daemon's compute thread) plus ``nproc - 2`` threads the pool keeps, so
the records are serial LINGER's bit for bit.  No message is sent and,
after the first run, no thread is started.  :class:`WarmPool` keeps an
LRU of recent cosmologies: each one's built ``(Background,
ThermalHistory)`` (a repeat skips the ~4.5 ms table build, TAB-POOL)
and its last grid's records by exact k and config, which a later run
of that cosmology does not integrate again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

from ..background import Background
from ..errors import ServeError
from ..linger.kgrid import KGrid
from ..linger.serial import (LingerConfig, LingerResult, build_tables,
                             run_linger)
from ..params import CosmologyParams
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory

__all__ = ["WarmPool", "PoolStats"]

#: a grid keeps its records only if they fit in this many bytes (a
#: mode: 21 header and 2*lmax+8 payload floats, ~1 KiB of objects), so
#: the pool holds at most ``max_resident`` times this, whatever nk/lmax
RECORDS_MAX_BYTES = 1 << 20


@dataclass
class PoolStats:
    """Cumulative pool accounting (one service lifetime)."""

    runs: int = 0
    warm_runs: int = 0
    cold_builds: int = 0
    resident_evictions: int = 0
    #: wavenumbers answered from a resident cosmology's last grid
    modes_reused: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Resident:
    """One warm cosmology: its tables and the records of its last grid."""

    background: Background
    thermo: ThermalHistory
    config: LingerConfig | None = None
    #: exact k -> (header, payload), as the last grid labelled them;
    #: empty if that grid was over RECORDS_MAX_BYTES
    records: dict = field(default_factory=dict)


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
        #: tables digest -> resident cosmology, least recent first
        self._resident: OrderedDict[str, _Resident] = OrderedDict()
        # one grid in flight; also guards the LRU and the stats
        self._lock = threading.Lock()
        self._closed = False

    def _tables(self, params: CosmologyParams, telemetry: Telemetry,
                ) -> tuple[_Resident, bool]:
        """``(resident, was_warm)`` for ``params``, building and
        evicting as the LRU requires (caller holds the lock)."""
        digest = params.digest("serve_tables")  # k-grid independent
        resident = self._resident.get(digest)
        if resident is not None:
            self._resident.move_to_end(digest)
            return resident, True
        resident = _Resident(*build_tables(params, telemetry=telemetry))
        self._resident[digest] = resident
        self.stats.cold_builds += 1
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)
            self.stats.resident_evictions += 1
        return resident, False

    def run(self, params: CosmologyParams, kgrid: KGrid,
            config: LingerConfig | None = None,
            telemetry: Telemetry = NULL_TELEMETRY,
            ) -> tuple[LingerResult, bool]:
        """Serve one full grid.

        Returns ``(result, was_warm)`` where ``was_warm`` says the
        cosmology's tables were already resident.  Wavenumbers of the
        cosmology's last grid at this ``config`` are not integrated
        again.  Runs are serialized on the pool (one grid in flight;
        concurrency above this lives in the daemon's coalescing layer).
        """
        config = config or LingerConfig(record_sources=False,
                                        keep_mode_results=False)
        if config.keep_mode_results or config.record_sources:
            raise ServeError("the warm pool serves wire records only "
                             "(no source recording)")
        with self._lock:
            if self._closed:
                raise ServeError("WarmPool is closed")
            resident, was_warm = self._tables(params, telemetry)
            records = resident.records if resident.config == config else {}
            position = {k: ik for ik, k in enumerate(kgrid.k.tolist(), 1)}
            new_k = [k for k in position if k not in records]
            wall = 0.0
            if new_k:
                first = len(telemetry.modes)
                sub = (kgrid if len(new_k) == kgrid.nk
                       else KGrid.from_k(new_k))
                run = run_linger(params, sub, config,
                                 background=resident.background,
                                 thermo=resident.thermo, telemetry=telemetry,
                                 executor=self._helpers)
                records.update(zip(new_k, zip(run.headers, run.payloads)))
                for metric in telemetry.modes[first:]:  # sub-grid ik
                    metric.ik = position[new_k[metric.ik - 1]]
                wall = run.wall_seconds
            # ascending k; a reused or sub-grid record takes this grid's ik
            pairs = [records[k] if records[k][0].ik == ik
                     else tuple(replace(r, ik=ik) for r in records[k])
                     for k, ik in position.items()]
            mode_bytes = 8 * (29 + 2 * config.lmax_photon) + 1024
            resident.config = config
            resident.records = (dict(zip(position, pairs)) if kgrid.nk
                                * mode_bytes <= RECORDS_MAX_BYTES else {})
            self.stats.runs += 1
            self.stats.warm_runs += was_warm
            self.stats.modes_reused += kgrid.nk - len(new_k)
        headers, payloads = map(list, zip(*pairs))
        result = LingerResult(params, kgrid, config, headers, payloads,
                              [None] * kgrid.nk, resident.background,
                              resident.thermo, wall_seconds=wall)
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
