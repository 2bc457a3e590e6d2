"""Tier 3 of the spectrum service: the resident warm PLINGER pool.

:func:`~repro.plinger.driver.run_plinger` spins up workers, runs one
grid, and tears everything down — the right shape for one batch job,
the wrong one for a service answering a stream of requests.
:class:`WarmPool` keeps ``nproc - 1`` worker threads *alive between
requests*.  Each request runs the unmodified PLINGER wire protocol
(master in the calling thread, the resident workers as ranks
``1..nproc-1`` over a fresh in-process world), so the output is
bit-identical to a cold ``run_plinger`` — and therefore to serial
LINGER — by construction.

What residency buys:

* **No spawn cost** — threads park on per-rank job queues; a request
  only enqueues.
* **Warm tables** — per cosmology, the pool publishes the background +
  thermal tables once as a shared-memory block
  (:class:`~repro.cache.sharing.SharedTableBlock`) and keeps it mapped.
  Workers attach on first sight of a cosmology and *keep the
  attachment across runs*, so a repeat-cosmology request skips the
  table build, the publish, and the per-worker attach: the dominant
  non-ODE cost of a small run.
* **The PR 8 resilience ladder** — every run executes under a
  :class:`~repro.resilience.FaultTolerance` policy: dead ranks are
  quarantined and their wavenumbers reassigned, failing integrations
  walk the escalation ladder.  A pool worker that dies mid-request is
  routed around (the master finishes on the survivors) and replaced
  before the next run.

Shared-memory blocks are owned by the pool and survive requests; the
:mod:`~repro.serve.lifecycle` registry guarantees they are closed and
unlinked at process exit or SIGTERM (satellite of this PR: no leaked
``/dev/shm`` segments from a killed daemon).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..background import Background
from ..cache import (
    AttachedTables,
    PrecomputeCache,
    manifest_from_reals,
    manifest_to_reals,
)
from ..cache.sharing import SharedTableBlock
from ..errors import (
    CacheError,
    MessagePassingError,
    ProtocolError,
    ServeError,
)
from ..linger.kgrid import KGrid
from ..linger.serial import (
    LingerConfig,
    LingerResult,
    build_tables,
    dispatch_chunks,
)
from ..mp.backends.inprocess import InProcessWorld
from ..params import CosmologyParams
from ..resilience import FaultTolerance
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..thermo import ThermalHistory
from ..plinger.master import master_subroutine
from ..plinger.tags import Tag
from ..plinger.worker import WorkerLog, chunk_compute, worker_subroutine
from . import lifecycle

__all__ = ["WarmPool", "PoolStats"]


@dataclass
class _Resident:
    """One cosmology's warm state: tables published, block mapped."""

    digest: str
    params: CosmologyParams
    background: Background
    thermo: ThermalHistory
    block: SharedTableBlock
    manifest_reals: np.ndarray
    uses: int = 0


@dataclass
class _Job:
    """One request's assignment for one worker rank."""

    world: InProcessWorld
    rank: int
    resident: _Resident
    kgrid: KGrid
    config: LingerConfig
    live_digests: frozenset
    done: threading.Event = field(default_factory=threading.Event)


@dataclass
class PoolStats:
    """Cumulative pool accounting (one service lifetime)."""

    runs: int = 0
    warm_runs: int = 0
    cold_builds: int = 0
    table_attaches: int = 0
    warm_table_hits: int = 0
    resident_evictions: int = 0
    workers_replaced: int = 0

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "warm_runs": self.warm_runs,
            "cold_builds": self.cold_builds,
            "table_attaches": self.table_attaches,
            "warm_table_hits": self.warm_table_hits,
            "resident_evictions": self.resident_evictions,
            "workers_replaced": self.workers_replaced,
        }


class WarmPool:
    """Resident PLINGER workers serving repeated spectrum requests.

    Parameters
    ----------
    nproc:
        Rank count per run: 1 master (the calling thread) plus
        ``nproc - 1`` resident workers.
    cache:
        Optional :class:`~repro.cache.PrecomputeCache`; when given,
        cold table builds go build-or-load through the content-
        addressed store (so even a *cold* cosmology can skip the
        solve) and publications are accounted in ``cache.metrics``.
    fault_tolerance:
        The per-run resilience policy; defaults to heartbeat-free
        timeouts suited to a responsive service.
    max_resident:
        How many cosmologies stay warm at once (LRU beyond that).
    share_backend:
        ``"shm"`` or ``"memmap"`` for the published table blocks.
    """

    def __init__(self, nproc: int = 4,
                 cache: PrecomputeCache | None = None,
                 fault_tolerance: FaultTolerance | None = None,
                 max_resident: int = 8,
                 share_backend: str = "shm") -> None:
        if nproc < 2:
            raise ServeError("WarmPool needs at least 1 worker (nproc >= 2)")
        if max_resident < 1:
            raise ServeError("max_resident must be >= 1")
        self.nproc = int(nproc)
        self.cache = cache
        self.fault_tolerance = (fault_tolerance if fault_tolerance is not None
                                else FaultTolerance(worker_timeout=30.0,
                                                    max_retries=3))
        self.max_resident = int(max_resident)
        self.share_backend = share_backend
        self.stats = PoolStats()

        self._resident: "dict[str, _Resident]" = {}
        self._resident_order: list[str] = []
        self._lock = threading.RLock()
        self._run_lock = threading.Lock()
        self._closed = False

        # rank r (1-based) is always served by thread r-1, so each
        # worker's attach cache stays thread-local: no locking on the
        # hot path, and an attachment made for rank r is reused by
        # rank r forever
        self._queues: list[queue.Queue] = [queue.Queue()
                                           for _ in range(nproc - 1)]
        self._worker_tables: list[dict[str, dict]] = [
            {} for _ in range(nproc - 1)
        ]
        self._threads: list[threading.Thread] = []
        for wid in range(nproc - 1):
            self._threads.append(self._spawn(wid))
        lifecycle.register(self)

    def _spawn(self, wid: int) -> threading.Thread:
        t = threading.Thread(target=self._worker_loop, args=(wid,),
                             name=f"warmpool-w{wid + 1}", daemon=True)
        t.start()
        return t

    # -- residency ----------------------------------------------------------

    @staticmethod
    def tables_digest(params: CosmologyParams) -> str:
        """The cosmology-level residency key (k-grid independent)."""
        return params.digest("serve_tables")

    def ensure_resident(self, params: CosmologyParams,
                        telemetry: Telemetry = NULL_TELEMETRY,
                        ) -> tuple[_Resident, bool]:
        """Warm the tables for ``params``; returns ``(state, was_warm)``."""
        digest = self.tables_digest(params)
        with self._lock:
            res = self._resident.get(digest)
            if res is not None:
                self._resident_order.remove(digest)
                self._resident_order.append(digest)
                res.uses += 1
                return res, True

        # cold: build (or load) the tables and publish them once
        background, thermo = build_tables(params, cache=self.cache,
                                          telemetry=telemetry)
        arrays: dict[str, np.ndarray] = {}
        for name, arr in background.to_tables().items():
            arrays[f"bg/{name}"] = arr
        for name, arr in thermo.to_tables().items():
            arrays[f"th/{name}"] = arr
        block = SharedTableBlock.create(arrays, backend=self.share_backend)
        if self.cache is not None:
            self.cache.metrics.bytes_shared += block.total_bytes
            self.cache.metrics.shared_backend = block.backend
        res = _Resident(
            digest=digest, params=params, background=background,
            thermo=thermo, block=block,
            manifest_reals=manifest_to_reals(block.manifest), uses=1,
        )
        evicted: list[_Resident] = []
        with self._lock:
            if digest in self._resident:  # lost a build race; keep theirs
                block.close()
                block.unlink()
                winner = self._resident[digest]
                winner.uses += 1
                return winner, True
            self._resident[digest] = res
            self._resident_order.append(digest)
            while len(self._resident_order) > self.max_resident:
                old = self._resident_order.pop(0)
                evicted.append(self._resident.pop(old))
                self.stats.resident_evictions += 1
        for dead in evicted:
            dead.block.close()
            dead.block.unlink()
        self.stats.cold_builds += 1
        return res, False

    @property
    def resident_digests(self) -> frozenset:
        with self._lock:
            return frozenset(self._resident)

    # -- serving ------------------------------------------------------------

    def run(self, params: CosmologyParams, kgrid: KGrid,
            config: LingerConfig | None = None,
            batch_size: int = 1,
            telemetry: Telemetry = NULL_TELEMETRY,
            ) -> tuple[LingerResult, bool]:
        """Serve one full grid on the resident workers.

        Returns ``(result, was_warm)`` where ``was_warm`` says the
        cosmology's tables were already resident.  Runs are serialized
        on the pool (one grid in flight; concurrency above this lives
        in the daemon's coalescing layer).
        """
        if self._closed:
            raise ServeError("WarmPool is closed")
        config = config or LingerConfig(record_sources=False,
                                        keep_mode_results=False)
        if config.keep_mode_results or config.record_sources:
            raise ServeError("the warm pool serves wire records only "
                             "(no source recording)")
        with self._run_lock:
            resident, was_warm = self.ensure_resident(params, telemetry)
            result = self._run_protocol(resident, kgrid, config,
                                        batch_size, telemetry)
        self.stats.runs += 1
        if was_warm:
            self.stats.warm_runs += 1
        return result, was_warm

    def _run_protocol(self, resident: _Resident, kgrid: KGrid,
                      config: LingerConfig, batch_size: int,
                      telemetry: Telemetry) -> LingerResult:
        ft = self.fault_tolerance
        tau_end = (resident.background.tau0 if config.tau_end is None
                   else config.tau_end)
        chunks = dispatch_chunks(kgrid, config, tau_end, batch_size)

        self._respawn_dead_workers()
        world = InProcessWorld(self.nproc)
        live = self.resident_digests
        jobs = [
            _Job(world=world, rank=wid + 1, resident=resident,
                 kgrid=kgrid, config=config, live_digests=live)
            for wid in range(self.nproc - 1)
        ]
        for wid, job in enumerate(jobs):
            self._queues[wid].put(job)

        master = world.handle(0)
        master.initpass()
        wall0 = time.perf_counter()
        log = master_subroutine(
            master, kgrid, chunks=chunks, fault_tolerance=ft,
            manifest_data=resident.manifest_reals,
        )
        master.endpass()
        wall = time.perf_counter() - wall0

        # wait for the workers to finish publishing; a quarantined rank
        # may still be stuck on its deadline — don't serve at its pace
        deadline = max(ft.silence_seconds, 1.0) + 5.0
        for job in jobs:
            job.done.wait(timeout=deadline)

        for _rank, payload in sorted(world.collect_telemetry().items()):
            info = payload.get("cache") or {}
            if info.get("warm"):
                self.stats.warm_table_hits += 1
            elif info.get("attached"):
                self.stats.table_attaches += 1
            if telemetry.enabled and payload.get("telemetry"):
                telemetry.merge_worker_payload(payload["telemetry"])

        nk = kgrid.nk
        headers = [None] * nk
        payloads = [None] * nk
        for h, p in zip(log.headers, log.payloads):
            headers[h.ik - 1] = h
            payloads[p.ik - 1] = p
        if any(h is None for h in headers):
            raise ProtocolError("warm-pool run finished with missing modes")
        if telemetry.enabled and log.fault is not None:
            telemetry.fault = log.fault
        return LingerResult(
            params=resident.params,
            kgrid=kgrid,
            config=config,
            headers=headers,  # type: ignore[arg-type]
            payloads=payloads,  # type: ignore[arg-type]
            modes=[None] * nk,
            background=resident.background,
            thermo=resident.thermo,
            wall_seconds=wall,
        )

    def _respawn_dead_workers(self) -> None:
        """Replace any pool thread that died (quarantined rank whose
        deadline expired mid-integration, chaos kill, ...)."""
        for wid, t in enumerate(self._threads):
            if not t.is_alive():
                self._worker_tables[wid] = {}
                self._queues[wid] = queue.Queue()
                self._threads[wid] = self._spawn(wid)
                self.stats.workers_replaced += 1

    # -- the resident worker ------------------------------------------------

    def _worker_loop(self, wid: int) -> None:
        q = self._queues[wid]
        while True:
            job = q.get()
            if job is None:
                return
            try:
                self._serve_one(wid, job)
            except Exception:
                # the fault-tolerant master quarantines this rank and
                # reassigns its work; the thread survives for next run
                pass
            finally:
                job.done.set()

    def _tables_for(self, wid: int, job: _Job, raw,
                    telemetry: Telemetry) -> dict:
        """This worker's (background, thermo) for the job's cosmology:
        attach-once, then warm across runs."""
        tables = self._worker_tables[wid]
        entry = tables.get(job.resident.digest)
        if entry is not None:
            entry["warm"] = True
            return entry
        attached = None
        if raw is not None:
            try:
                attached = self.fault_tolerance.retry_policy().call(
                    lambda: AttachedTables.attach(manifest_from_reals(raw)),
                    retry_on=(ValueError, CacheError),
                )
            except (ValueError, CacheError):
                attached = None
        if attached is not None:
            background = attached.background(job.resident.params)
            thermo = attached.thermal(background)
        else:
            # degraded: deterministic local rebuild, bit-identical
            background, thermo = build_tables(job.resident.params,
                                              telemetry=telemetry)
        entry = {"attached": attached, "background": background,
                 "thermo": thermo, "warm": False}
        tables[job.resident.digest] = entry
        # drop tables for cosmologies the pool has evicted
        for digest in [d for d in tables if d not in job.live_digests
                       and d != job.resident.digest]:
            stale = tables.pop(digest)
            if stale["attached"] is not None:
                stale["attached"].close()
        return entry

    def _serve_one(self, wid: int, job: _Job) -> None:
        ft = self.fault_tolerance
        mp = job.world.handle(job.rank)
        telemetry = Telemetry()
        mp.initpass()

        # the CACHE manifest trails INIT; consume it by tag so INIT
        # stays queued for the protocol loop
        raw = None
        deadline = max(ft.silence_seconds, 1.0)
        if mp.myprobe(Tag.CACHE, mp.mastid, timeout=deadline) is not None:
            raw = mp.myrecvraw(Tag.CACHE, mp.mastid)
        entry = self._tables_for(wid, job, raw, telemetry)
        background, thermo = entry["background"], entry["thermo"]
        compute = chunk_compute(background, thermo, job.kgrid, job.config,
                                telemetry, ladder=ft.integration_retries)
        try:
            log = worker_subroutine(mp, compute, fault_tolerance=ft)
        except (MessagePassingError, ProtocolError):
            log = WorkerLog()
        mp.publish_telemetry({
            "traffic": mp.stats.as_dict(),
            "worker": log.as_dict(),
            "telemetry": telemetry.worker_payload(),
            "cache": {
                "attached": entry["attached"] is not None,
                "warm": entry["warm"],
            },
        })
        mp.endpass()

    # -- lifecycle ----------------------------------------------------------

    @property
    def resident_count(self) -> int:
        with self._lock:
            return len(self._resident)

    def close(self) -> None:
        """Stop the workers, close every attachment, unlink every
        shared block.  Idempotent; runs from atexit/SIGTERM too."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            t.join(timeout=5.0)
        for tables in self._worker_tables:
            for entry in tables.values():
                if entry["attached"] is not None:
                    try:
                        entry["attached"].close()
                    except Exception:
                        pass
            tables.clear()
        with self._lock:
            residents = list(self._resident.values())
            self._resident.clear()
            self._resident_order.clear()
        for res in residents:
            try:
                res.block.close()
                res.block.unlink()
            except Exception:
                pass
        lifecycle.unregister(self)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
