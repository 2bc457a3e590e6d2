"""End-to-end PLINGER runs on a chosen message-passing backend.

:func:`run_plinger` is the analogue of the paper's main program: set up
message passing, run the master in the calling context and the workers
as threads (``inprocess``), forked processes (``procs``), or separate
OS processes over real TCP (``sockets`` — co-located by default, with
remote and elastic ranks via ``repro worker --connect``), and
assemble the results (ordered by ascending k) into the same
:class:`~repro.linger.serial.LingerResult` the serial driver produces —
by construction, PLINGER output must be identical to LINGER output.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..background import Background
from ..cache import (
    AttachedTables,
    PrecomputeCache,
    manifest_from_reals,
    manifest_to_reals,
)
from ..cache.sharing import SharedTableBlock
from ..errors import CacheError, MessagePassingError, ProtocolError
from ..linger.kgrid import KGrid
from ..linger.serial import (
    LingerConfig,
    LingerResult,
    build_tables,
    dispatch_chunks,
)
from ..mp import get_backend
from ..mp.api import World
from ..params import CosmologyParams
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..telemetry.report import FaultReport
from ..thermo import ThermalHistory
from ..resilience import FaultTolerance
from .master import master_subroutine
from .tags import Tag
from .worker import WorkerLog, chunk_compute, worker_subroutine

__all__ = ["PlingerRunStats", "run_plinger"]

#: tag -> name map used to label per-tag traffic in reports.
TAG_NAMES = {int(t): t.name for t in Tag}


@dataclass
class PlingerRunStats:
    """Timing and traffic accounting for one PLINGER run."""

    nproc: int
    backend: str
    wall_seconds: float
    master_bytes_received: int
    master_bytes_sent: int
    master_messages_received: int
    master_messages_sent: int
    worker_cpu_seconds: np.ndarray  #: per-mode CPU, ascending-k order
    #: fault-tolerance accounting; None on legacy (fail-loudly) runs
    fault_report: FaultReport | None = None


def _attach_shared_tables(mp_handle, ft: FaultTolerance, telemetry):
    """Resilient CACHE-manifest attach: timed probe, bounded retry,
    wire-transfer fallback, local-build fallback.

    The manifest broadcast arrives exactly once, so only the *attach*
    step retries (on the already-received bytes), never the receive.
    Returns the :class:`AttachedTables` view, or None when the worker
    should rebuild its tables locally (dropped broadcast, garbled
    manifest, or shared-memory attach failure through the retry budget
    *and* no wire reply from the master) — availability over zero-copy.
    The ladder, in order: shm/memmap attach with bounded retries (the
    co-located fast path: one physical copy), then a ``Tag.TABLES``
    request for the block's bytes over the wire (the cross-host path —
    the segment genuinely does not exist on this rank's machine), then
    a deterministic local rebuild.
    """
    deadline = max(ft.silence_seconds, 1.0)
    if mp_handle.myprobe(Tag.CACHE, mp_handle.mastid,
                         timeout=deadline) is None:
        telemetry.record_degradation(
            "cache", "attach_timeout",
            f"no CACHE broadcast within {deadline:.1f}s; "
            "building tables locally",
        )
        return None
    raw = mp_handle.myrecvraw(Tag.CACHE, mp_handle.mastid)
    t0 = time.perf_counter()
    try:
        return ft.retry_policy().call(
            lambda: AttachedTables.attach(manifest_from_reals(raw)),
            retry_on=(ValueError, CacheError),
            on_retry=lambda n, exc: telemetry.record_degradation(
                "cache", "attach_retry", f"retry {n}: {exc}",
                seconds=time.perf_counter() - t0,
            ),
        )
    except (ValueError, CacheError) as exc:
        attached = _request_wire_tables(mp_handle, ft, raw, telemetry)
        if attached is not None:
            return attached
        telemetry.record_degradation(
            "cache", "attach_fallback",
            f"building tables locally: {exc}",
            seconds=time.perf_counter() - t0,
        )
        return None


def _request_wire_tables(mp_handle, ft: FaultTolerance, manifest_raw,
                         telemetry):
    """The cross-host rung of the attach ladder: ask the master to ship
    the table block itself over the wire (``Tag.TABLES`` request and
    reply), then rebuild a private copy from the bytes.

    Returns the :class:`AttachedTables` view or None (master did not
    answer in time — a legacy master, or one without the block — or
    the shipped bytes failed validation); every outcome short of an
    attach leaves the caller free to fall through to a local rebuild.
    """
    try:
        manifest = manifest_from_reals(manifest_raw)
    except (ValueError, UnicodeDecodeError):
        return None
    t0 = time.perf_counter()
    try:
        mp_handle.mysendreal(np.array([float(mp_handle.mytid)]),
                             Tag.TABLES, mp_handle.mastid)
    except MessagePassingError:
        return None
    deadline = max(ft.silence_seconds, 1.0)
    if mp_handle.myprobe(Tag.TABLES, mp_handle.mastid,
                         timeout=deadline) is None:
        return None
    reals = mp_handle.myrecvraw(Tag.TABLES, mp_handle.mastid)
    try:
        block = SharedTableBlock.from_wire(manifest, reals)
        attached = AttachedTables(block)
    except (ValueError, CacheError):
        return None
    telemetry.record_degradation(
        "cache", "attach_wire_transfer",
        f"segment unmappable from this rank; received "
        f"{block.total_bytes} table bytes over the wire",
        seconds=time.perf_counter() - t0,
    )
    return attached


def _worker_entry(mp_handle, background, thermo, kgrid, config,
                  with_telemetry: bool = False,
                  fault_tolerance: FaultTolerance | None = None,
                  params: CosmologyParams | None = None,
                  use_cache: bool = False,
                  mode_sink: dict | None = None):
    """Entry point for worker ranks (thread target / forked child).

    With telemetry on, the worker builds its own collector (forked
    children share no memory with the master) and publishes it —
    together with its traffic stats and busy/idle log — through the
    world's out-of-band channel after the protocol completes.

    With ``use_cache`` on, the master follows its INIT broadcast with a
    tag-8 CACHE manifest; the worker attaches the shared table block
    before requesting work and — when ``background``/``thermo`` were
    not handed in — reconstructs both straight on the shared pages
    (zero copies: every rank maps the same physical tables).

    Under a fault-tolerance policy the compute path degrades gracefully
    (:func:`~repro.plinger.worker.chunk_compute`: an
    :class:`~repro.errors.IntegrationError` walks the escalation
    ladder, mode by mode, with the downgrade reported in the result
    header); a transport failure (e.g. this rank was declared dead and
    dismissed) ends the worker cleanly instead of crashing the process.
    """
    ft = fault_tolerance
    telemetry = Telemetry() if with_telemetry else NULL_TELEMETRY
    mp_handle.initpass()

    attached = None
    cache_info: dict | None = None
    if use_cache:
        # The CACHE broadcast trails INIT; consuming it by tag here
        # leaves INIT queued for the protocol loop below.
        if ft is None:
            # legacy fail-loudly path: block on the broadcast
            mp_handle.mycheckone(Tag.CACHE, mp_handle.mastid)
            attached = AttachedTables.attach(manifest_from_reals(
                mp_handle.myrecvraw(Tag.CACHE, mp_handle.mastid)
            ))
        else:
            attached = _attach_shared_tables(mp_handle, ft, telemetry)
        if attached is not None:
            if background is None:
                background = attached.background(params)
            if thermo is None:
                thermo = attached.thermal(background)
            cache_info = {
                "attached": True,
                "bytes_mapped": attached.bytes_mapped,
                "backend": attached.block.backend,
            }
        else:
            # attach degraded away: deterministic local rebuild gives
            # bit-identical tables, just without the zero-copy sharing
            cache_info = {"attached": False, "bytes_mapped": 0,
                          "backend": ""}
            background, thermo = build_tables(params, background, thermo,
                                              telemetry=telemetry)

    compute = chunk_compute(background, thermo, kgrid, config, telemetry,
                            ladder=ft is not None and ft.integration_retries,
                            mode_sink=mode_sink)
    try:
        log = worker_subroutine(mp_handle, compute, fault_tolerance=ft)
    except (MessagePassingError, ProtocolError):
        if ft is None:
            raise
        log = WorkerLog()
    if with_telemetry or ft is not None or use_cache:
        mp_handle.publish_telemetry({
            "traffic": mp_handle.stats.as_dict(),
            "worker": log.as_dict(),
            "telemetry": telemetry.worker_payload(),
            "cache": cache_info,
        })
    mp_handle.endpass()
    if attached is not None:
        attached.close()


def run_plinger(
    params: CosmologyParams,
    kgrid: KGrid,
    config: LingerConfig | None = None,
    nproc: int = 4,
    backend: str = "inprocess",
    background: Background | None = None,
    thermo: ThermalHistory | None = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    batch_size: int = 1,
    fault_tolerance: FaultTolerance | None = None,
    world: World | None = None,
    cache: PrecomputeCache | None = None,
    bessel_l: np.ndarray | None = None,
    collect_modes: bool = False,
) -> tuple[LingerResult, PlingerRunStats]:
    """Run PLINGER with ``nproc - 1`` workers plus the master.

    The master cohabits the calling process (rank 0), as the paper
    notes PVM allowed ("desirable because the master process requires
    little CPU time").

    The master hands out k-*chunks* (equal-lmax groups of up to
    ``batch_size`` modes, still largest-k-first; at 1 the paper's
    one-wavenumber WORK message) and each worker integrates its chunk
    as one unit; results ship back one header/payload pair per mode, so
    downstream consumers see the identical wire records.

    Pass an enabled :class:`~repro.telemetry.Telemetry` to also gather
    per-tag message traffic for every rank, per-worker busy/idle time,
    and each worker's per-mode integrator metrics (plus per-chunk
    batch occupancy when ``batch_size > 1``).

    Pass a :class:`~repro.resilience.FaultTolerance` to run
    resiliently: dead workers are detected and quarantined, their
    wavenumbers reassigned with bounded retries, failing integrations
    walk an escalation ladder, and the accounting lands in
    ``stats.fault_report`` (and the telemetry report's ``fault``
    section).  ``world`` substitutes a pre-built transport — e.g. a
    :class:`~repro.mp.backends.faulty.FaultyWorld` for chaos testing —
    in place of ``get_backend(backend, nproc)``; ``backend`` then only
    selects how workers are hosted (threads unless the world can
    ``launch`` forked children).

    Pass a :class:`~repro.cache.PrecomputeCache` as ``cache`` to (a)
    build-or-load the background and thermal tables through the
    content-addressed store and (b) publish them — plus, when
    ``bessel_l`` names a multipole set, the dense j_l table — as one
    shared-memory block that every worker maps instead of copying.
    The manifest rides the wire as a tag-8 broadcast right after INIT;
    attachment counts land in ``cache.metrics`` (and the telemetry
    report's ``cache`` section).

    ``collect_modes=True`` additionally fills ``result.modes`` with the
    full per-mode records (the sparse-k fast path projects its sources
    from them).  Only thread-hosted workers can do this — they share the
    master's memory, so no wire-protocol change is needed — and it
    requires ``config.keep_mode_results=True``; forked backends still
    ship only the wire records.
    """
    if nproc < 2:
        raise MessagePassingError("PLINGER needs at least 1 worker (nproc >= 2)")
    config = config or LingerConfig(record_sources=False, keep_mode_results=False)
    if collect_modes and not config.keep_mode_results:
        raise ProtocolError(
            "collect_modes=True requires config.keep_mode_results=True"
        )
    if config.keep_mode_results and not collect_modes:
        raise ProtocolError(
            "PLINGER ships only the wire records; run with "
            "keep_mode_results=False (use run_linger for source recording)"
        )
    background, thermo = build_tables(params, background, thermo,
                                      cache, telemetry)
    tau_end = background.tau0 if config.tau_end is None else config.tau_end
    chunks = dispatch_chunks(kgrid, config, tau_end, batch_size)

    if world is None:
        world = get_backend(backend, nproc)
    if world.nproc != nproc:
        raise MessagePassingError(
            f"world has {world.nproc} ranks, expected nproc={nproc}"
        )
    master_mp = world.handle(0)
    forked = hasattr(world, "launch")
    ft = fault_tolerance
    use_cache = cache is not None
    if hasattr(world, "accept_joins"):
        # elastic joins graft onto the fault-tolerant master's admit
        # path; the legacy fail-loudly master would die on the JOIN
        # tag, so a legacy run refuses newcomers at the listener
        world.accept_joins = ft is not None
    if collect_modes and forked:
        raise ProtocolError(
            "collect_modes=True requires thread-hosted workers "
            "(forked children share no memory with the master)"
        )
    mode_sink: dict | None = {} if collect_modes else None

    shared_block = None
    manifest_data = None
    table_data = None
    if use_cache:
        bessel = None
        if bessel_l is not None:
            bessel = cache.bessel(
                bessel_l, x_max=float(np.max(kgrid.k)) * background.tau0
            )
        shared_block = cache.publish(background, thermo, bessel)
        manifest_data = manifest_to_reals(shared_block.manifest)
        if ft is not None:
            # the fault-tolerant master can answer Tag.TABLES requests
            # from ranks that cannot map the segment (remote hosts)
            table_data = shared_block.wire_data()

    # In cache mode workers get no background/thermo objects: forked
    # children must attach the shared block (instead of riding on
    # copy-on-write pages), and thread workers exercise the same path.
    worker_bg = None if use_cache else background
    worker_th = None if use_cache else thermo

    wall0 = time.perf_counter()
    try:
        if forked:
            world.launch(_worker_entry, worker_bg, worker_th, kgrid, config,
                         telemetry.enabled, ft, params, use_cache)
        elif backend in ("inprocess", "procs"):
            threads = [
                threading.Thread(
                    target=_worker_entry,
                    args=(world.handle(r), worker_bg, worker_th, kgrid,
                          config, telemetry.enabled, ft, params, use_cache,
                          mode_sink),
                    daemon=True,
                )
                for r in range(1, nproc)
            ]
            for t in threads:
                t.start()
        else:
            raise MessagePassingError(
                f"backend {backend!r} cannot host PLINGER workers"
            )

        master_mp.initpass()
        log = master_subroutine(master_mp, kgrid, chunks=chunks,
                                fault_tolerance=ft,
                                manifest_data=manifest_data,
                                table_data=table_data)
        master_mp.endpass()

        if forked:
            # under fault tolerance a quarantined-but-hung child is simply
            # terminated: its work has already been reassigned
            world.join(timeout=60.0, strict=ft is None)
        else:
            for t in threads:
                t.join(timeout=60.0)
                if t.is_alive() and ft is None:
                    raise MessagePassingError("worker thread failed to exit")
        wall = time.perf_counter() - wall0
    finally:
        if shared_block is not None:
            shared_block.close()
            shared_block.unlink()

    collected: dict = {}
    if telemetry.enabled or ft is not None or use_cache:
        collected = dict(sorted(world.collect_telemetry().items()))

    if ft is not None and log.fault is not None:
        # fold worker-side retry accounting into the fault report
        for _rank, payload in collected.items():
            w = payload.get("worker", {})
            if w.get("ready_retries"):
                log.fault.bump_retry("READY", int(w["ready_retries"]))

    if use_cache:
        for _rank, payload in collected.items():
            info = payload.get("cache") or {}
            if info.get("attached"):
                cache.metrics.workers_attached += 1

    if telemetry.enabled:
        telemetry.meta.setdefault("driver", "plinger")
        telemetry.meta.setdefault("backend", backend)
        telemetry.meta.setdefault("nproc", nproc)
        telemetry.meta.setdefault("nk", kgrid.nk)
        if batch_size > 1:
            telemetry.meta.setdefault("batch_size", batch_size)
        if ft is not None:
            telemetry.meta.setdefault("fault_tolerance", True)
            telemetry.fault = log.fault
        if use_cache:
            telemetry.meta.setdefault("cache", True)
            telemetry.cache = cache.metrics
        telemetry.timer("plinger.wall").add(wall)
        telemetry.timer("master.probe_wait").add(
            log.probe_wait_seconds, count=len(log.headers)
        )
        telemetry.record_traffic(0, "master", master_mp.stats,
                                 tag_names=TAG_NAMES)
        for rank, payload in collected.items():
            telemetry.record_traffic(rank, "worker", payload["traffic"],
                                     tag_names=TAG_NAMES)
            w = payload["worker"]
            telemetry.record_worker(
                rank,
                modes_done=w["modes_done"],
                busy_seconds=w["busy_seconds"],
                idle_seconds=w["idle_seconds"],
            )
            telemetry.merge_worker_payload(payload["telemetry"])

    # reassemble in ascending-k order
    nk = kgrid.nk
    headers = [None] * nk
    payloads = [None] * nk
    for h, p in zip(log.headers, log.payloads):
        headers[h.ik - 1] = h
        payloads[p.ik - 1] = p
    if any(h is None for h in headers):
        raise ProtocolError("PLINGER run finished with missing modes")

    result = LingerResult(
        params=params,
        kgrid=kgrid,
        config=config,
        headers=headers,  # type: ignore[arg-type]
        payloads=payloads,  # type: ignore[arg-type]
        modes=[mode_sink.get(i + 1) for i in range(nk)]
        if mode_sink is not None else [None] * nk,
        background=background,
        thermo=thermo,
        wall_seconds=wall,
    )
    stats = PlingerRunStats(
        nproc=nproc,
        backend=backend,
        wall_seconds=wall,
        master_bytes_received=master_mp.stats.bytes_received,
        master_bytes_sent=master_mp.stats.bytes_sent,
        master_messages_received=master_mp.stats.messages_received,
        master_messages_sent=master_mp.stats.messages_sent,
        worker_cpu_seconds=result.cpu_seconds,
        fault_report=log.fault,
    )
    return result, stats
