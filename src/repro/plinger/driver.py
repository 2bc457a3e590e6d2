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
from typing import Callable

import numpy as np

from ..background import Background
from ..cache import PrecomputeCache
from ..errors import MessagePassingError, ParameterError, ProtocolError
from ..linger.kgrid import KGrid
from ..linger.records import ModeHeader, ModePayload
from ..linger.serial import (
    LingerConfig,
    LingerResult,
    build_tables,
    dispatch_chunks,
)
from ..mp import get_backend
from ..mp.api import World
from ..params import CosmologyParams
from ..perturbations import available_kernels
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
    fault_report: FaultReport  #: recovery accounting (zeros when clean)


def _worker_entry(mp_handle, background, thermo, kgrid, config,
                  with_telemetry: bool = False,
                  fault_tolerance: FaultTolerance = FaultTolerance(),
                  params: CosmologyParams | None = None,
                  mode_sink: dict | None = None) -> Exception | None:
    """Entry point for worker ranks (thread target / forked child /
    ``repro worker``).

    A rank's tables arrive one of three ways (DESIGN.md, "How tables
    reach a rank"): a thread is handed the master's objects, a forked
    child inherits them, and a rank that has neither — an external
    ``repro worker`` — builds them from ``params`` here, through the
    same deterministic :func:`~repro.linger.serial.build_tables` the
    master used, so the bits agree.

    With telemetry on, the worker builds its own collector (forked
    children share no memory with the master) and publishes it —
    together with its traffic stats and busy/idle log — through the
    world's out-of-band channel after the protocol completes; with
    telemetry off it publishes only if it has a recovery to report.

    A loop that ends without a STOP — the master gone, the READY
    retries exhausted, this rank declared dead and its transport closed
    — ends the worker cleanly instead of crashing the process; the
    error is returned, for a caller who cares (``repro worker``).
    """
    telemetry = Telemetry() if with_telemetry else NULL_TELEMETRY
    mp_handle.initpass()
    background, thermo = build_tables(params, background, thermo,
                                      telemetry=telemetry)
    compute = chunk_compute(background, thermo, kgrid, config, telemetry,
                            mode_sink=mode_sink)
    error = None
    try:
        log = worker_subroutine(mp_handle, compute, fault_tolerance)
    except (MessagePassingError, ProtocolError) as exc:
        error = exc
        log = WorkerLog()
    if with_telemetry or log.ready_retries or log.bad_work_messages:
        mp_handle.publish_telemetry({
            "traffic": mp_handle.stats.as_dict(),
            "worker": log.as_dict(),
            "telemetry": telemetry.worker_payload(),
        })
    mp_handle.endpass()
    return error


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
    fault_tolerance: FaultTolerance = FaultTolerance(),
    world: World | None = None,
    cache: PrecomputeCache | None = None,
    collect_modes: bool = False,
    completed: dict[int, tuple[ModeHeader, ModePayload]] | None = None,
    on_result: Callable[[ModeHeader, ModePayload], None] | None = None,
) -> tuple[LingerResult, PlingerRunStats]:
    """Run PLINGER with ``nproc - 1`` workers plus the master.

    The master cohabits the calling process (rank 0), as the paper
    notes PVM allowed ("desirable because the master process requires
    little CPU time").

    The master hands out k-*chunks* (equal-lmax groups of up to
    ``batch_size`` modes, still largest-k-first; at 1 the paper's
    one-wavenumber WORK message).  ``batch_size`` is the number of
    modes per WORK message and per operator assembly on the worker,
    never how a mode steps: the worker integrates the modes of a chunk
    one after another and ships back one header/payload pair per mode,
    so downstream consumers see the identical wire records — same
    bits, each with its own ``cpu_seconds`` — at any chunk length.

    Pass an enabled :class:`~repro.telemetry.Telemetry` to also gather
    per-tag message traffic for every rank, per-worker busy/idle time,
    and each worker's per-mode integrator metrics.

    Dead workers are quarantined and their wavenumbers reassigned,
    failing integrations walk an escalation ladder, and the accounting
    lands in ``stats.fault_report`` (and the telemetry report's
    ``fault`` section); ``fault_tolerance`` sets the deadlines and
    bounds.  ``world`` substitutes a pre-built transport — e.g. a
    :class:`~repro.mp.backends.faulty.FaultyWorld` for chaos testing —
    in place of ``get_backend(backend, nproc)``; ``backend`` then only
    selects how workers are hosted (threads unless the world can
    ``launch`` forked children).

    Pass a :class:`~repro.cache.PrecomputeCache` as ``cache`` to
    build-or-load the master's background and thermal tables through
    the content-addressed store (accounted in ``cache.metrics`` and the
    telemetry report's ``cache`` section).  The workers get those same
    objects — by reference as threads, by inheritance when forked — so
    the wire is the same with and without a cache.

    ``collect_modes=True`` additionally fills ``result.modes`` with the
    full per-mode records (the sparse-k fast path projects its sources
    from them).  Only thread-hosted workers can do this — they share the
    master's memory, so no wire-protocol change is needed — and it
    requires ``config.keep_mode_results=True``; forked backends still
    ship only the wire records.

    A restart is this same run started with modes already done:
    ``completed`` maps ``ik`` to the ``(header, payload)`` an earlier
    run banked (:meth:`~repro.plinger.checkpoint.ModeJournal.replay`);
    those wavenumbers are not dispatched and their records go into the
    result as they are.  ``on_result(header, payload)`` is called in
    the master, once per mode, the moment it is banked — hang a
    journal's ``append`` there.
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
    completed = completed or {}
    for ik in completed:
        if not 1 <= ik <= kgrid.nk:
            raise ParameterError(
                f"completed mode ik={ik} outside the grid (nk={kgrid.nk}); "
                "journal/k-grid mismatch"
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
    if collect_modes and forked:
        raise ProtocolError(
            "collect_modes=True requires thread-hosted workers "
            "(forked children share no memory with the master)"
        )
    mode_sink: dict | None = {} if collect_modes else None

    wall0 = time.perf_counter()
    if forked:
        # a child inherits a resolved kernel; unresolved (tables handed
        # in, so no thermal build has asked) each one would pay the
        # digest and the dlopen itself, first thing after the fork
        available_kernels()
        world.launch(_worker_entry, background, thermo, kgrid, config,
                     telemetry.enabled, fault_tolerance, params)
    elif backend in ("inprocess", "procs"):
        threads = [
            threading.Thread(
                target=_worker_entry,
                args=(world.handle(r), background, thermo, kgrid, config,
                      telemetry.enabled, fault_tolerance, params,
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
    log = master_subroutine(master_mp, kgrid, on_result=on_result,
                            chunks=chunks, fault_tolerance=fault_tolerance,
                            done=completed)
    master_mp.endpass()

    # a rank the master quarantined may be hung with its work already
    # reassigned, and is simply left behind (a forked one terminated);
    # with nobody quarantined, a rank that does not exit is an error
    strict = not log.fault.dead_workers
    if forked:
        world.join(timeout=60.0, strict=strict)
    else:
        # all threads together get the policy's own silence deadline
        # plus a margin, not a minute each
        deadline = time.monotonic() + 5.0 + max(
            fault_tolerance.silence_seconds, 1.0)
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
            if t.is_alive() and strict:
                raise MessagePassingError("worker thread failed to exit")
    wall = time.perf_counter() - wall0

    # worker blobs: each rank's telemetry when that is on, else only
    # what a rank with a recovery to report published
    collected = dict(sorted(world.collect_telemetry().items()))
    for payload in collected.values():
        resent = payload.get("worker", {}).get("ready_retries")
        if resent:
            log.fault.bump_retry("READY", int(resent))

    if telemetry.enabled:
        telemetry.meta.setdefault("driver", "plinger")
        telemetry.meta.setdefault("backend", backend)
        telemetry.meta.setdefault("nproc", nproc)
        telemetry.meta.setdefault("nk", kgrid.nk)
        if batch_size > 1:
            telemetry.meta.setdefault("batch_size", batch_size)
        telemetry.fault = log.fault
        if cache is not None:
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
    for h, p in [*completed.values(), *zip(log.headers, log.payloads)]:
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
