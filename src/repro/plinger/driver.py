"""End-to-end PLINGER runs on a chosen message-passing backend.

:func:`run_plinger` is the analogue of the paper's main program: set up
message passing, run the master in the calling context and the workers
as threads (``inprocess``), forked processes (``procs``), or separate
OS processes over real TCP (``sockets`` — co-located by default, with
remote ranks via ``repro worker --connect``), and
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
from ..errors import MessagePassingError, ParameterError, ProtocolError
from ..linger.kgrid import KGrid
from ..linger.records import ModeHeader, ModePayload
from ..linger.serial import (LingerConfig, LingerResult, build_tables,
                             mode_plan)
from ..mp import get_backend
from ..mp.api import World
from ..params import CosmologyParams
from ..perturbations.evolve import ModePlan
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..telemetry.report import FaultReport
from ..thermo import ThermalHistory
from ..resilience import FaultTolerance
from .master import master_subroutine
from .tags import Tag
from .worker import WorkerLog, mode_compute, worker_subroutine

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
                  plan: ModePlan | None = None) -> Exception | None:
    """Entry point for worker ranks (thread target / forked child /
    ``repro worker``).

    A rank's tables arrive one of three ways (DESIGN.md, "How tables
    reach a rank"): a thread is handed the master's objects, a forked
    child inherits them, and a rank that has neither — an external
    ``repro worker`` — builds them from ``params`` here, through the
    same deterministic :func:`~repro.linger.serial.build_tables` the
    master used, so the bits agree.  The grid's
    :func:`~repro.linger.serial.mode_plan` arrives the same way, or is
    formed here.

    With telemetry on, the worker builds its own collector (forked
    children share no memory with the master), adds its traffic and
    busy/idle rows and publishes its document through the world's
    out-of-band channel after the protocol completes; with telemetry
    off it publishes only if it has READY re-sends to report, in a
    document of just those rows and a ``fault`` section.

    A loop that ends without a STOP — the master gone, the READY
    retries exhausted, this rank declared dead and its transport closed
    — ends the worker cleanly instead of crashing the process; the
    error is returned, for a caller who cares (``repro worker``).
    """
    telemetry = Telemetry() if with_telemetry else NULL_TELEMETRY
    mp_handle.initpass()
    background, thermo = build_tables(params, background, thermo,
                                      telemetry=telemetry)
    compute = mode_compute(background, thermo, kgrid, config, telemetry,
                           plan)
    error = None
    try:
        log = worker_subroutine(mp_handle, compute, fault_tolerance)
    except (MessagePassingError, ProtocolError) as exc:
        error = exc
        log = WorkerLog()
    if with_telemetry or log.ready_retries:
        doc = telemetry if with_telemetry else Telemetry()
        rank = mp_handle.mytid
        doc.record_traffic(rank, "worker", mp_handle.stats,
                           tag_names=TAG_NAMES)
        doc.record_worker(rank, modes_done=log.modes_done,
                          busy_seconds=log.busy_seconds,
                          idle_seconds=log.idle_seconds)
        if log.ready_retries:
            doc.fault = FaultReport(retries_by_tag={
                Tag.READY.name: log.ready_retries})
        mp_handle.publish_telemetry(doc.to_dict())
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
    fault_tolerance: FaultTolerance = FaultTolerance(),
    world: World | None = None,
    completed: dict[int, tuple[ModeHeader, ModePayload]] | None = None,
    on_result: Callable[[ModeHeader, ModePayload], None] | None = None,
) -> tuple[LingerResult, PlingerRunStats]:
    """Run PLINGER with ``nproc - 1`` workers plus the master.

    The master cohabits the calling process (rank 0), as the paper
    notes PVM allowed ("desirable because the master process requires
    little CPU time").

    The master hands out one wavenumber per WORK message, largest k
    first, and the worker ships back its header/payload pair: the same
    wire records, bit for bit, that :func:`~repro.linger.run_linger`
    builds for that mode.

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

    The master's background and thermal tables are the ones handed in,
    else built here; the workers get those and the grid's mode plan — by
    reference as threads, by inheritance when forked.

    A world built here is closed again when the run fails.

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
    if config.keep_mode_results:
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
                                      telemetry=telemetry)

    built = world is None
    if built:
        world = get_backend(backend, nproc)
    try:
        if world.nproc != nproc:
            raise MessagePassingError(
                f"world has {world.nproc} ranks, expected nproc={nproc}"
            )
        master_mp = world.handle(0)
        forked = hasattr(world, "launch")

        wall0 = time.perf_counter()
        # the grid's plan, built once for every rank (it resolves the
        # kernel, which a forked child then inherits)
        plan = mode_plan(background, thermo, kgrid.k, config)
        if forked:
            world.launch(_worker_entry, background, thermo, kgrid, config,
                         telemetry.enabled, fault_tolerance, params, plan)
        elif backend in ("inprocess", "procs"):
            threads = [
                threading.Thread(
                    target=_worker_entry,
                    args=(world.handle(r), background, thermo, kgrid, config,
                          telemetry.enabled, fault_tolerance, params, plan),
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
                                fault_tolerance=fault_tolerance,
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

        if telemetry.enabled:
            telemetry.meta.setdefault("driver", "plinger")
            telemetry.meta.setdefault("backend", backend)
            telemetry.meta.setdefault("nproc", nproc)
            telemetry.meta.setdefault("nk", kgrid.nk)
            telemetry.timer("plinger.wall").add(wall)
            telemetry.timer("master.probe_wait").add(
                log.probe_wait_seconds, count=len(log.headers)
            )
            telemetry.record_traffic(0, "master", master_mp.stats,
                                     tag_names=TAG_NAMES)
        # each worker's document folds into the run's collector — or, with
        # telemetry off, into one that only carries its READY re-sends into
        # the master's fault report
        ranks = telemetry if telemetry.enabled else Telemetry()
        ranks.fault = log.fault
        for _, doc in sorted(world.collect_telemetry().items()):
            ranks.merge(doc)

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
            modes=[None] * nk,
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
    except BaseException:
        # a world built here must not outlive a failed run: a sockets
        # world's listener and accept thread would stay up
        if built and hasattr(world, "close"):
            world.close()
        raise
