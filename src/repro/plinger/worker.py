"""The worker subroutine (the paper's ``kidsub``).

Receive the setup broadcast, ask for a wavenumber, then loop:
integrate the mode, ship the 21-value header and the ``2 lmax + 8``
payload back, and wait for the next wavenumber or a stop message.

Around that exchange the loop keeps itself alive: every wait on the
master has a deadline, a reply that goes missing is healed by
re-sending READY (with exponential backoff, bounded by the retry
budget) — which re-earns the current assignment from the master — and
a worker with nothing to say for a heartbeat interval (a long mode, a
long wait) sends heartbeats, so the master can tell busy from dead.

What "integrate" means is the one callable the loop takes,
``compute(iks)``; :func:`chunk_compute` builds the production one (the
escalation ladder around :func:`~repro.linger.serial.compute_modes_batch`)
for ``run_plinger``'s workers and the warm pool's alike.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from ..chaos import current_engine
from ..errors import IntegrationError, ProtocolError
from ..linger.records import ModeHeader, ModePayload, wire_index
from ..linger.serial import compute_modes_batch
from ..mp.api import MessagePassing
from ..resilience import FaultTolerance, HeartbeatThread, run_with_ladder
from ..telemetry import NULL_TELEMETRY, Telemetry
from .tags import Tag

__all__ = ["WorkerLog", "chunk_compute", "worker_subroutine"]

#: What a worker does with the wavenumber indices of one WORK message.
ChunkCompute = Callable[[list[int]], list[tuple[ModeHeader, ModePayload]]]


@dataclass
class WorkerLog:
    """Per-worker accounting.

    ``busy_seconds`` is wallclock inside the mode computations;
    ``idle_seconds`` is wallclock spent blocked on the master (waiting
    for the setup broadcast, a wavenumber, or the stop message) — the
    quantity the largest-k-first schedule is designed to minimize.
    """

    modes_done: int = 0
    init_data: np.ndarray | None = None
    busy_seconds: float = 0.0
    idle_seconds: float = 0.0
    ready_retries: int = 0  #: READY re-sends after a missing reply
    bad_work_messages: int = 0  #: WORK messages that failed validation
    heartbeats_sent: int = 0

    def as_dict(self) -> dict:
        """Every field but the setup broadcast."""
        out = asdict(self)
        del out["init_data"]
        return out


def chunk_compute(
    background,
    thermo,
    kgrid,
    config,
    telemetry: Telemetry = NULL_TELEMETRY,
    mode_sink: dict | None = None,
) -> ChunkCompute:
    """The production ``compute(iks)`` of a worker rank: integrate the
    wavenumbers of one WORK message, under the escalation ladder.

    The chunk goes through one
    :func:`~repro.linger.serial.compute_modes_batch` call.  An
    :class:`~repro.errors.IntegrationError` degrades
    instead of ending the rank: each mode is integrated on its own
    through :func:`~repro.resilience.run_with_ladder` (one transient
    same-config retry, then the escalation levels) and the level that
    succeeded travels back in ``header.retry_level`` — at least 1 for
    the modes of a multi-k chunk, marking the chunk → per-mode
    downgrade even when a level-0 attempt then succeeds.  Every failed
    attempt leaves an ``integrator`` degradation event in ``telemetry``.

    ``mode_sink`` (thread-hosted workers, which share the master's
    memory) collects the full ``ModeResult`` by ``ik``.
    """

    def attempt(iks: list[int], cfg):
        eng = current_engine()
        for ik in iks:
            if eng is not None and eng.collapse_mode(ik):
                raise IntegrationError(
                    f"chaos: forced step collapse (ik={ik})"
                )
        out = []
        for header, payload, mode in compute_modes_batch(
            background, thermo, [float(kgrid.k[ik - 1]) for ik in iks], iks,
            cfg, telemetry=telemetry,
        ):
            if mode_sink is not None:
                mode_sink[header.ik] = mode
            out.append((header, payload))
        return out

    def on_retry(ik: int, level: int, exc) -> None:
        telemetry.record_degradation(
            "integrator",
            "transient_retry" if level == 0 else "ladder_escalation",
            f"ik={ik} level={level}: {exc}",
        )

    def compute(iks: list[int]):
        floor = 0
        if len(iks) > 1:
            try:
                return attempt(iks, config)
            except IntegrationError:
                floor = 1
        out = []
        for ik in iks:
            ((header, payload),), level = run_with_ladder(
                config, lambda cfg, _ik=ik: attempt([_ik], cfg),
                transient_retries=1,
                on_retry=lambda lvl, exc, _ik=ik: on_retry(_ik, lvl, exc),
            )
            level = max(level, floor)
            if level:
                header = replace(header, retry_level=level)
            out.append((header, payload))
        return out

    return compute


def _parse_work(buf: np.ndarray) -> list[int] | None:
    """Decode a WORK message defensively: zero is padding; anything
    non-integral, negative, or non-finite marks the whole message
    corrupt (None), which the caller heals by re-sending READY."""
    iks = [wire_index(v) for v in np.asarray(buf, dtype=float)]
    if any(ik is None or ik < 0 for ik in iks):
        return None
    return [ik for ik in iks if ik] or None


def worker_subroutine(
    mp: MessagePassing,
    compute: ChunkCompute,
    fault_tolerance: FaultTolerance = FaultTolerance(),
) -> WorkerLog:
    """Run the worker side of the PLINGER protocol until told to stop.

    ``compute(iks)`` integrates the wavenumber indices (1-based) of one
    WORK message and returns their record pairs in order (see
    :func:`chunk_compute`).  Every mode of a chunk ships back as its
    own header/payload pair — 21 reals, or 22 when the mode needed the
    escalation ladder and the level rides along — so the result wire
    format does not depend on the chunk length.

    Receives are length-agnostic (a lost INIT broadcast is survivable
    because WORK parsing does not need the announced message length),
    every wait on the master has a deadline, and a missing reply is
    healed by re-sending READY with the attempt number in its one real
    (a first ask carries 0): the master answers that with the worker's
    current assignment, so at-least-once delivery of results is
    preserved.  Raises :class:`~repro.errors.ProtocolError` when the
    retry budget runs out with the master still silent.
    """
    ft = fault_tolerance
    log = WorkerLog()
    mastid = mp.mastid
    retry = ft.retry_policy()
    heartbeat = HeartbeatThread(mp, mastid, ft.heartbeat_interval).start()

    def send(data: np.ndarray, tag: Tag) -> None:
        mp.mysendreal(data, tag, mastid)
        heartbeat.spoke()

    def ask_again() -> None:
        log.ready_retries += 1
        send(np.array([float(log.ready_retries)]), Tag.READY)

    try:
        wait0 = time.perf_counter()
        if mp.myprobe(Tag.INIT, mastid, timeout=ft.worker_timeout) is not None:
            log.init_data = mp.myrecvraw(Tag.INIT, mastid)

        send(np.array([0.0]), Tag.READY)
        attempts = 0
        while True:
            probed = mp.myprobe(source=mastid, timeout=ft.worker_timeout)
            if probed is None:
                attempts += 1
                if retry.exhausted(attempts):
                    raise ProtocolError(
                        f"worker {mp.mytid} gave up: master silent through "
                        f"{attempts - 1} READY retries"
                    )
                # back off inside a probe, not a sleep: a reply that
                # lands meanwhile is answered instead of being crossed
                # by a READY that earns the same assignment twice
                if mp.myprobe(source=mastid,
                              timeout=retry.backoff(attempts)) is None:
                    ask_again()
                continue

            tag, _src = probed
            if tag == Tag.INIT:
                # a late (or re-delivered) setup broadcast
                log.init_data = mp.myrecvraw(Tag.INIT, mastid)
                continue
            if tag == Tag.STOP:
                mp.myrecvraw(Tag.STOP, mastid)
                log.idle_seconds += time.perf_counter() - wait0
                break
            if tag != Tag.WORK:
                mp.myrecvraw(tag, mastid)
                continue

            attempts = 0
            buf = mp.myrecvraw(Tag.WORK, mastid)
            log.idle_seconds += time.perf_counter() - wait0
            iks = _parse_work(buf)
            if iks is None:
                log.bad_work_messages += 1
                ask_again()
                wait0 = time.perf_counter()
                continue

            busy0 = time.perf_counter()
            for header, payload in compute(iks):
                if header.lmax != payload.lmax:
                    raise ProtocolError("header/payload lmax mismatch")
                wire = header.pack()
                if header.retry_level:
                    wire = np.append(wire, float(header.retry_level))
                send(wire, Tag.HEADER)
                send(payload.pack(), Tag.PAYLOAD)
                log.modes_done += 1
            log.busy_seconds += time.perf_counter() - busy0
            wait0 = time.perf_counter()
    finally:
        heartbeat.stop()
        log.heartbeats_sent = heartbeat.beats
    return log
