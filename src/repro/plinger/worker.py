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
``compute(ik)``; :func:`mode_compute` builds the production one
(:func:`~repro.linger.serial.compute_mode`, the serial driver's own
unit of work, escalation ladder included) for ``run_plinger``'s
workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ProtocolError
from ..linger.records import ModeHeader, ModePayload, wire_index
from ..linger.serial import compute_mode, mode_plan
from ..mp.api import MessagePassing
from ..perturbations.evolve import ModePlan
from ..resilience import FaultTolerance, HeartbeatThread
from ..telemetry import NULL_TELEMETRY, Telemetry
from .tags import Tag

__all__ = ["WorkerLog", "mode_compute", "worker_subroutine"]

#: What a worker does with the wavenumber index of one WORK message.
ModeCompute = Callable[[int], tuple[ModeHeader, ModePayload]]


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


def mode_compute(
    background,
    thermo,
    kgrid,
    config,
    telemetry: Telemetry = NULL_TELEMETRY,
    plan: ModePlan | None = None,
) -> ModeCompute:
    """The production ``compute(ik)`` of a worker rank: one
    :func:`~repro.linger.serial.compute_mode` call — the escalation
    ladder included, its level in ``header.retry_level`` — so only an
    :class:`~repro.errors.IntegrationError` that outlasts the ladder
    ends the rank.  ``plan`` is the grid's
    :func:`~repro.linger.serial.mode_plan`, formed here if not given.
    """
    if plan is None:
        plan = mode_plan(background, thermo, kgrid.k, config)

    def compute(ik: int) -> tuple[ModeHeader, ModePayload]:
        return compute_mode(background, thermo, float(kgrid.k[ik - 1]), ik,
                            config, telemetry=telemetry, plan=plan)[:2]

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
    compute: ModeCompute,
    fault_tolerance: FaultTolerance = FaultTolerance(),
) -> WorkerLog:
    """Run the worker side of the PLINGER protocol until told to stop.

    ``compute(ik)`` integrates one wavenumber index (1-based) and
    returns its record pair (see :func:`mode_compute`).  A WORK message
    names one wavenumber, or — when the master re-sends an assignment
    a lost reply left unanswered — several, integrated one at a time;
    each mode ships back as its own header/payload pair: 21 reals, or
    22 when the mode needed the escalation ladder and the level rides
    along.

    Receives are length-agnostic (a lost INIT broadcast is survivable
    because WORK parsing does not need the announced message length),
    every wait on the master has a deadline, and a missing reply is
    healed by re-sending READY with the attempt number in its one real
    (a first ask carries 0): the master answers that with the worker's
    current assignment, so at-least-once delivery of results is
    preserved.  Any message from the master restarts the retry count —
    a rank on the bench hears a ``HEARTBEAT`` back for each re-sent
    READY — so only a master that stays silent through the whole retry
    budget raises :class:`~repro.errors.ProtocolError`.
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

            attempts = 0
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

            buf = mp.myrecvraw(Tag.WORK, mastid)
            log.idle_seconds += time.perf_counter() - wait0
            iks = _parse_work(buf)
            if iks is None:
                log.bad_work_messages += 1
                ask_again()
                wait0 = time.perf_counter()
                continue

            busy0 = time.perf_counter()
            for ik in iks:
                header, payload = compute(ik)
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
