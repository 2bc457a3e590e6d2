"""The master subroutine (the paper's ``parentsub``).

The master broadcasts the run setup, then sits in a probe loop:
ready-requests (tag 2) and completed headers (tag 4, followed by the
tag-5 payload whose length the header announces) both earn the sending
worker its next wavenumber (tag 3) — or a stop message (tag 6) once the
grid is complete.  Wavenumbers go out in dispatch order: largest
first, so the expensive modes never land at the end of the run.

There is one loop.  On a fault-free run it exchanges exactly the
paper's messages — tags 1-6, a 21-value header, the same counts and
bytes — and around them it probes with a deadline, validates every
inbound record, quarantines a rank that falls silent with work in
hand and reassigns that work within the policy's retry budget, and
skips wavenumbers that are already done (which is all a restart is).
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import ProtocolError
from ..linger.kgrid import KGrid
from ..linger.records import (
    HEADER_LENGTH,
    ModeHeader,
    ModePayload,
    wire_index,
)
from ..mp.api import MessagePassing
from ..telemetry.report import FaultReport
from ..resilience import FaultTolerance
from .tags import Tag

__all__ = ["MasterLog", "master_subroutine", "INIT_MESSAGE_LENGTH"]

#: The paper's first broadcast carries 5 reals.
INIT_MESSAGE_LENGTH = 5


@dataclass
class MasterLog:
    """What the master accumulates over a run.

    ``probe_wait_seconds`` is wallclock the master spent blocked
    waiting for worker messages — essentially all of its life, which
    is the paper's argument for co-hosting it with a worker.
    ``fault`` is the recovery accounting (all zeros on a clean run).
    """

    headers: list[ModeHeader] = field(default_factory=list)
    payloads: list[ModePayload] = field(default_factory=list)
    dispatched: list[int] = field(default_factory=list)
    stops_sent: int = 0
    probe_wait_seconds: float = 0.0
    fault: FaultReport = field(default_factory=FaultReport)


def master_subroutine(
    mp: MessagePassing,
    kgrid: KGrid,
    init_data: np.ndarray | None = None,
    on_result: Callable[[ModeHeader, ModePayload], None] | None = None,
    chunks: Sequence[Sequence[int]] | None = None,
    fault_tolerance: FaultTolerance = FaultTolerance(),
    done: Iterable[int] = (),
) -> MasterLog:
    """Run the master side of the PLINGER protocol to completion.

    Parameters
    ----------
    mp:
        The rank-0 message-passing handle (initpass already called).
    kgrid:
        The wavenumber grid with its dispatch ordering.
    init_data:
        The 5 reals broadcast as tag 1 (defaults to
        ``[nk, k_min, k_max, chunk, 0]``, where ``chunk`` is the WORK
        message length when chunked dispatch is on and 0 — the
        paper's wire format — for one-k-at-a-time dispatch).
    on_result:
        Invoked for every completed (header, payload) pair as the
        master banks it — the stand-in for the paper's ascii/binary
        file writes, and where a checkpoint journal hangs.
    chunks:
        Optional chunked dispatch: a partition of the grid indices
        (0-based, in dispatch order) into the k-chunks each WORK
        message carries (see
        :func:`~repro.linger.serial.dispatch_chunks`).  Every WORK and
        STOP message is then ``max(len(chunk))`` reals, zero-padded,
        and a worker earns its next chunk only after returning every
        mode of the previous one.  ``None`` keeps the paper's protocol:
        one wavenumber per WORK message.
    fault_tolerance:
        The loop's deadlines and retry bounds
        (:class:`~repro.resilience.FaultTolerance`).
    done:
        Wavenumber indices (1-based) that need no computing — the
        modes a restart replayed from its journal.  They are never
        dispatched and do not appear in the log.

    What the loop keeps of the paper's:

    * dispatch order — reassigned work goes back out before fresh
      work, each requeued chunk sorted largest-k-first;
    * one reply per ask.  An ask is a READY or the last result of a
      WORK message; its reply is the next chunk or, when none is left,
      a place on the bench until orphaned work turns up or the grid
      completes and the STOP goes out.  The master leaves only when
      every rank has made contact, so no READY stays unread;
    * a READY that a worker *re-sends* because a reply went missing
      carries its attempt number where a first ask carries 0, and
      re-earns the same assignment, never a new one.

    Every inbound record is validated before it is trusted: a corrupt
    or torn result is discarded and the mode recomputed.

    The elastic extension (sockets backend): a rank beyond the launch
    complement that speaks up mid-run — a ``Tag.JOIN`` announcement, or
    any first message from an unknown rank (the announcement itself can
    be lost) — is *admitted*: entered into the liveness books and sent
    the INIT setup it missed, after which the normal protocol
    applies.  The quarantine path already handles its departure.
    """
    nk = kgrid.nk
    if chunks is None:
        chunks = [[int(i)] for i in kgrid.dispatch_order]
    else:
        chunks = [list(map(int, c)) for c in chunks]
        flat = sorted(i for c in chunks for i in c)
        if flat != sorted(range(nk)):
            raise ProtocolError("chunks must partition the k-grid indices")
    work_length = max(len(c) for c in chunks)
    if init_data is None:
        init_data = np.array(
            [float(nk), float(kgrid.k[0]), float(kgrid.k[-1]),
             float(work_length if work_length > 1 else 0), 0.0]
        )
    init_data = np.asarray(init_data, dtype=float)
    if init_data.size != INIT_MESSAGE_LENGTH:
        raise ProtocolError(
            f"init broadcast must carry {INIT_MESSAGE_LENGTH} reals"
        )

    ft = fault_tolerance
    log = MasterLog()
    fr = log.fault
    mp.mybcastreal(init_data, Tag.INIT)
    workers = set(range(mp.nproc)) - {mp.mastid}

    # dispatch-order position of each 1-based ik, for requeue sorting
    pos = {int(i) + 1: p for p, i in enumerate(kgrid.dispatch_order)}
    queue: deque[list[int]] = deque([i + 1 for i in c] for c in chunks)
    requeue: deque[list[int]] = deque()  # reassigned work, dispatched first
    outstanding: dict[int, set[int]] = defaultdict(set)  # rank -> its iks
    # results still to come on each rank's latest WORK message — set at
    # every send, not accumulated, as in the paper's loop: a surplus
    # ask (a READY the transport delivered twice) then deepens the
    # rank's queue by one and still ends in exactly one reply
    owed: dict[int, int] = defaultdict(int)
    retries: dict[int, int] = {}  # per-ik re-dispatch count
    retry_policy = ft.retry_policy()  # shared budget arithmetic
    started = time.monotonic()
    last_seen: dict[int, float] = {}  # rank -> when it last spoke
    lost_at: dict[int, float] = {}  # ik -> when its result was lost
    reassigned_iks: set[int] = set()
    done = {int(ik) for ik in done}
    stopped: set[int] = set()
    quarantined: set[int] = set()
    parked: list[int] = []  # asks on the bench, oldest first

    def next_chunk() -> list[int] | None:
        for source in (requeue, queue):
            while source:
                c = [ik for ik in source.popleft() if ik not in done]
                if c:
                    return c
        return None

    def send_stop(rank: int) -> None:
        mp.mysendreal(np.zeros(work_length), Tag.STOP, rank)
        stopped.add(rank)
        log.stops_sent += 1

    def send_work(rank: int, iks: list[int]) -> None:
        # a re-sent assignment can span two chunks; the worker's
        # receive does not depend on the announced length
        buf = np.zeros(max(work_length, len(iks)))
        buf[: len(iks)] = iks
        mp.mysendreal(buf, Tag.WORK, rank)
        log.dispatched.extend(iks)
        outstanding[rank].update(iks)
        owed[rank] = len(iks)

    def bump_retries(iks: list[int]) -> None:
        t = time.monotonic()
        for ik in iks:
            retries[ik] = retries.get(ik, 0) + 1
            if retry_policy.exhausted(retries[ik]):
                raise ProtocolError(
                    f"wavenumber ik={ik} failed {retries[ik]} dispatches "
                    f"(max_retries={ft.max_retries})"
                )
            lost_at.setdefault(ik, t)
        fr.bump_retry("WORK", len(iks))

    def reply(rank: int) -> None:
        """Answer one ask: the next chunk, or the bench."""
        c = next_chunk()
        if c is not None:
            send_work(rank, c)
        else:
            parked.append(rank)

    def unfinished(rank: int) -> list[int]:
        return sorted(outstanding[rank], key=pos.__getitem__)

    def quarantine(rank: int) -> None:
        quarantined.add(rank)
        parked[:] = [r for r in parked if r != rank]
        fr.dead_workers.append(rank)
        pend = unfinished(rank)
        outstanding[rank] = set()
        if pend:
            bump_retries(pend)
            reassigned_iks.update(pend)
            fr.reassignments += 1
            fr.reassigned_modes = len(reassigned_iks)
            requeue.append(pend)
            # hand the orphaned work straight to the bench
            while parked and (requeue or queue):
                reply(parked.pop(0))

    def admit(rank: int) -> None:
        """The elastic "add rank" path: enter a mid-run newcomer into
        the books and re-send the setup broadcast it missed."""
        workers.add(rank)
        fr.ranks_joined += 1
        mp.mysendreal(init_data, Tag.INIT, rank)

    def overdue(rank: int, now: float) -> bool:
        """Dead, as opposed to busy: a rank heartbeats through a long
        mode or a long wait, so what counts is silence, never how long
        a mode takes.  A rank that has yet to make contact (it may be
        building its tables) has the whole worker timeout."""
        if rank in last_seen:
            return now - last_seen[rank] > ft.silence_seconds
        return now - started > max(ft.worker_timeout, ft.silence_seconds)

    def valid_header(buf: np.ndarray) -> ModeHeader | None:
        # Only the slots the protocol interprets (ik, k, lmax, level)
        # must be finite and well-formed; the physics slots may carry
        # NaN legitimately (e.g. delta_nu_massive in a model with no
        # massive neutrinos).  The escalation level rides as a 22nd
        # real only when it is not zero.
        if buf.size not in (HEADER_LENGTH, HEADER_LENGTH + 1):
            return None
        ik = wire_index(buf[0])
        if ik is None or not 1 <= ik <= nk:
            return None
        if not np.isclose(buf[1], kgrid.k[ik - 1], rtol=1e-9, atol=0.0):
            return None
        lmax = wire_index(buf[20])
        if lmax is None or not 0 <= lmax <= 100_000:
            return None
        level = wire_index(buf[21]) if buf.size > HEADER_LENGTH else 0
        if level is None or level < 0:
            return None
        header = ModeHeader.unpack(buf[:HEADER_LENGTH])
        return replace(header, retry_level=level) if level else header

    def valid_payload(buf: np.ndarray, header: ModeHeader):
        expected = 2 * header.lmax + 8
        if buf.size != expected or not np.all(np.isfinite(buf)):
            return None
        if wire_index(buf[0]) != header.ik:
            return None
        if not np.isclose(buf[1], header.k, rtol=1e-9, atol=0.0):
            return None
        return ModePayload.unpack(buf, header.lmax)

    # until the grid is complete and every rank still on the books has
    # been heard from (the paper's master, too, stays for each worker)
    while len(done) < nk or \
            workers - stopped - quarantined - last_seen.keys():
        wait0 = time.perf_counter()
        probed = mp.myprobe(timeout=ft.poll_seconds)
        log.probe_wait_seconds += time.perf_counter() - wait0

        if probed is None:
            # quiet tick: check the liveness deadlines
            now = time.monotonic()
            for rank in sorted(workers - stopped - quarantined):
                if overdue(rank, now):
                    quarantine(rank)
            if len(done) < nk and workers <= (stopped | quarantined):
                raise ProtocolError(
                    f"all workers lost with {nk - len(done)} of {nk} "
                    "wavenumbers incomplete"
                )
            continue

        tag, rank = probed
        if rank not in workers and rank != mp.mastid:
            admit(rank)
        last_seen[rank] = time.monotonic()

        if tag == Tag.JOIN:
            # the world's announcement of the rank just admitted above
            # (or a duplicate of one); carries no further information
            mp.myrecvraw(Tag.JOIN, rank)
            continue

        if tag == Tag.HEARTBEAT:
            mp.myrecvraw(Tag.HEARTBEAT, rank)
            fr.heartbeats_received += 1
            continue

        if tag == Tag.READY:
            attempt = mp.myrecvraw(Tag.READY, rank)
            resent = attempt.size > 0 and attempt[0] != 0
            if rank in quarantined or rank in stopped:
                # back from the dead; its work is gone — dismiss it
                send_stop(rank)
            elif not resent:
                reply(rank)
            elif outstanding[rank]:
                # it lost our reply: re-earn the same assignment
                pend = unfinished(rank)
                bump_retries(pend)
                fr.ready_resyncs += 1
                send_work(rank, pend)
            elif rank not in parked:
                reply(rank)  # the ask itself was lost
            continue

        if tag == Tag.PAYLOAD:
            # no header in flight for this rank: an orphan
            mp.myrecvraw(Tag.PAYLOAD, rank)
            fr.orphan_payloads += 1
            continue

        if tag != Tag.HEADER:
            mp.myrecvraw(tag, rank)
            fr.unexpected_tags += 1
            continue

        buf = mp.myrecvraw(Tag.HEADER, rank)
        header = valid_header(buf)
        if header is None:
            fr.corrupt_results += 1
            continue
        if header.ik in done:
            # a transport-duplicated result; its payload (if also
            # duplicated) will surface as an orphan
            fr.duplicate_results += 1
            continue
        if mp.myprobe(Tag.PAYLOAD, rank, timeout=ft.payload_timeout) is None:
            fr.payload_timeouts += 1
            continue
        payload = valid_payload(mp.myrecvraw(Tag.PAYLOAD, rank), header)
        if payload is None:
            fr.corrupt_results += 1
            continue

        done.add(header.ik)
        for r in workers:
            outstanding[r].discard(header.ik)
        log.headers.append(header)
        log.payloads.append(payload)
        if on_result is not None:
            on_result(header, payload)
        if header.retry_level > 0:
            fr.degraded_modes.append(
                {"ik": header.ik, "level": header.retry_level}
            )
        if header.ik in lost_at:
            fr.recovery_wall_seconds += time.monotonic() - \
                lost_at.pop(header.ik)
        owed[rank] -= 1
        # an ask: its latest WORK message is complete, or nothing of
        # its is left in flight (another rank delivered the rest)
        if rank not in stopped and rank not in quarantined \
                and (owed[rank] <= 0 or not outstanding[rank]):
            reply(rank)

    # a STOP for every ask on the bench, and one for every rank that
    # never got that far (a genuinely dead rank simply never reads it)
    for rank in parked + sorted(workers - stopped - set(parked)):
        send_stop(rank)

    return log
