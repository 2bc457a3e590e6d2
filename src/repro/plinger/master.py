"""The master subroutine (the paper's ``parentsub``).

The master broadcasts the run setup, then sits in a probe loop:
ready-requests (tag 2) and completed headers (tag 4, followed by the
tag-5 payload whose length the header announces) both earn the sending
worker its next wavenumber (tag 3) — or a stop message (tag 6) when the
grid is exhausted.  Wavenumbers go out in dispatch order: largest
first, so the expensive modes never land at the end of the run.

Passing a :class:`~repro.resilience.FaultTolerance` switches to
the fault-tolerant master: same wire tags (headers grow a 22nd value,
the retry level), but a timed probe loop with per-worker liveness
deadlines, validation of every inbound record, quarantine of dead
workers, and bounded reassignment of their outstanding wavenumbers.
The legacy path is byte-identical to the paper's protocol.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..errors import ProtocolError
from ..linger.kgrid import KGrid
from ..linger.records import HEADER_LENGTH, ModeHeader, ModePayload
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
    ``fault`` is populated only by the fault-tolerant master.
    """

    headers: list[ModeHeader] = field(default_factory=list)
    payloads: list[ModePayload] = field(default_factory=list)
    dispatched: list[int] = field(default_factory=list)
    stops_sent: int = 0
    probe_wait_seconds: float = 0.0
    fault: FaultReport | None = None


def master_subroutine(
    mp: MessagePassing,
    kgrid: KGrid,
    init_data: np.ndarray | None = None,
    on_result: Callable[[ModeHeader, ModePayload], None] | None = None,
    chunks: Sequence[Sequence[int]] | None = None,
    fault_tolerance: FaultTolerance | None = None,
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
        Invoked for every completed (header, payload) pair — the
        stand-in for the paper's ascii/binary file writes.
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
        A :class:`~repro.resilience.FaultTolerance` policy
        switches to the resilient master loop (liveness deadlines,
        quarantine, reassignment, validated records); ``None`` keeps
        the paper's fail-loudly protocol exactly.
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

    log = MasterLog()
    mp.mybcastreal(init_data, Tag.INIT)

    if fault_tolerance is not None:
        return _master_fault_tolerant(
            mp, kgrid, on_result, chunks, work_length, fault_tolerance, log,
            init_data)

    next_chunk = 0  # position in chunks
    ik_done = 0
    pending: dict[int, int] = {}  # rank -> modes outstanding in its chunk

    while ik_done < nk or log.stops_sent < mp.nproc - 1:
        wait0 = time.perf_counter()
        msgtype, itid = mp.mycheckany()
        log.probe_wait_seconds += time.perf_counter() - wait0

        if msgtype == Tag.READY:
            # the request carries no data; dispose of it
            mp.myrecvreal(1, Tag.READY, itid)
        elif msgtype == Tag.HEADER:
            buf = mp.myrecvreal(HEADER_LENGTH, Tag.HEADER, itid)
            header = ModeHeader.unpack(buf)
            # the next message's length depends on lmax
            mp.mycheckone(Tag.PAYLOAD, itid)
            buf2 = mp.myrecvreal(2 * header.lmax + 8, Tag.PAYLOAD, itid)
            payload = ModePayload.unpack(buf2, header.lmax)
            log.headers.append(header)
            log.payloads.append(payload)
            if on_result is not None:
                on_result(header, payload)
            ik_done += 1
            pending[itid] = pending.get(itid, 1) - 1
            if pending[itid] > 0:
                # mid-chunk: this rank owes more results before its
                # next work (READY messages always earn a reply, as in
                # the unchunked protocol — a duplicated READY from a
                # transport retry must not stall the books)
                continue
        else:
            raise ProtocolError(
                f"master received unexpected tag {msgtype} from rank {itid}"
            )

        # reply to the worker that just spoke: more work, or stop
        buf = np.zeros(work_length)
        if next_chunk < len(chunks):
            iks = [i + 1 for i in chunks[next_chunk]]  # 1-based, as in F77
            buf[: len(iks)] = iks
            mp.mysendreal(buf, Tag.WORK, itid)
            log.dispatched.extend(iks)
            # set, not accumulate: a surplus result (duplicated-message
            # fault) then drives the count negative and earns a reply,
            # preserving the unchunked one-reply-per-message invariant
            pending[itid] = len(iks)
            next_chunk += 1
        else:
            mp.mysendreal(buf, Tag.STOP, itid)
            log.stops_sent += 1

    return log


#: Wire length of a fault-tolerant header: the paper's 21 values plus
#: the escalation-ladder level.
FT_HEADER_LENGTH = HEADER_LENGTH + 1

#: Tolerance for "this wire value should be an integer".
_INTEGRAL_EPS = 1e-6


def _as_index(value: float) -> int | None:
    """Round a wire value to an index, or None if it isn't integral."""
    if not np.isfinite(value) or abs(value - round(value)) > _INTEGRAL_EPS:
        return None
    return int(round(value))


def _master_fault_tolerant(
    mp: MessagePassing,
    kgrid: KGrid,
    on_result,
    chunks: list[list[int]],
    work_length: int,
    ft: FaultTolerance,
    log: MasterLog,
    init_data: np.ndarray,
) -> MasterLog:
    """The resilient master loop.

    Invariants relative to the paper's protocol:

    * dispatch order is preserved — reassigned work goes back out
      before fresh work, each requeued chunk sorted largest-k-first;
    * a worker still earns exactly one reply per completed unit of
      work — but only once its whole assignment is accounted for, and
      replies lost in flight are recovered by the worker re-sending
      READY (which re-earns the same assignment, never a new one);
    * every inbound record is validated before it is trusted: a
      corrupt or torn result is discarded and the mode recomputed.

    The elastic extension (sockets backend): a rank beyond the launch
    complement that speaks up mid-run — a ``Tag.JOIN`` announcement, or
    any first message from an unknown rank (the announcement itself can
    be lost) — is *admitted*: entered into the liveness books and sent
    the INIT setup it missed, after which the normal protocol
    applies.  The quarantine path already handles its departure.
    """
    nk = kgrid.nk
    fr = FaultReport()
    log.fault = fr
    workers = set(range(mp.nproc)) - {mp.mastid}

    # dispatch-order position of each 1-based ik, for requeue sorting
    pos = {int(i) + 1: p for p, i in enumerate(kgrid.dispatch_order)}
    queue: deque[list[int]] = deque([i + 1 for i in c] for c in chunks)
    requeue: deque[list[int]] = deque()  # reassigned work, dispatched first
    outstanding: dict[int, set[int]] = {r: set() for r in workers}
    retries: dict[int, int] = {}  # per-ik re-dispatch count
    retry_policy = ft.retry_policy()  # shared budget arithmetic
    now = time.monotonic()
    last_seen: dict[int, float] = {r: now for r in workers}
    lost_at: dict[int, float] = {}  # ik -> when its result was lost
    reassigned_iks: set[int] = set()
    done: set[int] = set()
    stopped: set[int] = set()
    quarantined: set[int] = set()
    idle: set[int] = set()  # live ranks parked until reassignable work

    def next_chunk() -> list[int] | None:
        while requeue:
            c = [ik for ik in requeue.popleft() if ik not in done]
            if c:
                return c
        while queue:
            c = [ik for ik in queue.popleft() if ik not in done]
            if c:
                return c
        return None

    def send_stop(rank: int) -> None:
        mp.mysendreal(np.zeros(work_length), Tag.STOP, rank)
        stopped.add(rank)
        idle.discard(rank)
        log.stops_sent += 1

    def send_work(rank: int, iks: list[int]) -> None:
        buf = np.zeros(work_length)
        buf[: len(iks)] = iks
        mp.mysendreal(buf, Tag.WORK, rank)
        log.dispatched.extend(iks)
        outstanding[rank] = set(iks)
        idle.discard(rank)

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

    def reply_with_work(rank: int) -> None:
        """Rank finished its assignment: next chunk, park, or stop."""
        c = next_chunk()
        if c is not None:
            send_work(rank, c)
        elif any(outstanding[r] for r in workers if r != rank):
            # work is still in flight elsewhere and may yet need
            # reassignment; keep this rank on the bench
            idle.add(rank)
        else:
            send_stop(rank)

    def quarantine(rank: int) -> None:
        quarantined.add(rank)
        idle.discard(rank)
        fr.dead_workers.append(rank)
        pend = sorted(outstanding[rank] - done, key=pos.__getitem__)
        outstanding[rank] = set()
        if pend:
            bump_retries(pend)
            reassigned_iks.update(pend)
            fr.reassignments += 1
            fr.reassigned_modes = len(reassigned_iks)
            requeue.append(pend)
            # hand the orphaned work straight to any benched rank
            while idle and (requeue or queue):
                reply_with_work(min(idle))

    def admit(rank: int) -> None:
        """The elastic "add rank" path: enter a mid-run newcomer into
        the books and re-send the setup broadcast it missed."""
        workers.add(rank)
        outstanding[rank] = set()
        last_seen[rank] = time.monotonic()
        fr.ranks_joined += 1
        mp.mysendreal(init_data, Tag.INIT, rank)

    def valid_header(buf: np.ndarray) -> ModeHeader | None:
        # Only the slots the protocol interprets (ik, k, lmax, level)
        # must be finite and well-formed; the physics slots may carry
        # NaN legitimately (e.g. delta_nu_massive in a model with no
        # massive neutrinos), exactly as on the paper's 21-value wire.
        if buf.size != FT_HEADER_LENGTH:
            return None
        ik = _as_index(buf[0])
        if ik is None or not 1 <= ik <= nk:
            return None
        if not np.isclose(buf[1], kgrid.k[ik - 1], rtol=1e-9, atol=0.0):
            return None
        lmax = _as_index(buf[20])
        if lmax is None or not 0 <= lmax <= 100_000:
            return None
        level = _as_index(buf[21])
        if level is None or level < 0:
            return None
        header = ModeHeader.unpack(buf[:HEADER_LENGTH])
        return replace(header, retry_level=level)

    def valid_payload(buf: np.ndarray, header: ModeHeader):
        expected = 2 * header.lmax + 8
        if buf.size != expected or not np.all(np.isfinite(buf)):
            return None
        if _as_index(buf[0]) != header.ik:
            return None
        if not np.isclose(buf[1], header.k, rtol=1e-9, atol=0.0):
            return None
        return ModePayload.unpack(buf, header.lmax)

    while len(done) < nk:
        wait0 = time.perf_counter()
        probed = mp.myprobe(timeout=ft.poll_seconds)
        log.probe_wait_seconds += time.perf_counter() - wait0

        if probed is None:
            # quiet tick: check the liveness deadlines
            now = time.monotonic()
            for rank in sorted(workers - stopped - quarantined):
                if now - last_seen[rank] > ft.silence_seconds:
                    quarantine(rank)
            if workers <= (stopped | quarantined):
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
            mp.myrecvraw(Tag.READY, rank)
            if rank in quarantined or rank in stopped:
                # back from the dead; its work is gone — dismiss it
                send_stop(rank)
            elif outstanding[rank] - done:
                # it lost our reply: re-earn the same assignment
                pend = sorted(outstanding[rank] - done, key=pos.__getitem__)
                bump_retries(pend)
                fr.ready_resyncs += 1
                send_work(rank, pend)
            else:
                outstanding[rank] = set()
                reply_with_work(rank)
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
        if rank not in stopped and rank not in quarantined \
                and not outstanding[rank]:
            reply_with_work(rank)

    # grid complete: release everyone still on the books (a genuinely
    # dead rank simply never reads its stop message)
    for rank in sorted(workers - stopped):
        send_stop(rank)

    return log
