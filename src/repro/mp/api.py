"""The eight PLINGER message-passing wrapper routines.

The paper (Appendix A) defines this exact interface and implements it
over PVM, MPI, MPL and PVMe.  :class:`MessagePassing` is the per-rank
handle; a :class:`World` owns the mailboxes and constructs handles.
Semantics follow the paper's MPI implementation:

* ``mycheckany``  — block until *some* message is pending; return its
  (tag, source) without consuming it (MPI_PROBE(ANY, ANY)).
* ``mycheckone``  — block until a message with the given tag from the
  given source is pending (MPI_PROBE(src, tag)).
* ``mychecktid``  — block until any message from the given source is
  pending; return its tag (MPI_PROBE(src, ANY)).
* ``myrecvreal``  — consume the first pending message matching
  (tag, source); the length must match exactly (protocol check).
* ``mybcastreal`` — master sends the buffer to every other rank (the
  paper implements broadcast as a send loop).

Every handle counts messages and payload bytes so the benchmarks can
report the paper's message-economics table directly.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import MessagePassingError
from .message import Message

__all__ = ["MessagePassing", "World", "get_backend", "available_backends"]


@dataclass
class TrafficStats:
    """Per-rank accounting of message traffic.

    Totals plus per-tag breakdowns (``{tag: {"count", "bytes"}}``) —
    the raw material of the paper's message-economics table, consumed
    by :mod:`repro.telemetry`.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    sent_by_tag: dict[int, dict[str, int]] = field(default_factory=dict)
    received_by_tag: dict[int, dict[str, int]] = field(default_factory=dict)

    @staticmethod
    def _note(by_tag: dict, msg: Message) -> None:
        slot = by_tag.get(msg.tag)
        if slot is None:
            slot = by_tag[msg.tag] = {"count": 0, "bytes": 0}
        slot["count"] += 1
        slot["bytes"] += msg.nbytes

    def note_send(self, msg: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += msg.nbytes
        self._note(self.sent_by_tag, msg)

    def note_recv(self, msg: Message) -> None:
        self.messages_received += 1
        self.bytes_received += msg.nbytes
        self._note(self.received_by_tag, msg)

    def as_dict(self) -> dict:
        """JSON-able form (tag keys stringified)."""
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "messages_received": self.messages_received,
            "bytes_received": self.bytes_received,
            "sent_by_tag": {str(t): dict(v)
                            for t, v in self.sent_by_tag.items()},
            "received_by_tag": {str(t): dict(v)
                                for t, v in self.received_by_tag.items()},
        }


class MessagePassing(abc.ABC):
    """Abstract per-rank handle implementing the wrapper routines."""

    def __init__(self, rank: int, nproc: int, mastid: int = 0) -> None:
        self._rank = rank
        self._nproc = nproc
        self._mastid = mastid
        self._initialized = False
        self.stats = TrafficStats()
        # sends may come from two threads of one rank (the worker main
        # loop and its heartbeat thread); serialize them so the traffic
        # counters stay exact
        self._send_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def initpass(self) -> tuple[int, int]:
        """Initialize message passing; returns (mytid, mastid)."""
        self._initialized = True
        return self._rank, self._mastid

    def endpass(self) -> None:
        """Exit message passing."""
        self._initialized = False

    def _require_init(self) -> None:
        if not self._initialized:
            raise MessagePassingError("initpass() has not been called")

    # -- identity ------------------------------------------------------------

    @property
    def mytid(self) -> int:
        return self._rank

    @property
    def mastid(self) -> int:
        return self._mastid

    @property
    def nproc(self) -> int:
        return self._nproc

    # -- transport primitives (backend-specific) ----------------------------

    @abc.abstractmethod
    def _deliver(self, target: int, msg: Message) -> None:
        """Enqueue ``msg`` in ``target``'s mailbox."""

    @abc.abstractmethod
    def _probe(self, tag: int | None, source: int | None) -> Message:
        """Block until a matching message is pending; return it without
        consuming it."""

    @abc.abstractmethod
    def _consume(self, tag: int, source: int) -> Message:
        """Block until a matching message is pending; remove and return it."""

    def _probe_deadline(
        self, tag: int | None, source: int | None, timeout: float
    ) -> Message | None:
        """Block up to ``timeout`` seconds for a matching message; return
        it without consuming, or ``None`` on timeout.  Backends override
        this with a real timed wait; the base implementation degrades to
        the blocking probe (no liveness)."""
        return self._probe(tag, source)

    # -- the paper's routines -------------------------------------------------

    def mysendreal(self, buffer, msgtype: int, target: int) -> None:
        """Send ``buffer`` (float64 values) with tag ``msgtype`` to ``target``."""
        self._require_init()
        if not 0 <= target < self.nproc:
            raise MessagePassingError(f"invalid target rank {target}")
        msg = Message.make(self._rank, msgtype, buffer)
        with self._send_lock:
            self.stats.note_send(msg)
            self._deliver(target, msg)

    def mybcastreal(self, buffer, msgtype: int) -> None:
        """Send ``buffer`` to every other rank (the paper's send loop)."""
        self._require_init()
        for target in range(self.nproc):
            if target != self._rank:
                self.mysendreal(buffer, msgtype, target)

    def mycheckany(self) -> tuple[int, int]:
        """Wait for a message of any type from any process.

        Returns (msgtype, source)."""
        self._require_init()
        msg = self._probe(None, None)
        return msg.tag, msg.source

    def mycheckone(self, msgtype: int, target: int) -> None:
        """Wait for a message of type ``msgtype`` from ``target``."""
        self._require_init()
        self._probe(msgtype, target)

    def mychecktid(self, target: int) -> int:
        """Wait for a message of any type from ``target``; return its tag."""
        self._require_init()
        return self._probe(None, target).tag

    def myrecvreal(self, length: int, msgtype: int, target: int) -> np.ndarray:
        """Receive ``length`` float64 values of type ``msgtype`` from
        ``target``."""
        self._require_init()
        msg = self._consume(msgtype, target)
        if msg.length != length:
            raise MessagePassingError(
                f"rank {self._rank}: expected {length} reals "
                f"(tag {msgtype} from {target}), got {msg.length}"
            )
        self.stats.note_recv(msg)
        return msg.data.copy()

    # -- liveness extensions (not in the paper) -------------------------------

    def myprobe(
        self,
        msgtype: int | None = None,
        source: int | None = None,
        timeout: float = 0.0,
    ) -> tuple[int, int] | None:
        """Timed probe: wait up to ``timeout`` seconds for a matching
        message and return its ``(tag, source)`` without consuming it,
        or ``None`` if nothing matched in time.

        This is the master's liveness primitive — unlike the paper's
        blocking ``mycheck*`` routines it lets a scheduler notice that a
        worker has gone silent instead of waiting forever.
        """
        self._require_init()
        msg = self._probe_deadline(msgtype, source, float(timeout))
        return None if msg is None else (msg.tag, msg.source)

    def myrecvraw(self, msgtype: int, target: int) -> np.ndarray:
        """Consume the first pending ``(msgtype, target)`` message and
        return its payload *whatever its length*.

        The strict-length :meth:`myrecvreal` is the protocol-checking
        receive; this variant exists for fault-tolerant paths that must
        be able to drain a corrupted or mis-sized message in order to
        discard it instead of dying on it.
        """
        self._require_init()
        msg = self._consume(msgtype, target)
        self.stats.note_recv(msg)
        return msg.data.copy()

    # -- out-of-band telemetry ------------------------------------------------

    def publish_telemetry(self, payload: dict) -> None:
        """Make a JSON-able telemetry blob available to the launching
        process via :meth:`World.collect_telemetry`.

        This is *not* a protocol message: it bypasses the mailboxes and
        the traffic counters, so instrumented and uninstrumented runs
        exchange exactly the same PLINGER messages.  The base
        implementation discards the payload; backends whose handles can
        reach their world publish into it.
        """


class World(abc.ABC):
    """A communicator: owns the mailboxes, constructs per-rank handles."""

    def __init__(self, nproc: int) -> None:
        if nproc < 1:
            raise MessagePassingError("nproc must be >= 1")
        self.nproc = nproc
        self._telemetry: dict[int, dict] = {}

    @abc.abstractmethod
    def handle(self, rank: int) -> MessagePassing:
        """The message-passing handle for ``rank``."""

    def publish_telemetry(self, rank: int, payload: dict) -> None:
        """Store rank-``rank``'s telemetry blob for later collection."""
        self._telemetry[rank] = payload

    def collect_telemetry(self) -> dict[int, dict]:
        """Telemetry blobs published by ranks, keyed by rank.

        Valid after the ranks have finished (for process-based worlds,
        after :meth:`join`); ranks that published nothing are absent.
        """
        return dict(self._telemetry)


def available_backends() -> tuple[str, ...]:
    return ("serial", "inprocess", "procs", "sockets")


def get_backend(name: str, nproc: int) -> World:
    """Construct a :class:`World` for the named backend.

    ``serial`` supports only nproc=1 (loopback); ``inprocess`` runs
    ranks as threads in this process; ``procs`` runs ranks as forked
    processes (the closest local analogue of PVM/MPI daemons);
    ``sockets`` runs ranks as separate OS processes speaking a binary
    frame protocol over real TCP — locally forked by default, but the
    same world accepts remote ``repro worker --connect`` ranks.
    """
    if name == "serial":
        from .backends.serial import SerialWorld

        return SerialWorld(nproc)
    if name == "inprocess":
        from .backends.inprocess import InProcessWorld

        return InProcessWorld(nproc)
    if name == "procs":
        from .backends.procs import ProcsWorld

        return ProcsWorld(nproc)
    if name == "sockets":
        from .backends.sockets import SocketsWorld

        return SocketsWorld(nproc)
    raise MessagePassingError(
        f"unknown backend {name!r}; choose from {available_backends()}"
    )
