"""TCP-sockets backend: PLINGER across a real host boundary.

Every other backend (serial, inprocess, procs, faulty) keeps all ranks
inside one host; this one carries the same eight wrapper routines over
TCP, as the RPMP frames of :mod:`repro.mp.message` (HELLO / WELCOME,
then MSG, TELEMETRY, BYE), so ranks can live anywhere that can reach
the master's listener.  The topology is the paper's: a star with the
master at the hub.  Rank 0 owns a listening socket; every worker rank
holds one connection to it, and worker-to-worker messages (none in the
PLINGER protocol, but the wrapper permits them) go through the hub.

**A fixed world.**  As in the paper's ``initpass``, the ranks are
fixed at launch: the first ``nproc - 1`` processes to say HELLO are
seated as ranks 1 .. nproc-1, and a HELLO once the complement is seated
is refused by closing the connection before any WELCOME.  The hub
trusts no rank a frame claims: a frame whose source is not its
connection's rank drops that connection.  Ranks may die mid-run: a
broken connection stops delivery to that rank (sends are swallowed
like packets to a dead host) and the master's liveness deadlines
quarantine it and reassign its work.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
from functools import partial

from ...errors import MessagePassingError
from ..api import MessagePassing, World
from ..message import (FRAME_BYE, FRAME_HELLO, FRAME_MSG, FRAME_TELEMETRY,
                       FRAME_WELCOME, MAGIC, MAX_FRAME_BYTES, FrameDecoder,
                       FrameError, Message, decode_message, decode_telemetry,
                       encode_frame, encode_message, encode_telemetry,
                       first_match)
from .procs import ForkedChild, fork_child, reap

__all__ = [
    "MAGIC", "MAX_FRAME_BYTES", "PROTOCOL_VERSION",
    "FRAME_HELLO", "FRAME_WELCOME", "FRAME_MSG", "FRAME_TELEMETRY",
    "FRAME_BYE", "FrameError", "FrameDecoder",
    "encode_frame", "encode_message", "decode_message",
    "SocketsWorld", "SocketsMasterHandle", "SocketsWorkerHandle",
    "connect_worker",
]

PROTOCOL_VERSION = 1

_HELLO = struct.Struct("<Ii")           # protocol version, pid
_WELCOME = struct.Struct("<iii")        # rank, nproc, mastid

_DEFAULT_TIMEOUT = 600.0
_RECV_CHUNK = 1 << 16


def _read_frames(sock: socket.socket, decoder: FrameDecoder,
                 ) -> list[tuple[int, bytes]]:
    """Block until at least one frame decodes; return the batch."""
    while True:
        data = sock.recv(_RECV_CHUNK)
        if not data:
            raise FrameError("connection closed mid-frame")
        frames = decoder.feed(data)
        if frames:
            return frames


# -- mailboxes and connections ---------------------------------------------


class _Mailbox:
    """Thread-safe pending-message store with timed matching waits.

    FIFO per (tag, source) filter, like every other backend's mailbox;
    ``close()`` wakes all waiters (the connection died — a hard wait
    raises, a soft wait returns ``None``).
    """

    def __init__(self) -> None:
        self._items: list[Message] = []
        self._cond = threading.Condition()
        self._closed = False

    def put(self, msg: Message) -> None:
        with self._cond:
            self._items.append(msg)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def wait(self, tag, source, remove: bool, timeout: float,
             soft: bool, who: str = "sockets mailbox") -> Message | None:
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                found = first_match(self._items, tag, source, remove)
                if found is not None:
                    return found
                if self._closed:
                    if soft:
                        return None
                    raise MessagePassingError(f"{who}: connection closed")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    if soft:
                        return None
                    raise MessagePassingError(
                        f"{who}: no matching message "
                        f"(tag={tag}, source={source}) "
                        f"within {timeout:.1f}s")
                self._cond.wait(min(remaining, 0.25))


class _Connection:
    """Master-side state for one worker rank's socket."""

    def __init__(self, sock: socket.socket, rank: int, pid: int) -> None:
        self.sock = sock
        self.rank = rank
        self.pid = pid
        self.alive = True
        self.thread: threading.Thread | None = None
        self._wlock = threading.Lock()
        # measured TCP traffic, frame overhead included
        self.bytes_sent = 0
        self.bytes_received = 0

    def send_bytes(self, frame: bytes) -> None:
        with self._wlock:
            if not self.alive:
                raise OSError("connection closed")
            self.sock.sendall(frame)
            self.bytes_sent += len(frame)

    def shutdown(self) -> None:
        with self._wlock:
            self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _Bye(Exception):
    """Internal: a worker said goodbye cleanly."""


# -- the world -------------------------------------------------------------


class SocketsWorld(World):
    """Master-side communicator for the TCP backend.

    Lives in the master's process: owns the listener, one connection
    (with a reader thread) per worker rank, and the master's mailbox.
    Workers are either forked locally by :meth:`launch` (each child
    connects back over real TCP on the loopback — still genuinely
    separate OS processes speaking the wire protocol) or, with
    ``spawn_workers=False``, external processes started by hand
    (``repro worker --connect HOST:PORT``) on any machine.
    """

    def __init__(self, nproc: int, host: str = "127.0.0.1", port: int = 0,
                 spawn_workers: bool = True,
                 timeout: float = _DEFAULT_TIMEOUT,
                 connect_timeout: float = 60.0) -> None:
        super().__init__(nproc)
        self.spawn_workers = spawn_workers
        self._timeout = float(timeout)
        self._connect_timeout = float(connect_timeout)
        self._lock = threading.RLock()
        self._mailbox = _Mailbox()
        self._conns: dict[int, _Connection] = {}
        self._next_rank = 1
        self._children: list[ForkedChild] = []
        self._handle0: SocketsMasterHandle | None = None
        self._closed = False
        self.dropped_sends = 0      #: messages swallowed to dead ranks

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="sockets-accept", daemon=True)
        self._accept_thread.start()

    # -- wiring ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) workers connect to."""
        return self.host, self.port

    @property
    def rank_pids(self) -> dict[int, int]:
        """pid of each connected rank, as reported in its HELLO."""
        with self._lock:
            return {r: c.pid for r, c in sorted(self._conns.items())}

    def wire_stats(self) -> dict[int, dict[str, int]]:
        """Measured TCP bytes per rank, master's perspective, frame
        overhead included (``{rank: {"sent", "received"}}``).  Dead
        ranks keep their totals."""
        with self._lock:
            return {r: {"sent": c.bytes_sent, "received": c.bytes_received}
                    for r, c in sorted(self._conns.items())}

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: world shutting down
            threading.Thread(target=self._handshake, args=(sock,),
                             name="sockets-handshake", daemon=True).start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        decoder = FrameDecoder()
        try:
            sock.settimeout(30.0)
            frames = _read_frames(sock, decoder)
            kind, body = frames[0]
            if kind != FRAME_HELLO:
                raise FrameError(f"expected HELLO, got kind {kind}")
            version, pid = _HELLO.unpack(body)
            if version != PROTOCOL_VERSION:
                raise FrameError(f"protocol version {version} != "
                                 f"{PROTOCOL_VERSION}")
            sock.settimeout(None)
        except (OSError, FrameError, struct.error):
            try:
                sock.close()
            except OSError:
                pass
            return

        with self._lock:
            # a closing world, or a complement already seated: refused
            # before any WELCOME, so the stranger's connect_worker fails
            if self._closed or self._next_rank >= self.nproc:
                try:
                    sock.close()
                except OSError:
                    pass
                return
            rank = self._next_rank
            self._next_rank += 1
        conn = _Connection(sock, rank, pid)
        try:
            conn.send_bytes(encode_frame(
                FRAME_WELCOME, _WELCOME.pack(rank, self.nproc, 0)))
        except OSError:
            conn.shutdown()
            return
        # register only after WELCOME is on the wire, so the worker's
        # first frame is always the WELCOME (a send racing in through
        # the registered connection could otherwise precede it)
        with self._lock:
            self._conns[rank] = conn
        reader = threading.Thread(
            target=self._serve_conn, args=(conn, decoder, frames[1:]),
            name=f"sockets-rank{rank}", daemon=True)
        conn.thread = reader
        reader.start()

    def _serve_conn(self, conn: _Connection, decoder: FrameDecoder,
                    initial: list[tuple[int, bytes]]) -> None:
        try:
            for kind, body in initial:
                self._dispatch(conn, kind, body)
            while True:
                data = conn.sock.recv(_RECV_CHUNK)
                if not data:
                    break
                conn.bytes_received += len(data)
                for kind, body in decoder.feed(data):
                    self._dispatch(conn, kind, body)
        except (_Bye, OSError, FrameError):
            pass
        finally:
            self._drop(conn.rank)

    def _dispatch(self, conn: _Connection, kind: int, body: bytes) -> None:
        # a frame speaks for its connection's rank or for nobody: one
        # that claims another source is refused and the connection
        # dropped (the liveness deadlines then reclaim the rank's work)
        if kind == FRAME_MSG:
            msg, target = decode_message(body)
            if msg.source != conn.rank:
                raise FrameError(f"rank {conn.rank} sent a frame claiming "
                                 f"source rank {msg.source}")
            self.route(target, msg)
        elif kind == FRAME_TELEMETRY:
            rank, payload = decode_telemetry(body)
            if rank != conn.rank:
                raise FrameError(f"rank {conn.rank} sent telemetry "
                                 f"claiming rank {rank}")
            with self._lock:
                self._telemetry[rank] = payload
        elif kind == FRAME_BYE:
            raise _Bye
        else:
            raise FrameError(f"unexpected mid-stream frame kind {kind}")

    def route(self, target: int, msg: Message) -> None:
        """Deliver ``msg`` to ``target``'s mailbox — the master's own,
        or down the target's socket.  A dead or unknown target swallows
        the message (the network analogue of a packet to a dead host;
        the liveness layer, not the transport, notices the silence)."""
        if target == 0:
            self._mailbox.put(msg)
            return
        with self._lock:
            conn = self._conns.get(target)
        if conn is None or not conn.alive:
            with self._lock:
                self.dropped_sends += 1
            return
        try:
            conn.send_bytes(encode_message(msg, target))
        except OSError:
            self._drop(target)
            with self._lock:
                self.dropped_sends += 1

    def _drop(self, rank: int) -> None:
        with self._lock:
            conn = self._conns.get(rank)
        if conn is not None and conn.alive:
            conn.shutdown()

    # -- lifecycle ---------------------------------------------------------

    def handle(self, rank: int) -> "SocketsMasterHandle":
        if rank != 0:
            raise MessagePassingError(
                "sockets worker ranks live in other processes and hold "
                "their own handles (connect_worker); only rank 0 is here")
        if self._handle0 is None:
            self._handle0 = SocketsMasterHandle(self)
        return self._handle0

    def launch(self, entry, *args) -> None:
        """Start the worker complement and wait for it to connect.

        With ``spawn_workers`` (the default) each worker rank is a
        forked child running ``entry(handle, *args)`` after dialing
        home; with ``spawn_workers=False`` this just waits for
        ``nproc - 1`` external processes to connect.
        """
        if self.spawn_workers:
            for _ in range(self.nproc - 1):
                self._children.append(fork_child(partial(
                    _forked_worker_main, self.host, self.port, entry, args),
                    self._children))
        want = self.nproc - 1
        deadline = time.monotonic() + self._connect_timeout
        while time.monotonic() < deadline:
            with self._lock:
                live = sum(1 for c in self._conns.values() if c.alive)
            if live >= want:
                return
            time.sleep(0.02)
        with self._lock:
            live = sum(1 for c in self._conns.values() if c.alive)
        raise MessagePassingError(
            f"only {live} of {want} sockets workers connected within "
            f"{self._connect_timeout:.0f}s")

    def child_pid(self, rank: int) -> int:
        """OS pid of ``rank`` (as reported in its HELLO) — the chaos
        suite's SIGKILL lever."""
        with self._lock:
            conn = self._conns.get(rank)
        if conn is None:
            raise MessagePassingError(f"rank {rank} never connected")
        return conn.pid

    def join(self, timeout: float | None = None, strict: bool = True) -> None:
        """Wait for worker connections to close and children to exit.

        ``strict`` raises if a worker had to be torn down forcibly (a
        run whose master quarantined a rank passes ``strict=False``:
        quarantined ranks never say goodbye).
        """
        timeout = self._timeout if timeout is None else float(timeout)
        deadline = time.monotonic() + timeout
        stragglers = 0
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            reader = conn.thread
            if reader is not None:
                reader.join(max(0.0, deadline - time.monotonic()))
                if reader.is_alive():
                    stragglers += 1
                    self._drop(conn.rank)
                    reader.join(1.0)
        stragglers += reap(self._children,
                           max(0.1, min(5.0, deadline - time.monotonic())))
        self._children = []
        self.close()
        if stragglers and strict:
            raise MessagePassingError(
                f"{stragglers} sockets worker(s) failed to exit cleanly")

    def close(self) -> None:
        """Tear the world down: listener, connections, mailbox."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            # a bare close leaves the accept thread blocked, and the
            # socket listening, for the life of the process
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.shutdown()
        self._mailbox.close()


def _forked_worker_main(host: str, port: int, entry, args,
                        _exit_w: int) -> None:
    """Child-process body for locally forked worker ranks."""
    try:
        handle = connect_worker(host, port)
    except (OSError, MessagePassingError):
        return
    entry(handle, *args)


# -- handles ---------------------------------------------------------------


class SocketsMasterHandle(MessagePassing):
    """Rank 0's handle: mailbox-backed, sends routed through the hub."""

    def __init__(self, world: SocketsWorld) -> None:
        super().__init__(0, world.nproc)
        self._world = world

    def publish_telemetry(self, payload: dict) -> None:
        self._world.publish_telemetry(0, payload)

    def _deliver(self, target: int, msg: Message) -> None:
        self._world.route(target, msg)

    def _probe(self, tag, source) -> Message:
        return self._world._mailbox.wait(
            tag, source, remove=False, timeout=self._world._timeout,
            soft=False, who="rank 0")

    def _probe_deadline(self, tag, source, timeout: float) -> Message | None:
        return self._world._mailbox.wait(
            tag, source, remove=False, timeout=timeout, soft=True)

    def _consume(self, tag: int, source: int) -> Message:
        return self._world._mailbox.wait(
            tag, source, remove=True, timeout=self._world._timeout,
            soft=False, who="rank 0")


class SocketsWorkerHandle(MessagePassing):
    """A worker rank's handle: one socket to the master, one reader
    thread filling the local mailbox.  Constructed by
    :func:`connect_worker` in the worker's own process (possibly on a
    different machine)."""

    def __init__(self, sock: socket.socket, decoder: FrameDecoder,
                 rank: int, nproc: int, mastid: int,
                 initial: list[tuple[int, bytes]] = (),
                 timeout: float = _DEFAULT_TIMEOUT) -> None:
        super().__init__(rank, nproc, mastid)
        self._sock = sock
        self._wlock = threading.Lock()
        self._mailbox = _Mailbox()
        self._timeout = float(timeout)
        self._closed = False
        for kind, body in initial:
            self._on_frame(kind, body)
        self._reader = threading.Thread(
            target=self._read_loop, args=(decoder,),
            name=f"sockets-worker{rank}-reader", daemon=True)
        self._reader.start()

    def _read_loop(self, decoder: FrameDecoder) -> None:
        try:
            while True:
                data = self._sock.recv(_RECV_CHUNK)
                if not data:
                    break
                for kind, body in decoder.feed(data):
                    self._on_frame(kind, body)
        except (OSError, FrameError):
            pass
        finally:
            self._mailbox.close()

    def _on_frame(self, kind: int, body: bytes) -> None:
        if kind == FRAME_MSG:
            msg, target = decode_message(body)
            if target == self._rank:
                self._mailbox.put(msg)

    def _send_frame(self, frame: bytes) -> None:
        with self._wlock:
            if self._closed:
                raise MessagePassingError(
                    f"rank {self._rank}: connection closed")
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise MessagePassingError(
                    f"rank {self._rank}: send failed: {exc}") from exc

    def _deliver(self, target: int, msg: Message) -> None:
        self._send_frame(encode_message(msg, target))

    def _probe(self, tag, source) -> Message:
        return self._mailbox.wait(
            tag, source, remove=False, timeout=self._timeout,
            soft=False, who=f"rank {self._rank}")

    def _probe_deadline(self, tag, source, timeout: float) -> Message | None:
        return self._mailbox.wait(
            tag, source, remove=False, timeout=timeout, soft=True)

    def _consume(self, tag: int, source: int) -> Message:
        return self._mailbox.wait(
            tag, source, remove=True, timeout=self._timeout,
            soft=False, who=f"rank {self._rank}")

    def publish_telemetry(self, payload: dict) -> None:
        """Ship the blob home on a TELEMETRY frame — out of band, so
        the traffic counters never see it (same contract as the
        in-host backends).  Best effort: a dead link loses telemetry,
        never the run."""
        try:
            self._send_frame(encode_telemetry(self._rank, payload))
        except MessagePassingError:
            pass

    def endpass(self) -> None:
        super().endpass()
        self.close()

    def close(self) -> None:
        """Say goodbye and release the socket."""
        with self._wlock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.sendall(encode_frame(FRAME_BYE))
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        self._reader.join(5.0)
        try:
            self._sock.close()
        except OSError:
            pass


def connect_worker(host: str, port: int,
                   timeout: float = 30.0) -> SocketsWorkerHandle:
    """Dial a :class:`SocketsWorld`'s listener and join it as a worker.

    HELLO/WELCOME handshake: the master assigns the rank, first come,
    first served.  A world whose ranks are all seated closes the
    connection instead, and a WELCOME that does not seat this process
    as a worker (a wrong-size body, a rank outside ``1 .. nproc-1``, a
    master other than rank 0) is refused: both raise
    :class:`MessagePassingError`.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    sock.settimeout(timeout)
    decoder = FrameDecoder()
    try:
        sock.sendall(encode_frame(
            FRAME_HELLO, _HELLO.pack(PROTOCOL_VERSION, os.getpid())))
        frames = _read_frames(sock, decoder)
    except (OSError, FrameError) as exc:
        try:
            sock.close()
        except OSError:
            pass
        raise MessagePassingError(
            f"sockets handshake with {host}:{port} failed: {exc}") from exc
    kind, body = frames[0]
    if kind != FRAME_WELCOME or len(body) != _WELCOME.size:
        sock.close()
        raise MessagePassingError(
            f"expected a WELCOME from {host}:{port}, got frame kind {kind} "
            f"with a {len(body)}-byte body")
    rank, nproc, mastid = _WELCOME.unpack(body)
    if not 1 <= rank < nproc or mastid != 0:
        sock.close()
        raise MessagePassingError(
            f"{host}:{port} seated this worker as rank {rank} of {nproc} "
            f"under master {mastid}")
    sock.settimeout(None)
    return SocketsWorkerHandle(sock, decoder, rank, nproc, mastid,
                               initial=frames[1:])
