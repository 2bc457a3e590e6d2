"""TCP-sockets backend: PLINGER across a real host boundary.

Every other backend (serial, inprocess, procs, faulty) keeps all ranks
inside one host; this one carries the same eight wrapper routines over
TCP so ranks can live anywhere that can reach the master's listener.
The topology is the paper's: a star with the master at the hub.  Rank 0
owns a listening socket; every worker rank holds one connection to it,
and worker-to-worker messages (none in the PLINGER protocol, but the
wrapper permits them) are relayed through the hub.

Wire format — length-prefixed binary frames::

    +-------+------+----------+--------...--------+
    | magic | kind | body_len |       body        |
    | 4B    | u8   | u32 LE   |  body_len bytes   |
    +-------+------+----------+--------...--------+

Frame kinds: HELLO (worker -> master: protocol version + pid),
WELCOME (master -> worker: assigned rank, world size, master id),
MSG (either way: a :class:`~repro.mp.message.Message` — source,
target, tag, send stamp, then the float64 payload, little-endian),
TELEMETRY (worker -> master: rank + JSON blob, out of band, never
counted in :class:`~repro.mp.api.TrafficStats`), and BYE (worker ->
master: clean goodbye).  A reader rejects bad magic, unknown kinds and
oversized bodies instead of resynchronizing — a corrupt stream kills
one connection, never poisons the run.

**Elastic ranks.**  The worker pool is not fixed at launch: a process
that connects after the initial complement is assigned the next free
rank, the world's ``nproc`` grows, and a ``Tag.JOIN`` announcement is
synthesized into the master's mailbox so the master can admit it
(re-sending the INIT setup).  Ranks may also die mid-run: a broken
connection stops delivery to that rank (sends are swallowed like
packets to a dead host) and the master's liveness deadlines quarantine
it and reassign its work.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import struct
import threading
import time

import numpy as np

from ...errors import MessagePassingError
from ..api import MessagePassing, World
from ..message import Message

__all__ = [
    "MAGIC", "MAX_FRAME_BYTES", "PROTOCOL_VERSION",
    "FRAME_HELLO", "FRAME_WELCOME", "FRAME_MSG", "FRAME_TELEMETRY",
    "FRAME_BYE", "FrameError", "FrameDecoder",
    "encode_frame", "encode_message", "decode_message",
    "SocketsWorld", "SocketsMasterHandle", "SocketsWorkerHandle",
    "connect_worker",
]

MAGIC = b"RPMP"
PROTOCOL_VERSION = 1

#: hard ceiling on one frame body; far above any PLINGER payload
#: (a 2 GiB table block would be refused — ship it in pieces instead)
MAX_FRAME_BYTES = 1 << 26

FRAME_HELLO = 1      #: worker -> master: version, pid
FRAME_WELCOME = 2    #: master -> worker: rank, nproc, mastid
FRAME_MSG = 3        #: either way: one wrapper Message
FRAME_TELEMETRY = 4  #: worker -> master: rank + JSON (out of band)
FRAME_BYE = 5        #: worker -> master: clean goodbye

_KINDS = frozenset((FRAME_HELLO, FRAME_WELCOME, FRAME_MSG,
                    FRAME_TELEMETRY, FRAME_BYE))

_HEADER = struct.Struct("<4sBI")        # magic, kind, body length
_HELLO = struct.Struct("<Ii")           # protocol version, pid
_WELCOME = struct.Struct("<iii")        # rank, nproc, mastid
_MSG_PREFIX = struct.Struct("<iiid")    # source, target, tag, sent_unix
_TELEMETRY_PREFIX = struct.Struct("<i")  # rank

_DEFAULT_TIMEOUT = 600.0
_RECV_CHUNK = 1 << 16


class FrameError(MessagePassingError):
    """A malformed frame: bad magic, unknown kind, oversized or
    truncated body.  Fatal to the connection that produced it."""


# -- codec -----------------------------------------------------------------


def encode_frame(kind: int, body: bytes = b"",
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire frame: header plus ``body``."""
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind}")
    if len(body) > max_bytes:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{max_bytes}-byte cap")
    return _HEADER.pack(MAGIC, kind, len(body)) + body


def encode_message(msg: Message, target: int,
                   max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """A wrapper :class:`Message` as one MSG frame addressed to
    ``target`` (the Message itself does not carry its destination)."""
    data = np.ascontiguousarray(msg.data, dtype="<f8")
    body = _MSG_PREFIX.pack(int(msg.source), int(target), int(msg.tag),
                            float(msg.sent_unix)) + data.tobytes()
    return encode_frame(FRAME_MSG, body, max_bytes=max_bytes)


def decode_message(body: bytes) -> tuple[Message, int]:
    """Inverse of :func:`encode_message`: ``(message, target)``.

    Bit-exact: the payload floats are reinterpreted, not parsed, so
    every float64 (signed zeros, infs, NaN payload bits) survives the
    round trip unchanged.
    """
    if len(body) < _MSG_PREFIX.size:
        raise FrameError(
            f"MSG body of {len(body)} bytes is shorter than the "
            f"{_MSG_PREFIX.size}-byte prefix")
    source, target, tag, sent_unix = _MSG_PREFIX.unpack_from(body)
    payload = body[_MSG_PREFIX.size:]
    if len(payload) % 8:
        raise FrameError(
            f"MSG payload of {len(payload)} bytes is not a whole "
            "number of float64 reals")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Message(source=source, tag=tag, data=data,
                   sent_unix=sent_unix), target


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed it whatever ``recv`` produced; it returns every frame that
    completed and buffers the tail.  Raises :class:`FrameError` the
    moment the stream is provably corrupt (bad magic, unknown kind,
    oversized body) — there is no resynchronization on a binary
    stream, so the connection must die.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buf = bytearray()
        self._max = max_bytes

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buf += data
        frames: list[tuple[int, bytes]] = []
        while len(self._buf) >= _HEADER.size:
            magic, kind, length = _HEADER.unpack_from(self._buf)
            if magic != MAGIC:
                raise FrameError(f"bad frame magic {bytes(magic)!r}")
            if kind not in _KINDS:
                raise FrameError(f"unknown frame kind {kind}")
            if length > self._max:
                raise FrameError(
                    f"frame body of {length} bytes exceeds the "
                    f"{self._max}-byte cap")
            end = _HEADER.size + length
            if len(self._buf) < end:
                break
            frames.append((kind, bytes(self._buf[_HEADER.size:end])))
            del self._buf[:end]
        return frames


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

    def _scan(self, tag, source, remove: bool) -> Message | None:
        for i, msg in enumerate(self._items):
            if tag is not None and msg.tag != tag:
                continue
            if source is not None and msg.source != source:
                continue
            return self._items.pop(i) if remove else msg
        return None

    def wait(self, tag, source, remove: bool, timeout: float,
             soft: bool, who: str = "sockets mailbox") -> Message | None:
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                found = self._scan(tag, source, remove)
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
        # measured TCP traffic, frame overhead included — the raw
        # material repro.cluster scores placements from
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
        self._initial_nproc = nproc
        self.spawn_workers = spawn_workers
        self._timeout = float(timeout)
        self._connect_timeout = float(connect_timeout)
        self._lock = threading.RLock()
        self._mailbox = _Mailbox()
        self._conns: dict[int, _Connection] = {}
        self._next_rank = 1
        self._children: list[multiprocessing.process.BaseProcess] = []
        self._entry = None          # (entry, args), stored by launch()
        self._handle0: SocketsMasterHandle | None = None
        self._closed = False
        self.dropped_sends = 0      #: messages swallowed to dead ranks
        self.joined_ranks: list[int] = []

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
            elastic = self._next_rank >= self._initial_nproc
            if self._closed:
                try:
                    sock.close()
                except OSError:
                    pass
                return
            rank = self._next_rank
            self._next_rank += 1
            if elastic:
                self.nproc = max(self.nproc, rank + 1)
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
            if elastic:
                self.joined_ranks.append(rank)
        reader = threading.Thread(
            target=self._serve_conn, args=(conn, decoder, frames[1:]),
            name=f"sockets-rank{rank}", daemon=True)
        conn.thread = reader
        reader.start()
        if elastic:
            # announce the newcomer where the master is already
            # listening; it admits the rank and re-sends the
            # INIT setup (plinger.master, Tag.JOIN)
            from ...plinger.tags import Tag

            self._mailbox.put(Message.make(rank, Tag.JOIN, [float(rank)]))

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
        if kind == FRAME_MSG:
            msg, target = decode_message(body)
            self.route(target, msg)
        elif kind == FRAME_TELEMETRY:
            (rank,) = _TELEMETRY_PREFIX.unpack_from(body)
            payload = json.loads(body[_TELEMETRY_PREFIX.size:].decode())
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
        self._entry = (entry, args)
        if self.spawn_workers:
            for _ in range(self._initial_nproc - 1):
                self._fork_worker()
        want = self._initial_nproc - 1
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

    def _fork_worker(self) -> None:
        entry, args = self._entry
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_forked_worker_main,
                           args=(self.host, self.port, entry, args),
                           daemon=True)
        proc.start()
        self._children.append(proc)

    def spawn_extra_worker(self) -> None:
        """Fork one more co-located worker into the *running* world —
        the test/benchmark lever for the elastic join path."""
        if self._entry is None:
            raise MessagePassingError(
                "spawn_extra_worker() before launch(): no entry stored")
        self._fork_worker()

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
        for proc in self._children:
            proc.join(max(0.1, min(5.0, deadline - time.monotonic())))
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
                stragglers += 1
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
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.shutdown()
        self._mailbox.close()


def _forked_worker_main(host: str, port: int, entry, args) -> None:
    """Child-process body for locally forked worker ranks."""
    try:
        handle = connect_worker(host, port)
    except (OSError, MessagePassingError):
        return
    entry(handle, *args)


# -- handles ---------------------------------------------------------------


class SocketsMasterHandle(MessagePassing):
    """Rank 0's handle: mailbox-backed, sends routed through the hub.

    ``nproc`` tracks the world live, so an elastic rank admitted
    mid-run is immediately addressable."""

    def __init__(self, world: SocketsWorld) -> None:
        super().__init__(0, world.nproc)
        self._world = world

    @property
    def nproc(self) -> int:
        return self._world.nproc

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
        body = (_TELEMETRY_PREFIX.pack(self._rank)
                + json.dumps(payload).encode())
        try:
            self._send_frame(encode_frame(FRAME_TELEMETRY, body))
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

    HELLO/WELCOME handshake: the master assigns the rank (first come,
    first served; ranks past the initial complement are elastic joins,
    refused with a closed connection when the run cannot admit them).
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
    if kind != FRAME_WELCOME:
        sock.close()
        raise MessagePassingError(
            f"expected WELCOME from {host}:{port}, got frame kind {kind}")
    rank, nproc, mastid = _WELCOME.unpack(body)
    sock.settimeout(None)
    return SocketsWorkerHandle(sock, decoder, rank, nproc, mastid,
                               initial=frames[1:])
