"""Forked-process backend: the PVM/MPI analogue.

Ranks 1..n-1 are ``os.fork()`` children running a caller-supplied entry
point; rank 0's handle is used by the parent (the master cohabits the
launching process, which the paper notes PVM allowed and which is
"desirable because the master process requires little CPU time").

Every ordered rank pair has one pipe carrying RPMP ``MSG`` frames
(:mod:`repro.mp.message`), written in the sender's own thread; a probe
``poll``s the rank's read ends and decodes into a FIFO pending list.
After the fork each process closes the ends it does not own, so a dead
rank's readers see EOF and a send to it (EPIPE) is dropped.  A world
never launched (thread-hosted ranks, e.g. under a ``FaultyWorld``)
keeps every end open in its one process.  Each child alone holds the
write end of its exit pipe: :func:`reap` sees its exit as EOF there and
meanwhile drains its ``TELEMETRY`` frames.  :func:`fork_child` and
:func:`reap` also run the sockets backend's co-located workers.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import threading
import time
import traceback
from contextlib import suppress
from functools import partial
from itertools import permutations
from typing import Callable, NamedTuple

from ..api import MessagePassing, World
from ..message import (FRAME_TELEMETRY, FrameDecoder, Message, decode_message,
                       decode_telemetry, encode_message, encode_telemetry,
                       first_match)
from ...errors import MessagePassingError

__all__ = ["ProcsWorld", "ProcsHandle", "ForkedChild", "fork_child", "reap"]

_DEFAULT_TIMEOUT = 600.0
_READ_CHUNK = 1 << 16
_TERM_GRACE = 5.0  #: seconds a SIGTERMed straggler gets before SIGKILL


# -- fork and join -----------------------------------------------------------


class ForkedChild(NamedTuple):
    pid: int
    exit_fd: int  #: read end of the pipe whose write end only the child holds


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, ValueError, OSError):
            stream.flush()


def fork_child(body: Callable[[int], None],
               siblings: list[ForkedChild]) -> ForkedChild:
    """Fork a child that runs ``body(exit_w)`` — ``exit_w`` the write
    end of its exit pipe — and exits with 0, or with 1 and a traceback
    if it raised; no ``atexit`` hook or finalizer runs there.  The
    child closes the exit pipes of the ``siblings`` forked before it."""
    _flush_stdio()
    exit_r, exit_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in [exit_r] + [sibling.exit_fd for sibling in siblings]:
                os.close(fd)
            body(exit_w)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            _flush_stdio()
            os._exit(code)
    os.close(exit_w)
    return ForkedChild(pid, exit_r)


def _drain(children: list[ForkedChild], deadline: float,
           on_bytes: Callable[[ForkedChild, bytes], None] | None,
           ) -> list[ForkedChild]:
    """Read the children's exit pipes until each is at EOF or the
    ``deadline`` passes; return the children still running."""
    running = {child.exit_fd: child for child in children}
    poller = select.poll()
    for fd in running:
        poller.register(fd, select.POLLIN)
    while running and (remaining := deadline - time.monotonic()) > 0:
        for fd, _event in poller.poll(remaining * 1000):
            data = os.read(fd, _READ_CHUNK)
            if not data:
                poller.unregister(fd)
                del running[fd]
            elif on_bytes is not None:
                on_bytes(running[fd], data)
    return list(running.values())


def reap(children: list[ForkedChild], timeout: float,
         on_bytes: Callable[[ForkedChild, bytes], None] | None = None,
         ) -> int:
    """Wait up to ``timeout`` seconds, for all children together, until
    each exits, handing what arrives on its exit pipe to ``on_bytes``.
    A straggler gets SIGTERM, and SIGKILL after a grace period.  Every
    child is reaped and its pipe closed; returns the straggler count."""
    late = _drain(children, time.monotonic() + timeout, on_bytes)
    for child in late:
        with suppress(ProcessLookupError):
            os.kill(child.pid, signal.SIGTERM)
    for child in _drain(late, time.monotonic() + _TERM_GRACE, on_bytes):
        with suppress(ProcessLookupError):
            os.kill(child.pid, signal.SIGKILL)
    for child in children:
        with suppress(ChildProcessError):
            os.waitpid(child.pid, 0)
        os.close(child.exit_fd)
    return len(late)


def _write_all(fd: int, data: bytes) -> None:
    """Write all of ``data``; a reader that is gone (EPIPE) drops it."""
    view = memoryview(data)
    with suppress(BrokenPipeError):
        while view:
            view = view[os.write(fd, view):]


# -- the world ---------------------------------------------------------------


class ProcsWorld(World):
    """One pipe per ordered rank pair + forked workers."""

    def __init__(self, nproc: int, timeout: float = _DEFAULT_TIMEOUT) -> None:
        #: (source, target) -> this process's end of that pair's pipe
        self._read_ends: dict[tuple[int, int], int] = {}
        self._write_ends: dict[tuple[int, int], int] = {}
        super().__init__(nproc)
        self._timeout = timeout
        for pair in permutations(range(nproc), 2):
            self._read_ends[pair], self._write_ends[pair] = os.pipe()
        self._children: list[ForkedChild] = []
        self._exit_w: int | None = None  #: in a forked rank: its exit pipe

    def handle(self, rank: int) -> "ProcsHandle":
        return ProcsHandle(self, rank)

    def launch(self, entry: Callable, *args) -> None:
        """Fork ranks 1..nproc-1, each running ``entry(handle, *args)``."""
        for rank in range(1, self.nproc):
            self._children.append(fork_child(
                partial(self._rank_main, rank, entry, args), self._children))
        self._keep_ends(0)

    def _rank_main(self, rank: int, entry: Callable, args: tuple,
                   exit_w: int) -> None:
        self._children = []
        self._keep_ends(rank)
        self._exit_w = exit_w
        entry(self.handle(rank), *args)

    def _keep_ends(self, rank: int | None) -> None:
        """Close every pipe end ``rank`` does not own (it reads what is
        sent to it, writes what it sends); ``None`` closes them all."""
        for ends, side in ((self._read_ends, 1), (self._write_ends, 0)):
            for pair in [p for p in ends if p[side] != rank]:
                os.close(ends.pop(pair))

    def __del__(self) -> None:
        self._keep_ends(None)  # a thread-hosted world is never joined

    def join(self, timeout: float | None = None, strict: bool = True) -> None:
        """Wait for the forked workers to exit — ``timeout`` (default:
        the world's) is one deadline for all — collecting their
        telemetry meanwhile; then close this process's pipe ends.
        ``strict`` treats a straggler as a protocol failure; a run whose
        master quarantined a rank passes ``False``, and a hung
        quarantined worker is simply terminated (its work reassigned).
        """
        decoders = {child.pid: FrameDecoder() for child in self._children}

        def on_bytes(child: ForkedChild, data: bytes) -> None:
            for kind, body in decoders[child.pid].feed(data):
                if kind == FRAME_TELEMETRY:
                    rank, payload = decode_telemetry(body)
                    self._telemetry[rank] = payload

        stragglers = reap(self._children,
                          self._timeout if timeout is None else timeout,
                          on_bytes)
        self._children = []
        self._keep_ends(None)
        if stragglers and strict:
            raise MessagePassingError(
                f"{stragglers} worker process(es) failed to exit")

    def child_pid(self, rank: int) -> int | None:
        """PID of the forked child running ``rank`` (chaos tests kill
        real processes through this)."""
        live = 0 < rank <= len(self._children)
        return self._children[rank - 1].pid if live else None


class ProcsHandle(MessagePassing):
    def __init__(self, world: ProcsWorld, rank: int) -> None:
        super().__init__(rank, world.nproc)
        self._world = world
        self._pending: list[Message] = []
        # a delayed delivery (FaultyWorld) writes from a timer thread
        self._write_lock = threading.Lock()
        self._sources = {fd: source
                         for (source, target), fd in world._read_ends.items()
                         if target == rank}
        self._decoders = {fd: FrameDecoder() for fd in self._sources}
        self._gone: set[int] = set()  #: sources whose pipe is at EOF
        self._poller = select.poll()
        for fd in self._sources:
            self._poller.register(fd, select.POLLIN)

    def _deliver(self, target: int, msg: Message) -> None:
        if target == self._rank:
            self._pending.append(msg)
            return
        fd = self._world._write_ends.get((self._rank, target))
        if fd is not None:  # None: the world is closed
            frame = encode_message(msg, target)
            with self._write_lock:
                _write_all(fd, frame)

    def _probe_deadline(self, tag, source, timeout: float) -> Message | None:
        """``None`` at the deadline, or at once if ``source`` is gone."""
        deadline = time.monotonic() + timeout
        while (found := first_match(self._pending, tag, source,
                                    remove=False)) is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0 or source in self._gone:
                return None
            for fd, _event in self._poller.poll(remaining * 1000):
                data = os.read(fd, _READ_CHUNK)
                if not data:  # EOF: every copy of the write end is closed
                    self._poller.unregister(fd)
                    self._gone.add(self._sources[fd])
                for _kind, body in self._decoders[fd].feed(data):
                    self._pending.append(decode_message(body)[0])
        return found

    def _probe(self, tag, source) -> Message:
        found = self._probe_deadline(tag, source, self._world._timeout)
        if found is None:
            raise MessagePassingError(
                f"rank {self._rank}: no message (tag={tag}, source={source})"
                f" within {self._world._timeout}s, or its sender is gone")
        return found

    def _consume(self, tag: int, source: int) -> Message:
        self._probe(tag, source)
        return first_match(self._pending, tag, source, remove=True)

    def publish_telemetry(self, payload: dict) -> None:
        if self._world._exit_w is None:
            # the launching process: rank 0, or a rank hosted as a thread
            self._world.publish_telemetry(self._rank, payload)
        else:
            _write_all(self._world._exit_w,
                       encode_telemetry(self._rank, payload))
