"""Forked-process backend: the PVM/MPI analogue.

Each rank owns one ``multiprocessing.Queue`` as its incoming mailbox;
a send puts ``(source, tag, payload)`` on the target's queue.  Probes
drain the queue into a local pending list and scan it, preserving
arrival order.  Ranks 1..n-1 are forked children running a caller-
supplied entry point; rank 0's handle is used by the parent (the
master cohabits the launching process, which the paper notes PVM
allowed and which is "desirable because the master process requires
little CPU time").
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from typing import Callable

import numpy as np

from ..api import MessagePassing, World
from ..message import Message
from ...errors import MessagePassingError

__all__ = ["ProcsWorld", "ProcsHandle"]

_DEFAULT_TIMEOUT = 600.0


class ProcsWorld(World):
    """Queues + forked workers."""

    def __init__(self, nproc: int, timeout: float = _DEFAULT_TIMEOUT) -> None:
        super().__init__(nproc)
        ctx = mp.get_context("fork")
        self._ctx = ctx
        self._queues = [ctx.Queue() for _ in range(nproc)]
        # side channel for telemetry blobs published by forked children;
        # never carries protocol messages, so it leaves traffic counts
        # untouched.
        self._telemetry_queue = ctx.Queue()
        self._timeout = timeout
        self._children: list[mp.Process] = []

    def handle(self, rank: int) -> "ProcsHandle":
        return ProcsHandle(self, rank)

    def launch(self, entry: Callable, *args) -> None:
        """Fork ranks 1..nproc-1, each running ``entry(handle, *args)``."""
        for rank in range(1, self.nproc):
            proc = self._ctx.Process(
                target=_child_main, args=(self, rank, entry, args), daemon=True
            )
            proc.start()
            self._children.append(proc)

    def join(self, timeout: float | None = None, strict: bool = True) -> None:
        """Join the forked workers.

        ``strict`` (the default) treats a straggler as a protocol
        failure; a run whose master quarantined a rank passes
        ``strict=False`` so that a quarantined-but-hung worker is
        simply terminated — its work has already been reassigned.
        """
        stragglers = 0
        for proc in self._children:
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
                stragglers += 1
        self._children.clear()
        if stragglers and strict:
            raise MessagePassingError("worker process failed to exit")

    def child_pid(self, rank: int) -> int | None:
        """PID of the forked child running ``rank`` (chaos tests kill
        real processes through this)."""
        idx = rank - 1
        if 0 <= idx < len(self._children):
            return self._children[idx].pid
        return None

    def collect_telemetry(self) -> dict[int, dict]:
        """Drain child-published telemetry blobs (call after join)."""
        while True:
            try:
                rank, payload = self._telemetry_queue.get_nowait()
            except queue_mod.Empty:
                break
            self._telemetry[rank] = payload
        return dict(self._telemetry)


def _child_main(world: "ProcsWorld", rank: int, entry: Callable, args) -> None:
    handle = world.handle(rank)
    entry(handle, *args)


class ProcsHandle(MessagePassing):
    def __init__(self, world: ProcsWorld, rank: int) -> None:
        super().__init__(rank, world.nproc)
        self._world = world
        self._pending: list[Message] = []

    def _deliver(self, target: int, msg: Message) -> None:
        self._world._queues[target].put(
            (msg.source, msg.tag, msg.data, msg.sent_unix)
        )

    def _drain_one(self, block: bool, timeout: float | None = None,
                   soft: bool = False) -> bool:
        """Pull one raw message from the queue into the pending list.

        ``soft`` blocking returns False on timeout instead of raising
        (the liveness-probe contract)."""
        if block and timeout is None:
            timeout = self._world._timeout
        try:
            src, tag, data, sent = self._world._queues[self._rank].get(
                block=block, timeout=timeout if block else None
            )
        except queue_mod.Empty:
            if block and not soft:
                raise MessagePassingError(
                    f"rank {self._rank}: probe timed out after {timeout}s"
                )
            return False
        self._pending.append(Message(source=src, tag=tag,
                                     data=np.asarray(data, dtype=float),
                                     sent_unix=sent))
        return True

    def _scan(self, tag, source, remove):
        for i, msg in enumerate(self._pending):
            if tag is not None and msg.tag != tag:
                continue
            if source is not None and msg.source != source:
                continue
            return self._pending.pop(i) if remove else msg
        return None

    def _probe(self, tag, source) -> Message:
        while True:
            found = self._scan(tag, source, remove=False)
            if found is not None:
                return found
            # opportunistically drain everything already queued
            while self._drain_one(block=False):
                pass
            found = self._scan(tag, source, remove=False)
            if found is not None:
                return found
            self._drain_one(block=True)

    def _probe_deadline(self, tag, source, timeout: float) -> Message | None:
        deadline = time.monotonic() + timeout
        while True:
            while self._drain_one(block=False):
                pass
            found = self._scan(tag, source, remove=False)
            if found is not None:
                return found
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                return None
            self._drain_one(block=True, timeout=remaining, soft=True)

    def _consume(self, tag: int, source: int) -> Message:
        self._probe(tag, source)
        msg = self._scan(tag, source, remove=True)
        assert msg is not None
        return msg

    def publish_telemetry(self, payload: dict) -> None:
        self._world._telemetry_queue.put((self._rank, payload))
