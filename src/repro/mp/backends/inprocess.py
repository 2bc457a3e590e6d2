"""Threads + condition-variable backend.

Each rank is a Python thread; mailboxes are per-rank lists guarded by
one condition variable.  Probe semantics match MPI_PROBE: blocking,
FIFO by arrival order within the matching subset (this also satisfies
MPL's receive-in-arrival-order requirement, which the paper notes the
SP2 imposed).

A worker's heavy work is one compiled call per phase of a mode
(``integrate_phase``, through ctypes), which releases the GIL for its
whole length, so thread ranks run modes in parallel and scale as forked
ranks do once a mode is >= 0.1 s: 16 modes at ``lmax_photon = 600`` on
two cores took 0.95 s here, 0.97 s on ``procs``, 1.51 s serial (ROADMAP
item 2).  What ``procs`` adds is isolation from a crashing rank, not
speed; without the compiled object (the python kernel holds the GIL)
threads only interleave.
"""

from __future__ import annotations

import threading
import time

from ..api import MessagePassing, World
from ..message import Message
from ...errors import MessagePassingError

__all__ = ["InProcessWorld", "InProcessHandle"]


class InProcessWorld(World):
    """Shared-memory mailboxes for thread-ranks."""

    def __init__(self, nproc: int) -> None:
        super().__init__(nproc)
        self._mailboxes: list[list[Message]] = [[] for _ in range(nproc)]
        self._cond = threading.Condition()
        self._handles = [InProcessHandle(self, r) for r in range(nproc)]

    def handle(self, rank: int) -> "InProcessHandle":
        return self._handles[rank]

    # -- used by handles -----------------------------------------------------

    def put(self, target: int, msg: Message) -> None:
        with self._cond:
            self._mailboxes[target].append(msg)
            self._cond.notify_all()

    def find(self, rank: int, tag: int | None, source: int | None,
             remove: bool, timeout: float | None = None,
             soft: bool = False) -> Message | None:
        """Locate (and optionally pop) the first matching message.

        ``timeout=None`` blocks forever (with a periodic re-check so a
        lost wakeup cannot deadlock).  With a timeout, expiry raises —
        or returns ``None`` when ``soft`` is set, the liveness-probe
        contract."""
        deadline = (time.monotonic() + timeout) if timeout is not None else None
        with self._cond:
            while True:
                box = self._mailboxes[rank]
                for i, msg in enumerate(box):
                    if tag is not None and msg.tag != tag:
                        continue
                    if source is not None and msg.source != source:
                        continue
                    if remove:
                        return box.pop(i)
                    return msg
                wait = 60.0
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0.0:
                        if soft:
                            return None
                        raise MessagePassingError(
                            f"rank {rank}: probe timed out "
                            f"(tag={tag}, source={source})"
                        )
                self._cond.wait(timeout=wait)


class InProcessHandle(MessagePassing):
    def __init__(self, world: InProcessWorld, rank: int) -> None:
        super().__init__(rank, world.nproc)
        self._world = world

    def _deliver(self, target: int, msg: Message) -> None:
        self._world.put(target, msg)

    def _probe(self, tag: int | None, source: int | None) -> Message:
        return self._world.find(self._rank, tag, source, remove=False)

    def _probe_deadline(self, tag, source, timeout: float) -> Message | None:
        return self._world.find(self._rank, tag, source, remove=False,
                                timeout=timeout, soft=True)

    def _consume(self, tag: int, source: int) -> Message:
        return self._world.find(self._rank, tag, source, remove=True)

    def publish_telemetry(self, payload: dict) -> None:
        self._world.publish_telemetry(self._rank, payload)
