"""Single-process loopback backend.

Messages a rank sends to itself are immediately pending in its own
mailbox.  Useful for unit-testing protocol code and as the degenerate
``nproc=1`` world; a probe that can never be satisfied raises instead
of deadlocking.
"""

from __future__ import annotations

from ..api import MessagePassing, World
from ..message import Message, first_match
from ...errors import MessagePassingError

__all__ = ["SerialWorld", "SerialHandle"]


class SerialWorld(World):
    def __init__(self, nproc: int = 1) -> None:
        if nproc != 1:
            raise MessagePassingError("serial backend supports exactly 1 rank")
        super().__init__(nproc)
        self._handle = SerialHandle(self)

    def handle(self, rank: int) -> "SerialHandle":
        if rank != 0:
            raise MessagePassingError("serial backend has only rank 0")
        return self._handle


class SerialHandle(MessagePassing):
    def __init__(self, world: SerialWorld) -> None:
        super().__init__(0, 1)
        self._world = world
        self._box: list[Message] = []

    def publish_telemetry(self, payload: dict) -> None:
        self._world.publish_telemetry(0, payload)

    def _deliver(self, target: int, msg: Message) -> None:
        self._box.append(msg)

    def _find(self, tag, source, remove):
        if (msg := first_match(self._box, tag, source, remove)) is not None:
            return msg
        raise MessagePassingError(
            "serial probe would deadlock: no matching message pending "
            f"(tag={tag}, source={source})"
        )

    def _probe(self, tag, source) -> Message:
        return self._find(tag, source, remove=False)

    def _probe_deadline(self, tag, source, timeout: float) -> Message | None:
        """Loopback liveness probe: a message is either already pending
        or will never arrive, so this never actually waits."""
        try:
            return self._find(tag, source, remove=False)
        except MessagePassingError:
            return None

    def _consume(self, tag: int, source: int) -> Message:
        return self._find(tag, source, remove=True)
