"""The wire format: tagged buffers of float64, and the frames that carry them.

The paper's wrappers move arrays of double-precision reals tagged with
a small integer; so do we.  Payloads are copied on send (value
semantics, like a real network) so a worker mutating its buffer can
never corrupt a message in flight.

Between processes a message travels as one RPMP frame — the same bytes
on a ``procs`` pipe and on a ``sockets`` connection::

    +-------+------+----------+--------...--------+
    | magic | kind | body_len |       body        |
    | 4B    | u8   | u32 LE   |  body_len bytes   |
    +-------+------+----------+--------...--------+

Frame kinds: HELLO (worker -> master: protocol version + pid),
WELCOME (master -> worker: assigned rank, world size, master id),
MSG (either way: a :class:`Message` — source, target, tag, send stamp,
then the float64 payload, little-endian), TELEMETRY (worker -> master:
rank + JSON blob, out of band, never counted in
:class:`~repro.mp.api.TrafficStats`), and BYE (worker -> master: clean
goodbye).  A reader rejects bad magic, unknown kinds and oversized
bodies instead of resynchronizing — a corrupt stream kills one
connection, never poisons the run.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass

import numpy as np

from ..errors import MessagePassingError

__all__ = [
    "Message", "first_match", "MAGIC", "MAX_FRAME_BYTES", "FRAME_HELLO",
    "FRAME_WELCOME", "FRAME_MSG", "FRAME_TELEMETRY", "FRAME_BYE",
    "FrameError", "FrameDecoder", "encode_frame", "encode_message",
    "decode_message", "encode_telemetry", "decode_telemetry",
]


@dataclass(frozen=True)
class Message:
    """One tagged message of double-precision values.

    ``sent_unix`` is stamped at :meth:`make` time; the liveness layer
    uses it to measure in-flight age (a 0.0 means "unstamped", kept for
    messages reconstructed by fault-injecting transports).
    """

    source: int
    tag: int
    data: np.ndarray
    sent_unix: float = 0.0

    @classmethod
    def make(cls, source: int, tag: int, data) -> "Message":
        arr = np.array(data, dtype=float, copy=True).ravel()
        return cls(source=source, tag=int(tag), data=arr,
                   sent_unix=time.time())

    def age_seconds(self) -> float:
        """Seconds since the message was stamped (0.0 if unstamped)."""
        return time.time() - self.sent_unix if self.sent_unix else 0.0

    @property
    def length(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (8 bytes per real, as on the SP2)."""
        return 8 * self.length


def first_match(pending: list[Message], tag: int | None, source: int | None,
                remove: bool) -> Message | None:
    """The first of ``pending`` (arrival order, as MPI_PROBE and MPL
    match) with this tag and source, ``None`` matching any; popped if
    ``remove``."""
    for i, msg in enumerate(pending):
        if (tag is None or msg.tag == tag) and \
                (source is None or msg.source == source):
            return pending.pop(i) if remove else msg
    return None


# -- frames ----------------------------------------------------------------

MAGIC = b"RPMP"

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
_MSG_PREFIX = struct.Struct("<iiid")    # source, target, tag, sent_unix
_TELEMETRY_PREFIX = struct.Struct("<i")  # rank


class FrameError(MessagePassingError):
    """A malformed frame: bad magic, unknown kind, oversized or
    truncated body.  Fatal to the connection that produced it."""


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


def encode_telemetry(rank: int, payload: dict) -> bytes:
    """Rank ``rank``'s telemetry blob as one TELEMETRY frame (JSON)."""
    return encode_frame(FRAME_TELEMETRY, _TELEMETRY_PREFIX.pack(rank)
                        + json.dumps(payload).encode())


def decode_telemetry(body: bytes) -> tuple[int, dict]:
    """Inverse of :func:`encode_telemetry`: ``(rank, payload)``."""
    (rank,) = _TELEMETRY_PREFIX.unpack_from(body)
    return rank, json.loads(body[_TELEMETRY_PREFIX.size:].decode())


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
