"""The on-disk artifact store: one raw file per cache key.

Layout: ``<root>/<key[:2]>/<key>.raw`` (the two-character fan-out keeps
directory listings short on large caches).  The same entry format is a
``repro run`` archive (:func:`write_entry` / :func:`read_entry` on a
path of the caller's choosing).  An entry is one buffer:
the SHA-256 of every byte after it (32 bytes), the head's length (8
bytes, little-endian), a JSON head ``{"arrays": {name: [dtype, shape,
offset]}, "meta": {...}}`` (offsets from the head's end), then each
array's C-order bytes in name order; head and arrays are padded to 8
bytes.

The digest covers the head, so names, dtypes, shapes, offsets and the
meta are checked with the arrays.  Loading re-digests what was read
and compares; a mismatch — torn write, truncation, disk corruption —
deletes the entry and raises :class:`~repro.errors.CorruptCacheEntry`,
so callers heal by rebuilding (:func:`read_entry` raises and deletes
nothing).  A write is one ``os.write`` of the whole buffer to a
uniquely named temporary file in the same directory, fsynced, landed
via ``os.replace``: concurrent writers of the same key race safely
(last complete file wins; readers only ever see a complete file).
Files of any other suffix (the ``.npz`` entries of earlier releases)
are never read: their keys are misses.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

from ..errors import CorruptCacheEntry

__all__ = ["TableStore", "read_entry", "write_entry"]

_DIGEST = 32  # SHA-256 bytes at the front of every entry
_HEAD = _DIGEST + 8  # where the JSON head starts
_ALIGN = 8


def _pad(nbytes: int) -> bytes:
    return b" " * (-nbytes % _ALIGN)


def _encode(arrays: dict[str, np.ndarray], meta: dict | None) -> bytearray:
    """One entry's bytes, digest included."""
    spec, body, offset = {}, [], 0
    for name in sorted(arrays):
        if name.startswith("__"):
            raise ValueError(f"array name {name!r} is reserved")
        arr = np.asarray(arrays[name], order="C")
        if arr.dtype.hasobject:
            raise ValueError(f"array {name!r} holds python objects")
        spec[name] = [arr.dtype.str, list(arr.shape), offset]
        body += [arr, _pad(arr.nbytes)]
        offset += arr.nbytes + len(body[-1])
    head = json.dumps({"arrays": spec, "meta": meta or {}},
                      sort_keys=True).encode()
    head += _pad(len(head))
    buf = bytearray().join(
        [bytes(_DIGEST), struct.pack("<Q", len(head)), head, *body])
    buf[:_DIGEST] = hashlib.sha256(memoryview(buf)[_DIGEST:]).digest()
    return buf


def _decode(buf: bytearray) -> tuple[dict[str, np.ndarray], dict]:
    """``(arrays, meta)`` of one entry's bytes; ValueError if they fail
    the digest.  The arrays are views of ``buf``."""
    if hashlib.sha256(memoryview(buf)[_DIGEST:]).digest() != buf[:_DIGEST]:
        raise ValueError("failed its digest check")
    (n,) = struct.unpack_from("<Q", buf, _DIGEST)
    head = json.loads(buf[_HEAD:_HEAD + n])
    arrays = {
        name: np.frombuffer(buf, np.dtype(dtype), count=math.prod(shape),
                            offset=_HEAD + n + offset).reshape(shape)
        for name, (dtype, shape, offset) in head["arrays"].items()
    }
    return arrays, head["meta"]


def _land(path: Path, buf: bytearray, staged=None) -> None:
    """Write ``buf`` to ``path`` atomically; ``staged``, if given, is
    called on the fsynced temporary file before the rename."""
    tmp = path.parent / (
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            if os.write(fd, buf) != len(buf):
                raise OSError(f"short write of {path.name}")
            os.fsync(fd)
        finally:
            os.close(fd)
        if staged is not None:
            staged(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_entry(path, arrays: dict[str, np.ndarray],
                meta: dict | None = None) -> int:
    """Atomically write one entry to ``path``, exactly as given;
    returns the bytes written."""
    buf = _encode(arrays, meta)
    _land(Path(path), buf)
    return len(buf)


def read_entry(path) -> tuple[dict[str, np.ndarray], dict, int]:
    """``(arrays, meta, bytes_read)`` of the entry at ``path``.

    Raises OSError (``FileNotFoundError`` if there is no file) or
    ValueError if the bytes are not a whole entry: truncated, altered,
    or another format.  Never deletes the file.
    """
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(buf)
    try:
        arrays, meta = _decode(buf)
    except (KeyError, TypeError, struct.error) as exc:
        raise ValueError(f"malformed entry ({exc!r})") from exc
    return arrays, meta, len(buf)


def _chaos_corrupt_write(tmp: Path, key: str) -> None:
    """Chaos-engine injection point: corrupt the staged entry *before*
    the atomic rename, so the published file is exactly what a torn or
    bit-flipped write would have produced.  Both modes fail the digest
    in :meth:`TableStore.load` and surface as
    :class:`~repro.errors.CorruptCacheEntry`."""
    from ..chaos import current_engine

    eng = current_engine()
    if eng is None:
        return
    mode = eng.cache_write_fault(key)
    if mode is None:
        return
    size = tmp.stat().st_size
    if mode == "torn":
        with open(tmp, "r+b") as fh:
            fh.truncate(max(size // 2, 1))
    else:  # garble: flip a span of bytes mid-file
        with open(tmp, "r+b") as fh:
            fh.seek(size // 2)
            span = fh.read(64)
            fh.seek(size // 2)
            fh.write(bytes(b ^ 0xFF for b in span))


class TableStore:
    """A content-addressed directory of raw array bundles."""

    SUFFIX = ".raw"

    def __init__(self, root) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def save(self, key: str, arrays: dict[str, np.ndarray],
             meta: dict | None = None) -> int:
        """Atomically write one entry; returns the bytes written."""
        buf = _encode(arrays, meta)
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _land(path, buf, lambda tmp: _chaos_corrupt_write(tmp, key))
        return len(buf)

    def load(self, key: str) -> tuple[dict[str, np.ndarray], dict, int] | None:
        """Read an entry back, or None if absent.

        Returns ``(arrays, meta, bytes_read)``.  A file that cannot be
        parsed or whose digest does not match is deleted and reported
        as :class:`~repro.errors.CorruptCacheEntry`.
        """
        try:
            return read_entry(self.path(key))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self.delete(key)
            raise CorruptCacheEntry(
                f"cache entry {key} unreadable ({exc}); deleted"
            ) from exc

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)

    def keys(self) -> list[str]:
        """Every key currently stored (sorted)."""
        return sorted(p.stem for p in self.root.glob(f"??/*{self.SUFFIX}"))
