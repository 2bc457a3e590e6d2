"""Content-addressed cache keys.

A cache entry is addressed by the SHA-256 of a *canonical
serialization* of everything that determines its contents: the entry
kind, the cosmological parameters, the table-shape configuration
(grid sizes, switch points, ...) and the cache format version.  Change
any of them and the key changes — stale entries are never read, they
are simply never addressed again (invalidation by construction).

Floats are serialized with :meth:`float.hex` so the key is exact down
to the last bit of every parameter: two cosmologies that differ by one
ulp in ``omega_b`` get different keys, and the same cosmology always
gets the same key on every platform.

The canonical text is JSON with sorted keys and compact separators,
written directly: each value type's writer is settled once, and a
dataclass's sorted field names with it.  It is the one writer of every
digest in the package, pinned byte for byte to the generic tree walk
plus ``json.dumps(sort_keys=True)`` it replaced
(``tests/reference_keys.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Mapping

import numpy as np

__all__ = ["CACHE_VERSION", "canonical_blob", "cache_key"]

#: Bump whenever the *content* of any cached table kind changes
#: (different physics, different columns, different layout) so old
#: entries stop being addressed.
CACHE_VERSION = 1


def _text(value: Any) -> str:
    """The canonical JSON text of ``value``: objects with sorted keys,
    compact separators, ASCII escapes, and every float as the string of
    its :meth:`float.hex`."""
    return _writer(type(value))(value)


def _mapping(value: Mapping) -> str:
    # stringified keys; of two that stringify alike the later wins
    tree = {str(k): v for k, v in sorted(value.items())}
    return "{" + ",".join([_string(k) + ":" + _writer(type(v))(v)
                           for k, v in sorted(tree.items())]) + "}"


def _sequence(value) -> str:
    return "[" + ",".join([_writer(type(v))(v) for v in value]) + "]"


def _dataclass(cls: type):
    """The writer of one dataclass type: its fields and ``__type__``
    (the type's name) as object members, sorted once."""
    names = {f.name: f.name for f in dataclasses.fields(cls)}
    names["__type__"] = None
    members = tuple((_string(key) + ":", names[key])
                    for key in sorted(names))

    def write(value) -> str:
        return "{" + ",".join([
            key + (_writer(type(v := getattr(value, name)))(v)
                   if name is not None else _string(type(value).__name__))
            for key, name in members]) + "}"

    return write


def _refuse(value) -> str:
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for a cache key"
    )


@functools.cache
def _writer(cls: type):
    """How a value of type ``cls`` is written, settled once per type:
    the first of these kinds it belongs to, in this order."""
    if issubclass(cls, str):
        return _string
    if issubclass(cls, bool):
        return lambda value: "true" if value else "false"
    if cls is type(None):
        return lambda value: "null"
    if issubclass(cls, (int, np.integer)):
        return lambda value: repr(int(value))
    if issubclass(cls, (float, np.floating)):
        return lambda value: '"' + float(value).hex() + '"'
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass(cls)
    if issubclass(cls, Mapping):
        return _mapping
    if issubclass(cls, (list, tuple)):
        return _sequence
    if issubclass(cls, np.ndarray):
        return lambda value: _sequence(np.asarray(value).tolist())
    return _refuse


def canonical_blob(kind: str, params: Any, shape: Mapping | None) -> bytes:
    """The canonical byte string a cache key digests: the JSON object
    ``{"kind", "params", "shape", "version"}`` in the form above."""
    return ('{"kind":' + _string(str(kind))
            + ',"params":' + _text(params)
            + ',"shape":' + _text(dict(shape) if shape else {})
            + ',"version":' + _text(CACHE_VERSION) + "}").encode()


def cache_key(kind: str, params: Any = None,
              shape: Mapping | None = None) -> str:
    """SHA-256 hex key for one (kind, params, shape) cache entry."""
    return hashlib.sha256(canonical_blob(kind, params, shape)).hexdigest()
