"""The canonical key blob as a generic tree walk plus ``json.dumps``.

:func:`repro.cache.keys.canonical_blob` writes the canonical JSON text
directly; this is the form it replaced, kept as the reference it must
equal byte for byte (``tests/test_cache.py``).  Every digest in the
package — the serve store's, the bench references' stamps — is the
SHA-256 of these bytes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

import numpy as np

from repro.cache.keys import CACHE_VERSION


def _canonical(value: Any):
    """Reduce ``value`` to a JSON-able tree with bit-exact floats."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        tree = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        tree["__type__"] = type(value).__name__
        return tree
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_canonical(v) for v in np.asarray(value).tolist()] \
            if isinstance(value, np.ndarray) else [_canonical(v) for v in value]
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for a cache key"
    )


def canonical_blob(kind: str, params: Any, shape: Mapping | None) -> bytes:
    """The canonical byte string a cache key digests."""
    doc = {
        "version": CACHE_VERSION,
        "kind": str(kind),
        "params": _canonical(params),
        "shape": _canonical(dict(shape) if shape else {}),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
