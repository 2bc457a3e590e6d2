"""Tier 1 of the spectrum service: the content-addressed run-result store.

:mod:`repro.cache` addresses *precompute tables* (background,
thermal).  :class:`ResultStore` extends the same machinery to *finished
products*: the full wire-record archive plus the C_l of one served
request, keyed by :meth:`~repro.serve.protocol.ServeRequest.digest`.
An exact hit replays a previous run bitwise without touching a single
ODE.

Two layers:

* an in-memory LRU bounded by ``mem_cap_bytes`` — the hot set, served
  without deserialization;
* an optional on-disk :class:`~repro.cache.store.TableStore` — the
  same digest-verified atomic-``os.replace`` npz persistence the
  precompute cache uses, so entries survive daemon restarts and a
  memory-evicted entry can still hit from disk.  A corrupt entry
  (torn write, bit rot) fails its embedded content digest at load
  time, is deleted by the store, and counts as a quarantine — the
  service then simply recomputes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..cache.store import TableStore
from ..errors import CorruptCacheEntry

__all__ = ["ResultStore", "StoredResult"]


class StoredResult:
    """One stored request product: named float64/int64 arrays + meta."""

    __slots__ = ("arrays", "meta", "nbytes")

    def __init__(self, arrays: dict[str, np.ndarray],
                 meta: dict | None = None) -> None:
        self.arrays = {name: np.ascontiguousarray(a)
                       for name, a in arrays.items()}
        self.meta = dict(meta or {})
        self.nbytes = int(sum(a.nbytes for a in self.arrays.values()))


class ResultStore:
    """LRU-bounded, digest-keyed, optionally persistent result cache.

    Thread safe: the daemon's executor thread writes while the event
    loop reads.  ``mem_cap_bytes`` bounds only the in-memory tier;
    the disk tier (when ``root`` is given) keeps every entry ever
    stored — recency eviction demotes an entry from memory to disk,
    never destroys it.
    """

    def __init__(self, root=None, mem_cap_bytes: int = 256 << 20) -> None:
        if mem_cap_bytes <= 0:
            raise ValueError("mem_cap_bytes must be positive")
        self.mem_cap_bytes = int(mem_cap_bytes)
        self.disk = TableStore(root) if root is not None else None
        self._mem: OrderedDict[str, StoredResult] = OrderedDict()
        self._mem_bytes = 0
        self._lock = threading.Lock()
        self.hits_mem = 0
        self.hits_disk = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0

    # -- introspection ------------------------------------------------------

    @property
    def entries(self) -> int:
        with self._lock:
            return len(self._mem)

    @property
    def mem_bytes(self) -> int:
        with self._lock:
            return self._mem_bytes

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            if digest in self._mem:
                return True
        return self.disk is not None and digest in self.disk

    # -- the tiers ----------------------------------------------------------

    def get(self, digest: str) -> StoredResult | None:
        """Exact hit or None; promotes disk hits back into memory."""
        with self._lock:
            hit = self._mem.get(digest)
            if hit is not None:
                self._mem.move_to_end(digest)
                self.hits_mem += 1
                return hit
        if self.disk is not None:
            try:
                loaded = self.disk.load(digest)
            except CorruptCacheEntry:
                # the store deleted the torn entry before raising; the
                # caller recomputes and the rewrite heals the cache
                with self._lock:
                    self.corrupt += 1
                loaded = None
            if loaded is not None:
                arrays, meta, _nbytes = loaded
                result = StoredResult(arrays, meta)
                with self._lock:
                    self.hits_disk += 1
                    self._admit(digest, result)
                return result
        with self._lock:
            self.misses += 1
        return None

    def put(self, digest: str, arrays: dict[str, np.ndarray],
            meta: dict | None = None) -> StoredResult:
        """Store one product under its digest (memory + disk).

        Concurrent same-digest writers are safe: the disk layer lands
        entries via atomic rename (last writer wins with identical
        bytes — the digest *is* the content address), and the memory
        layer just replaces the value.
        """
        result = StoredResult(arrays, meta)
        if self.disk is not None:
            self.disk.save(digest, result.arrays, meta=result.meta)
        with self._lock:
            self._admit(digest, result)
        return result

    def _admit(self, digest: str, result: StoredResult) -> None:
        """Insert into the memory tier and evict LRU past the byte cap.
        Caller holds the lock."""
        old = self._mem.pop(digest, None)
        if old is not None:
            self._mem_bytes -= old.nbytes
        if result.nbytes > self.mem_cap_bytes:
            # too large to ever reside; disk (if any) still has it
            self.evictions += 1
            return
        self._mem[digest] = result
        self._mem_bytes += result.nbytes
        while self._mem_bytes > self.mem_cap_bytes and len(self._mem) > 1:
            _k, evicted = self._mem.popitem(last=False)
            self._mem_bytes -= evicted.nbytes
            self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._mem),
                "mem_bytes": self._mem_bytes,
                "mem_cap_bytes": self.mem_cap_bytes,
                "hits_mem": self.hits_mem,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "persistent": self.disk is not None,
            }
