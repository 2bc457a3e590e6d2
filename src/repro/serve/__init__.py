"""repro.serve — the warm spectrum service.

The paper's PLINGER is a batch program: one cosmology, one grid, one
~75 CPU-hour run.  The roadmap's production target is the opposite
shape — a stream of cosmology-parameter requests, most of them
repeats or near-repeats.  This package serves that stream from three
tiers (see :mod:`repro.serve.daemon`):

1. a content-addressed **run-result store** — exact hits replay a
   finished product bitwise (:mod:`repro.serve.results`);
2. **in-flight coalescing** — identical concurrent requests share one
   computation (the daemon's per-digest future map);
3. a **warm pool**: one ``run_plinger`` call per computed request in
   front of an LRU of each recent cosmology's built tables
   (:mod:`repro.serve.pool`).

Everything is keyed by the bit-exact canonical digests of
:mod:`repro.cache.keys`, and :mod:`repro.serve.lifecycle` guarantees
the request journal is drained on exit or SIGTERM.
"""

from .._lazy import lazy_exports

#: resolved on first use, so a client (``ServeClient`` + ``ServeRequest``)
#: loads neither ``asyncio`` nor the engine behind the daemon
__getattr__, __dir__ = lazy_exports(globals(), {
    "ServeClient": "client",
    "ServeJournal": "daemon",
    "SpectrumServer": "daemon",
    "run_server": "daemon",
    "spectrum_product": "daemon",
    "PoolStats": "pool",
    "WarmPool": "pool",
    "MAX_LINE_BYTES": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "ServeRequest": "protocol",
    "decode_message": "protocol",
    "encode_message": "protocol",
    "ResultStore": "results",
    "StoredResult": "results",
})

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "PoolStats",
    "ResultStore",
    "ServeClient",
    "ServeJournal",
    "ServeRequest",
    "SpectrumServer",
    "StoredResult",
    "WarmPool",
    "decode_message",
    "encode_message",
    "run_server",
    "spectrum_product",
]
