"""The spectrum-service daemon: three tiers in front of the integrator.

:class:`SpectrumServer` is a long-lived asyncio TCP daemon speaking the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`.  Each
``spectrum`` request resolves through three tiers, cheapest first:

1. **store** — an exact hit in the content-addressed
   :class:`~repro.serve.results.ResultStore` replays a previous run's
   product bitwise, no computation at all;
2. **coalesced** — a request whose digest is already *being computed*
   awaits the in-flight future instead of computing again, so a burst
   of identical requests costs exactly one run (``computed_runs`` in
   :class:`~repro.telemetry.ServeMetrics` is the proof);
3. **warm**/**cold** — a genuine miss is one PLINGER run through
   :class:`~repro.serve.pool.WarmPool` (``warm`` when the cosmology's
   tables were still resident in its LRU, ``cold`` when they had to be
   built), then lands in the store for every request after it.

All three tiers serve *bit-identical* C_l for the same digest: the
store replays the computed arrays, coalesced waiters share the one
computed product, and the pool's wire protocol is the PLINGER one whose
equality with serial LINGER the verify suite pins
(``oracle.serve_result`` is the end-to-end check).

Computation runs on a single executor thread — the pool serializes
grids anyway — while the event loop keeps accepting, answering store
hits and parking coalesced waiters.  Per-request telemetry lands in
the ``serve`` section of the daemon's
:class:`~repro.telemetry.Telemetry`, and an append-only JSONL request
journal takes one line per request, flushed as it is written, so a
daemon killed by any signal keeps every line it answered.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..errors import ReproError, ServeError
from ..spectra import band_power_uk, cobe_normalization
from ..spectra.cl import cl_integrate_over_k
from ..telemetry import ServeMetrics, Telemetry
from .pool import WarmPool
from .protocol import (
    PROTOCOL_VERSION,
    MAX_LINE_BYTES,
    ServeRequest,
    decode_message,
    encode_message,
)
from .results import ResultStore, StoredResult

__all__ = ["SpectrumServer", "ServeJournal", "spectrum_product",
           "run_server"]


def spectrum_product(params, k, payloads, l_top: int | None = None):
    """The served product: COBE-normalized C_l from wire records.

    Deterministic float64 arithmetic on the mode payloads — identical
    records give identical C_l to the last bit, which is what lets the
    three tiers interchange freely.
    """
    theta = np.stack([p.f_gamma / 4.0 for p in payloads])
    lmax = theta.shape[1] - 1
    lt = (lmax - 3) if l_top is None else min(int(l_top), lmax - 3)
    l = np.arange(2, lt + 1)
    cl = cl_integrate_over_k(np.asarray(k), theta[:, l], n_s=params.n_s)
    cl = cl * cobe_normalization(l, cl, params.q_rms_ps_uk, params.t_cmb)
    return l, cl


class ServeJournal:
    """Append-only JSONL request journal.

    One line per answered request, flushed to the operating system as
    it is written: a daemon that dies by ``SIGKILL`` or the OOM killer
    keeps every line it recorded.  :meth:`close` also fsyncs, so a
    clean shutdown survives the machine going down as well.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self.lines = 0

    def record(self, entry: dict) -> None:
        if self._fh.closed:
            return
        self._fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._fh.flush()
        self.lines += 1

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()


class SpectrumServer:
    """The warm spectrum service (see module docstring).

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        ``self.port`` after :meth:`start`).
    nproc:
        PLINGER width of a computed run (1 master + ``nproc - 1``
        worker threads).
    store_dir:
        Persistence root for the run-result store (None: memory only).
    store_cap_bytes:
        The store's in-memory LRU byte cap.
    journal_path:
        Optional JSONL request journal.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 nproc: int = 4, store_dir=None,
                 store_cap_bytes: int = 256 << 20,
                 journal_path=None,
                 pool: WarmPool | None = None,
                 max_resident: int = 8) -> None:
        self.host = host
        self.port = int(port)
        self.metrics = ServeMetrics()
        self.store = ResultStore(store_dir, mem_cap_bytes=store_cap_bytes)
        self.pool = pool if pool is not None else WarmPool(
            nproc=nproc, max_resident=max_resident)
        self.journal = ServeJournal(journal_path) if journal_path else None
        self.telemetry = Telemetry()
        self.telemetry.serve = self.metrics
        self._inflight: dict[str, asyncio.Future] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compute")
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        self._closed = False

    # -- serving ------------------------------------------------------------

    async def start(self) -> None:
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.telemetry.meta.update(driver="serve", host=self.host,
                                   port=self.port)

    async def serve_until_stopped(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._stopping.wait()
        self.close()

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                except asyncio.CancelledError:
                    # loop teardown cancelled a parked reader; exit the
                    # task cleanly so shutdown stays quiet
                    break
                if not line:
                    break
                response = await self.handle_line(line)
                writer.write(encode_message(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def handle_line(self, line: bytes) -> dict:
        try:
            doc = decode_message(line)
        except ServeError as exc:
            self.metrics.errors += 1
            return {"ok": False, "error": str(exc)}
        return await self.handle(doc)

    async def handle(self, doc: dict) -> dict:
        op = doc.get("op", "spectrum")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping",
                        "protocol": PROTOCOL_VERSION}
            if op == "stats":
                return {"ok": True, "op": "stats", "stats": self.stats()}
            if op == "shutdown":
                if self._stopping is not None:
                    self._stopping.set()
                return {"ok": True, "op": "shutdown"}
            if op == "spectrum":
                return await self._spectrum(doc)
            raise ServeError(f"unknown op {op!r}")
        except ServeError as exc:
            self.metrics.errors += 1
            return {"ok": False, "op": op, "error": str(exc)}
        except ReproError as exc:
            self.metrics.errors += 1
            return {"ok": False, "op": op,
                    "error": f"{type(exc).__name__}: {exc}"}

    async def _spectrum(self, doc: dict) -> dict:
        t_arrive = time.perf_counter()
        request = ServeRequest.from_doc(doc)
        digest = request.digest()

        # tier 1: the run-result store
        hit = self.store.get(digest)
        if hit is not None:
            wall = time.perf_counter() - t_arrive
            self._account("store", 0.0, wall, digest)
            return self._response(digest, "store", hit, 0.0, wall)

        # tier 2: coalesce onto an identical in-flight computation
        inflight = self._inflight.get(digest)
        if inflight is not None:
            stored = await asyncio.shield(inflight)
            wall = time.perf_counter() - t_arrive
            self._account("coalesced", 0.0, wall, digest)
            return self._response(digest, "coalesced", stored, 0.0, wall)

        # tier 3: compute on the warm pool, then publish to the store
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[digest] = future
        try:
            stored, tier, queue_wait, compute_wall = (
                await loop.run_in_executor(
                    self._executor, self._compute, request, digest,
                    time.perf_counter(),
                )
            )
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # coalesced waiters consume the exception (if any);
                # retrieve it here too so no "never retrieved" warning
                future.exception()
            raise
        else:
            if not future.done():
                future.set_result(stored)
        finally:
            self._inflight.pop(digest, None)
        wall = time.perf_counter() - t_arrive
        self.metrics.computed_runs += 1
        self.metrics.compute_seconds += compute_wall
        self._account(tier, queue_wait, wall, digest)
        return self._response(digest, tier, stored, queue_wait, wall)

    # -- the computation (executor thread) ----------------------------------

    def _compute(self, request: ServeRequest, digest: str,
                 t_submitted: float):
        queue_wait = time.perf_counter() - t_submitted
        t0 = time.perf_counter()
        result, was_warm = self.pool.run(
            request.params, request.kgrid(), request.config())
        l, cl = spectrum_product(
            request.params, result.kgrid.k, result.payloads,
            l_top=request.lmax - 3,
        )
        header_matrix = np.stack([h.pack() for h in result.headers])
        payload_rows = [p.pack() for p in result.payloads]
        arrays = {
            "k": np.asarray(result.kgrid.k, dtype=np.float64),
            "headers": header_matrix,
            "payload_lengths": np.array(
                [row.size for row in payload_rows], dtype=np.int64),
            "payload_flat": np.concatenate(payload_rows),
            "delta_m": np.asarray(result.delta_m, dtype=np.float64),
            "l": l.astype(np.int64),
            "cl": np.asarray(cl, dtype=np.float64),
        }
        compute_wall = time.perf_counter() - t0
        stored = self.store.put(digest, arrays, meta={
            "kind": "serve_result",
            "protocol": PROTOCOL_VERSION,
            "compute_seconds": compute_wall,
            "t_cmb": request.params.t_cmb,
        })
        return stored, ("warm" if was_warm else "cold"), queue_wait, \
            compute_wall

    # -- responses ----------------------------------------------------------

    def _response(self, digest: str, tier: str, stored: StoredResult,
                  queue_wait: float, wall: float) -> dict:
        a = stored.arrays
        l = a["l"]
        cl = a["cl"]
        bp = band_power_uk(l, cl, float(stored.meta.get("t_cmb", 2.726)))
        return {
            "ok": True,
            "op": "spectrum",
            "protocol": PROTOCOL_VERSION,
            "digest": digest,
            "tier": tier,
            "l": [int(v) for v in l],
            "cl": [float(v) for v in cl],
            "band_power_uk": [float(v) for v in bp],
            "k": [float(v) for v in a["k"]],
            "delta_m": [float(v) for v in a["delta_m"]],
            "timing": {"queue_wait_s": queue_wait, "wall_s": wall},
        }

    def _account(self, tier: str, queue_wait: float, wall: float,
                 digest: str) -> None:
        self.metrics.record_request(tier, queue_wait, wall)
        s = self.store.stats()
        self.metrics.store_entries = s["entries"]
        self.metrics.store_bytes = s["mem_bytes"]
        self.metrics.store_evictions = s["evictions"]
        self.metrics.store_corrupt = s["corrupt"]
        self.metrics.resident_models = self.pool.resident_count
        if self.journal is not None:
            self.journal.record({
                "digest": digest, "tier": tier,
                "queue_wait_s": round(queue_wait, 6),
                "wall_s": round(wall, 6),
            })

    def stats(self) -> dict:
        from dataclasses import asdict

        return {
            "metrics": asdict(self.metrics),
            "warm_hit_rate": self.metrics.warm_hit_rate,
            "store": self.store.stats(),
            "pool": self.pool.stats.as_dict(),
            "resident_models": self.pool.resident_count,
        }

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.pool.close()
        if self.journal is not None:
            self.journal.close()


def run_server(host: str = "127.0.0.1", port: int = 0, nproc: int = 4,
               store_dir=None, store_cap_bytes: int = 256 << 20,
               journal_path=None, ready_file=None) -> int:
    """Blocking entry point for ``repro serve``.

    Writes ``host port`` to ``ready_file`` (atomically) once listening,
    so scripts can wait for the daemon without racing the bind.
    """

    async def _main() -> None:
        server = SpectrumServer(
            host=host, port=port, nproc=nproc, store_dir=store_dir,
            store_cap_bytes=store_cap_bytes, journal_path=journal_path,
        )
        await server.start()
        print(f"serving spectra on {server.host}:{server.port} "
              f"({nproc - 1} workers per run)", flush=True)
        if ready_file:
            tmp = Path(str(ready_file) + ".tmp")
            tmp.write_text(f"{server.host} {server.port}\n")
            os.replace(tmp, ready_file)
        try:
            await server.serve_until_stopped()
        finally:
            server.close()

    asyncio.run(_main())
    return 0
