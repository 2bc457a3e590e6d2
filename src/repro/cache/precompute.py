"""The precompute cache facade: build-or-load every k-independent table.

Every worker of a PLINGER run (and every run of a parameter study)
needs the same k-independent state: the background time table, the
thermal/visibility history and the massive-neutrino q-grid integrals.
COSMICS shipped these as precomputed table files;
:class:`PrecomputeCache` is that idea as a content-addressed store
(see :mod:`repro.cache.keys`).  (The j_l tables of the line-of-sight
spectra are not cached: one recurrence sweep builds them in
milliseconds, and their extent ``k_max * tau0`` depends on the cosmology,
so an entry would only ever be hit by an exact repeat.)

Guarantees:

* **Bit-exactness** — a cache hit reconstructs objects that evaluate
  identically to freshly built ones (only primitive solver output is
  persisted; every spline is re-derived by the same code).
* **Self-healing** — corrupt entries (digest mismatch, truncation)
  are deleted, counted in :class:`~repro.telemetry.report.CacheMetrics`
  and rebuilt.
* **Concurrency safety** — writers land entries atomically; the worst
  race outcome is building the same table twice.
"""

from __future__ import annotations

import time
from typing import Mapping

from ..background import Background
from ..errors import CorruptCacheEntry
from ..params import CosmologyParams
from ..resilience import RetryPolicy
from ..revision import SOLVER_REVISION
from ..telemetry.report import CacheMetrics, DegradationMetrics
from ..thermo import ThermalHistory
from .store import TableStore

__all__ = ["PrecomputeCache"]


class PrecomputeCache:
    """Content-addressed build-or-load for precomputed tables.

    Parameters
    ----------
    cache_dir:
        Root directory of the table store (created if missing).
    metrics:
        An optional :class:`CacheMetrics` to account into (a fresh one
        is created otherwise; exposed as ``self.metrics`` either way).
    retry:
        The :class:`~repro.resilience.RetryPolicy` governing corrupt-
        entry quarantine: a load that raises
        :class:`~repro.errors.CorruptCacheEntry` deletes the entry (the
        store's contract) and the policy drives the rebuild — each
        quarantine lands in ``self.degradation`` — instead of the
        pre-chaos ad-hoc single silent heal.
    """

    def __init__(self, cache_dir, metrics: CacheMetrics | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.store = TableStore(cache_dir)
        self.metrics = metrics if metrics is not None else CacheMetrics()
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=2, backoff_base=0.0, backoff_cap=0.0)
        self.degradation = DegradationMetrics()

    # -- store plumbing -----------------------------------------------------

    def _lookup(self, kind: str, key: str) -> dict | None:
        t0 = time.perf_counter()
        try:
            loaded = self.store.load(key)
        except CorruptCacheEntry:
            self.metrics.record_corrupt(kind)
            return None
        if loaded is None:
            return None
        arrays, _meta, nbytes = loaded
        self.metrics.record_hit(kind, time.perf_counter() - t0, nbytes)
        return arrays

    def _build_or_load(self, kind: str, key: str, build, from_tables):
        """Load ``key`` or build-and-store it, under the retry policy.

        A corrupt entry is quarantined by the store (deleted at load
        time); the retry policy then re-attempts — which rebuilds,
        since the entry is gone — and every quarantine is recorded as a
        ``cache`` degradation event.  If corruption persists through
        the policy's budget (e.g. the storage itself is bad), the final
        fallback builds without the store at all: availability over
        caching.
        """
        t_start = time.perf_counter()

        def attempt():
            t0 = time.perf_counter()
            loaded = self.store.load(key)  # raises CorruptCacheEntry
            if loaded is not None:
                arrays, _meta, nbytes = loaded
                self.metrics.record_hit(kind, time.perf_counter() - t0,
                                        nbytes)
                return from_tables(arrays)
            t1 = time.perf_counter()
            obj = build()
            self._put(kind, key, obj.to_tables(),
                      time.perf_counter() - t1)
            return obj

        def on_retry(n: int, exc: BaseException) -> None:
            self.metrics.record_corrupt(kind)
            self.degradation.record(
                "cache", "quarantine",
                f"{kind} entry {key[:12]} quarantined (retry {n}): {exc}",
                seconds=time.perf_counter() - t_start,
            )

        try:
            return self.retry.call(attempt, retry_on=CorruptCacheEntry,
                                   on_retry=on_retry)
        except CorruptCacheEntry as exc:
            self.metrics.record_corrupt(kind)
            self.degradation.record(
                "cache", "quarantine_exhausted",
                f"{kind} entry {key[:12]}: {exc}",
                seconds=time.perf_counter() - t_start,
            )
            return build()

    def _put(self, kind: str, key: str, arrays: Mapping,
             build_seconds: float) -> None:
        nbytes = self.store.save(
            key, dict(arrays),
            meta={"kind": kind, "build_seconds": build_seconds},
        )
        self.metrics.record_miss(kind, build_seconds, nbytes)

    # -- builders -----------------------------------------------------------

    def background(self, params: CosmologyParams, a_min: float = 1.0e-10,
                   n_grid: int = 4000) -> Background:
        """Build-or-load a :class:`Background` for ``params``."""
        key = params.digest("background",
                            {"a_min": a_min, "n_grid": n_grid})
        return self._build_or_load(
            "background", key,
            build=lambda: Background(params, a_min=a_min, n_grid=n_grid),
            from_tables=lambda tables: Background.from_tables(params, tables),
        )

    def thermal(self, background: Background, a_start: float = 1.0e-8,
                n_grid: int = 6000, saha_switch: float = 0.985,
                z_reion: float | None = None,
                x_e_reion: float | None = None,
                dz_reion: float = 1.5) -> ThermalHistory:
        """Build-or-load a :class:`ThermalHistory` on ``background``.

        The key covers only what the ionization solve depends on (the
        cosmology, the thermal grid shape and the solver's revision) —
        the background's own table resolution does not enter the solve,
        so backgrounds of different ``n_grid`` share thermal entries.
        """
        key = background.params.digest("thermal", {
            "solver": SOLVER_REVISION,
            "a_start": a_start,
            "n_grid": n_grid,
            "saha_switch": saha_switch,
            "z_reion": z_reion,
            "x_e_reion": x_e_reion,
            "dz_reion": dz_reion,
        })
        return self._build_or_load(
            "thermal", key,
            build=lambda: ThermalHistory(
                background, a_start=a_start, n_grid=n_grid,
                saha_switch=saha_switch, z_reion=z_reion,
                x_e_reion=x_e_reion, dz_reion=dz_reion,
            ),
            from_tables=lambda tables: ThermalHistory.from_tables(
                background, tables),
        )
