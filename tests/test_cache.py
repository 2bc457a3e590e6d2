"""The precompute cache: keys, store integrity, and end-to-end
bit-compatibility of cached runs.

The cache's contract is strict: a warm start must be *bitwise*
indistinguishable from a cold one (only primitive solver output is
persisted; every spline is re-derived by the same code), and corrupt
entries must be detected and healed.

Point ``REPRO_CACHE_DIR`` at a directory to run this file against a
persistent cache (the CI ``tests`` job runs this file a second time
against one directory; that pass exercises every load path).
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro import Background, KGrid, LingerConfig, ThermalHistory, run_linger
from repro.cache import (
    CACHE_VERSION,
    PrecomputeCache,
    TableStore,
    cache_key,
)
from repro.errors import CorruptCacheEntry, ParameterError
from repro.plinger.driver import run_plinger
from repro.spectra.cl import cl_from_hierarchy, los_l_grid
from repro.telemetry import Telemetry
from repro.telemetry.report import CacheMetrics, FaultReport, RunReport
from tests.test_golden_regression import (
    GOLDEN_CL,
    GOLDEN_CONFIG,
    GOLDEN_KGRID,
    GOLDEN_TK,
    RTOL,
    TK_FIELDS,
)


@pytest.fixture()
def cache_dir(tmp_path_factory):
    """A cache root: $REPRO_CACHE_DIR when set (CI warm job), else a
    fresh temporary directory."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return str(tmp_path_factory.mktemp("cache"))


@pytest.fixture()
def fresh_dir(tmp_path):
    """Always-cold cache root, for tests that need a guaranteed miss."""
    return str(tmp_path / "cold-cache")


# -- content-addressed keys --------------------------------------------------


class TestCacheKeys:
    def test_deterministic(self, scdm):
        shape = {"a_min": 1e-10, "n_grid": 4000}
        assert cache_key("background", scdm, shape) == \
            cache_key("background", scdm, shape)

    def test_is_hex_sha256(self, scdm):
        key = cache_key("background", scdm)
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_param_sensitivity(self, scdm):
        from dataclasses import replace

        other = replace(scdm, h=scdm.h * (1 + 1e-15))
        assert cache_key("background", scdm) != cache_key("background", other)

    def test_shape_and_kind_sensitivity(self, scdm):
        base = cache_key("background", scdm, {"n_grid": 4000})
        assert base != cache_key("background", scdm, {"n_grid": 4001})
        assert base != cache_key("thermal", scdm, {"n_grid": 4000})

    def test_version_in_blob(self, scdm):
        from repro.cache import canonical_blob

        blob = json.loads(canonical_blob("background", scdm, None))
        assert blob["version"] == CACHE_VERSION
        assert blob["kind"] == "background"
        assert blob["params"]["__type__"] == "CosmologyParams"


# -- the on-disk store -------------------------------------------------------


class TestTableStore:
    ARRAYS = {
        "grid": np.linspace(0.0, 1.0, 17),
        "matrix": np.arange(12, dtype=float).reshape(3, 4),
        "scalar": np.float64(3.25),
        "ints": np.array([3, 1, 4], dtype=np.int64),
    }

    def test_roundtrip(self, tmp_path):
        store = TableStore(tmp_path)
        key = "ab" + "0" * 62
        nbytes = store.save(key, self.ARRAYS, meta={"kind": "test"})
        assert nbytes > 0 and key in store
        arrays, meta, read = store.load(key)
        assert meta["kind"] == "test" and read == nbytes
        for name, arr in self.ARRAYS.items():
            assert np.array_equal(arrays[name], arr)
            assert arrays[name].shape == np.asarray(arr).shape
        assert float(arrays["scalar"]) == 3.25  # 0-d survives the trip

    def test_missing_is_none(self, tmp_path):
        assert TableStore(tmp_path).load("ff" + "0" * 62) is None

    def test_reserved_names_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TableStore(tmp_path).save("aa" + "0" * 62,
                                      {"__digest__": np.zeros(3)})

    def test_truncation_detected_and_healed(self, tmp_path):
        store = TableStore(tmp_path)
        key = "cd" + "0" * 62
        store.save(key, self.ARRAYS)
        path = store.path(key)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CorruptCacheEntry):
            store.load(key)
        assert key not in store  # deleted: next save rebuilds cleanly

    def test_bitflip_detected_by_digest(self, tmp_path):
        store = TableStore(tmp_path)
        key = "ef" + "0" * 62
        store.save(key, {"v": np.ones(64)})
        path = store.path(key)
        raw = bytearray(path.read_bytes())
        # flip one bit inside the zip's stored array payload; if the
        # flip lands on zip metadata instead, the parse error is an
        # equally valid corruption signal
        raw[len(raw) // 2] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCacheEntry):
            store.load(key)
        assert key not in store

    def test_concurrent_writers_atomic(self, tmp_path):
        """Racing writers of one key never produce a torn entry."""
        store = TableStore(tmp_path)
        key = "12" + "0" * 62
        errors = []

        def write(seed):
            try:
                arrays = {"v": np.full(4096, float(seed))}
                for _ in range(10):
                    store.save(key, arrays)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        arrays, _, _ = store.load(key)  # digest passes: a complete file won
        assert float(arrays["v"][0]) in {float(s) for s in range(6)}
        assert np.all(arrays["v"] == arrays["v"][0])

    def test_keys_listing(self, tmp_path):
        store = TableStore(tmp_path)
        ks = ["aa" + "0" * 62, "bb" + "1" * 62]
        for k in ks:
            store.save(k, {"v": np.zeros(2)})
        assert store.keys() == sorted(ks)


# -- build-or-load bit-compatibility ----------------------------------------


class TestPrecomputeRoundtrip:
    def _assert_background_equal(self, a: Background, b: Background):
        grid = np.geomspace(1e-8, 1.0, 200)
        assert np.array_equal(a.conformal_time(grid), b.conformal_time(grid))
        assert np.array_equal(a.grho(grid), b.grho(grid))
        assert a.tau0 == b.tau0

    def _assert_thermal_equal(self, a: ThermalHistory, b: ThermalHistory):
        tau = np.linspace(a.tau_rec * 0.3, a.background.tau0 * 0.95, 300)
        scale = np.geomspace(1e-6, 1.0, 200)
        assert np.array_equal(a.x_e(scale), b.x_e(scale))
        assert np.array_equal(a.visibility(tau), b.visibility(tau))
        assert np.array_equal(a.visibility_prime(tau), b.visibility_prime(tau))
        assert np.array_equal(a.exp_minus_kappa(tau), b.exp_minus_kappa(tau))
        assert a.tau_rec == b.tau_rec and a.z_rec == b.z_rec

    def test_scdm_warm_is_bitwise(self, scdm, cache_dir):
        c1 = PrecomputeCache(cache_dir)
        bg1 = c1.background(scdm)
        th1 = c1.thermal(bg1)
        c2 = PrecomputeCache(cache_dir)
        bg2 = c2.background(scdm)
        th2 = c2.thermal(bg2)
        assert c2.metrics.hits == 2 and c2.metrics.misses == 0
        self._assert_background_equal(bg1, bg2)
        self._assert_thermal_equal(th1, th2)

    def test_mdm_warm_is_bitwise(self, mdm, cache_dir):
        c1 = PrecomputeCache(cache_dir)
        bg1 = c1.background(mdm)
        c2 = PrecomputeCache(cache_dir)
        bg2 = c2.background(mdm)
        self._assert_background_equal(bg1, bg2)
        grid = np.geomspace(1e-6, 1.0, 150)
        assert np.array_equal(bg1.nu_tables.rho_factor(grid),
                              bg2.nu_tables.rho_factor(grid))
        assert np.array_equal(bg1.nu_tables.pressure_factor(grid),
                              bg2.nu_tables.pressure_factor(grid))

    def test_corrupt_entry_rebuilt(self, scdm, fresh_dir):
        c1 = PrecomputeCache(fresh_dir)
        bg1 = c1.background(scdm)
        key = c1.store.keys()[0]
        path = c1.store.path(key)
        path.write_bytes(path.read_bytes()[:50])
        c2 = PrecomputeCache(fresh_dir)
        bg2 = c2.background(scdm)
        assert c2.metrics.corrupt_entries == 1
        assert c2.metrics.misses == 1  # healed by rebuilding
        self._assert_background_equal(bg1, bg2)
        c3 = PrecomputeCache(fresh_dir)
        c3.background(scdm)
        assert c3.metrics.hits == 1  # the rebuild re-landed on disk

    def test_thermal_key_independent_of_background_grid(self, scdm,
                                                        fresh_dir):
        c = PrecomputeCache(fresh_dir)
        th1 = c.thermal(c.background(scdm))
        coarse = Background(scdm, n_grid=2000)
        c.thermal(coarse)  # different bg resolution, same ionization solve
        assert c.metrics.by_kind["thermal"]["hits"] == 1
        assert th1 is not None

    @pytest.mark.parametrize("revision", [1, 2, 4])
    def test_entries_of_an_earlier_solver_are_never_served(
            self, scdm, fresh_dir, monkeypatch, revision):
        from repro.cache import precompute
        from repro.revision import SOLVER_REVISION

        assert SOLVER_REVISION > revision
        bg = Background(scdm)
        old = PrecomputeCache(fresh_dir)
        monkeypatch.setattr(precompute, "SOLVER_REVISION", revision)
        old.thermal(bg)  # what that release left on disk
        monkeypatch.undo()
        new = PrecomputeCache(fresh_dir)
        new.thermal(bg)
        assert new.metrics.by_kind["thermal"] == {
            "hits": 0, "misses": 1, "corrupt": 0}
        assert len(new.store.keys()) == 2


# -- end-to-end: cached runs against the golden snapshots --------------------


def _golden_settings():
    kg = KGrid.from_k(np.geomspace(
        GOLDEN_KGRID["k_min"], GOLDEN_KGRID["k_max"], GOLDEN_KGRID["nk"]))
    return kg, LingerConfig(**GOLDEN_CONFIG)


@pytest.mark.golden
class TestCachedRunsMatchGolden:
    def test_serial_warm_run_matches_golden(self, scdm, cache_dir):
        kg, cfg = _golden_settings()
        # prime, then run entirely from the cache
        PrecomputeCache(cache_dir).thermal(
            PrecomputeCache(cache_dir).background(scdm))
        cache = PrecomputeCache(cache_dir)
        result = run_linger(scdm, kg, cfg, cache=cache)
        assert cache.metrics.misses == 0 and cache.metrics.hits == 2

        stored = json.loads(GOLDEN_CL.read_text())
        l, cl = cl_from_hierarchy(result)
        np.testing.assert_allclose(cl, np.asarray(stored["cl"]),
                                   rtol=RTOL, atol=0.0)
        tk = json.loads(GOLDEN_TK.read_text())
        for name in TK_FIELDS:
            np.testing.assert_allclose(
                [float(getattr(h, name)) for h in result.headers],
                np.asarray(tk[name], dtype=float), rtol=RTOL, atol=0.0,
                err_msg=f"cached run drifted on {name}")

    def test_four_worker_shared_run_matches_golden(self, scdm, cache_dir):
        """The acceptance run: 4 forked workers sharing, by inheritance,
        the tables the master built or loaded through the cache."""
        kg, cfg = _golden_settings()
        cache = PrecomputeCache(cache_dir)
        telemetry = Telemetry()
        result, _stats = run_plinger(
            scdm, kg, cfg, nproc=5, backend="procs",
            cache=cache, telemetry=telemetry,
        )
        assert cache.metrics.hits + cache.metrics.misses == 2
        stored = json.loads(GOLDEN_CL.read_text())
        l, cl = cl_from_hierarchy(result)
        np.testing.assert_allclose(cl, np.asarray(stored["cl"]),
                                   rtol=RTOL, atol=0.0)
        report = telemetry.build_report()
        assert report.cache is cache.metrics
        assert len(report.workers) == 4

    def test_batched_warm_vs_cold_bitwise(self, scdm, fresh_dir):
        """Cache warm vs cold through the batched engine: the cached
        background/thermal tables must reproduce every wire record
        *bitwise* — the cache claims bit-identical reloads, and the
        batched engine must not launder a table difference into a
        trajectory difference."""
        kg, cfg = _golden_settings()
        cold_cache = PrecomputeCache(fresh_dir)
        cold = run_linger(scdm, kg, cfg, batch_size=4, cache=cold_cache)
        assert cold_cache.metrics.misses == 2

        warm_cache = PrecomputeCache(fresh_dir)
        warm = run_linger(scdm, kg, cfg, batch_size=4, cache=warm_cache)
        assert warm_cache.metrics.hits == 2
        assert warm_cache.metrics.misses == 0

        # slot 18 of the header wire format is cpu_seconds (timing,
        # legitimately differs between runs); everything else is physics
        # or deterministic accounting and must match to the last bit
        # (equal_nan: delta_nu_massive is NaN on a massless-nu model)
        physics = [i for i in range(21) if i != 18]
        for hc, hw in zip(cold.headers, warm.headers):
            assert np.array_equal(hc.pack()[physics], hw.pack()[physics],
                                  equal_nan=True), (
                f"warm-cache batched run drifted at k={hc.k:g}"
            )
        for pc, pw in zip(cold.payloads, warm.payloads):
            assert np.array_equal(pc.pack(), pw.pack()), (
                f"warm-cache batched payload drifted at k={pc.k:g}"
            )


# -- telemetry plumbing ------------------------------------------------------


class TestCacheMetrics:
    def test_hit_rate(self):
        m = CacheMetrics()
        m.record_miss("background", 1.0, 100)
        m.record_hit("background", 0.01, 100)
        m.record_hit("thermal", 0.01, 50)
        assert m.hit_rate == pytest.approx(2.0 / 3.0)
        assert m.by_kind["background"] == \
            {"hits": 1, "misses": 1, "corrupt": 0}

    def test_report_json_roundtrip(self, tmp_path):
        m = CacheMetrics()
        m.record_miss("thermal", 0.5, 2048)
        m.record_corrupt("thermal")
        tel = Telemetry()
        tel.cache = m
        report = tel.build_report()
        path = tmp_path / "report.json"
        report.save(path)
        back = RunReport.load(path)
        assert back.cache is not None
        assert back.cache.misses == 1
        assert back.cache.corrupt_entries == 1
        assert back.totals["cache_misses"] == 1

    def test_report_written_before_the_transport_went_still_loads(self):
        """A RunReport from a release that still shipped tables through
        shared memory, and stepped chunks in lockstep, carries four
        fields, one section and two totals nothing writes any more."""
        tel = Telemetry()
        tel.cache = CacheMetrics()
        tel.cache.record_hit("background", 0.01, 100)
        tel.fault = FaultReport(reassignments=1)
        tel.record_mode(k=0.01, ik=1, n_steps=9, n_rejected=1)
        doc = tel.build_report().to_dict()
        doc["cache"].update(bytes_shared=262144, shared_backend="shm",
                            workers_attached=2)
        doc["fault"]["table_wire_transfers"] = 1
        doc["totals"]["cache_bytes_shared"] = 262144
        doc["batches"] = [{
            "n_lanes": 4, "k_min": 0.001, "k_max": 0.02, "n_sweeps": 100,
            "lane_steps_attempted": 380, "lane_steps_accepted": 360,
            "lane_steps_rejected": 20, "lane_slots_idle": 20,
            "tca_wall_seconds": 0.5, "full_wall_seconds": 1.0,
            "wall_seconds": 1.5}]
        doc["totals"].update(n_batches=1, lane_occupancy=0.95,
                             wasted_step_fraction=20 / 380)
        back = RunReport.from_json(json.dumps(doc))
        assert back.cache.hits == 1
        assert back.fault.reassignments == 1
        assert not hasattr(back.cache, "bytes_shared")
        assert not hasattr(back.fault, "table_wire_transfers")
        # the batches section is dropped; the totals are re-derived
        # from what was kept, the per-mode rows
        assert not hasattr(back, "batches")
        redone = back.to_dict()
        assert "batches" not in redone
        assert not {"n_batches", "lane_occupancy"} & set(redone["totals"])
        assert redone["totals"]["wasted_step_fraction"] == 0.1

    def test_report_without_cache_stays_none(self):
        tel = Telemetry()
        report = tel.build_report()
        assert report.cache is None
        assert "cache" in report.to_dict()


# -- the canonical LOS multipole grid ---------------------------------------


class TestLosLGrid:
    def test_dense_head_sparse_tail(self):
        ls = los_l_grid(500, n=20)
        assert ls[0] == 2
        assert ls[-1] == 500
        assert np.all(np.diff(ls) > 0)
        assert set(range(2, 13)) <= set(int(l) for l in ls)

    def test_small_lmax(self):
        ls = los_l_grid(8)
        assert ls[0] == 2 and ls[-1] == 8

    def test_rejects_bad_lmax(self):
        with pytest.raises(ParameterError):
            los_l_grid(1)
