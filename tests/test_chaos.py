"""The chaos engine and the graceful-degradation ladder.

Three layers of coverage:

* engine unit tests — seeded decisions are deterministic, budgeted,
  and phase-shifted exactly as documented;
* per-surface recovery tests — a garbled result-store write is
  quarantined and missed, then re-written clean, a stale/failing
  ``.so`` build retries into existence, a NaN-poisoned compiled phase
  fails its attempt and the ladder's same-config retry recovers it;
* end-to-end invariance — a PLINGER spectrum run under each chaos
  profile reproduces the fault-free wire records at rtol 1e-8 while
  the telemetry proves the recovery paths actually fired.

``REPRO_CHAOS_SEED`` parameterizes the end-to-end seed so CI can sweep
several seeds without editing the suite.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import KGrid, LingerConfig, Telemetry, run_plinger
from repro.chaos import (
    PROFILES,
    ChaosEngine,
    ChaosPolicy,
    active,
    current_engine,
    install,
    uninstall,
)
from repro.errors import CorruptCacheEntry
from repro.resilience import FaultTolerance, RetryPolicy
from repro.telemetry.report import DegradationMetrics, fold

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def no_leaked_engine():
    """Every test must leave the process-global engine uninstalled."""
    yield
    assert current_engine() is None
    uninstall()


class TestChaosPolicy:
    def test_profiles_arm_expected_budgets(self):
        p = ChaosPolicy.from_profile("kernel", seed=7)
        assert p.seed == 7
        assert p.kernel_nan_faults == 1
        assert p.compile_faults == 1 and p.stale_so_faults == 1
        assert p.cache_write_faults == 0 and p.integrator_faults == 0

        p = ChaosPolicy.from_profile("all")
        for field in ("cache_write_faults", "kernel_nan_faults", "compile_faults",
                      "stale_so_faults", "integrator_faults"):
            assert getattr(p, field) == 1, field

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            ChaosPolicy.from_profile("explosions")

    def test_there_is_no_cache_profile(self):
        """A run writes no store, so a profile arming only store writes
        would inject nothing; ``all`` keeps the budget for the result
        store the verify oracle writes."""
        assert "cache" not in PROFILES
        with pytest.raises(ValueError, match="unknown chaos profile"):
            ChaosPolicy.from_profile("cache")

    def test_overrides_and_round_trip(self):
        p = ChaosPolicy.from_profile("all", seed=3,
                                     cache_write_mode="torn")
        assert p.cache_write_mode == "torn"
        assert ChaosPolicy(**p.as_dict()) == p


class TestChaosEngine:
    def test_budget_and_determinism(self):
        pol = ChaosPolicy(cache_write_faults=2)
        a = [ChaosEngine(pol).cache_write_fault("k") is not None
             for _ in range(1)]
        eng1, eng2 = ChaosEngine(pol), ChaosEngine(pol)
        seq1 = [eng1.cache_write_fault(f"k{i}") for i in range(5)]
        seq2 = [eng2.cache_write_fault(f"k{i}") for i in range(5)]
        assert seq1 == seq2 == ["garble", "garble", None, None, None]
        assert eng1.injected == {"cache_write": 2}
        assert a  # keep flake8 quiet about the warm-up list

    def test_kernel_poison_phase(self):
        eng = ChaosEngine(ChaosPolicy(seed=3, kernel_nan_faults=1))
        hits = [eng.poison_rhs(k) for k in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
        assert hits == [False, False, False, True, False, False]  # phase 3
        assert eng.summary()["opportunities"] == {"kernel_nan": 6}

    def test_collapse_mode_once_per_distinct_ik(self):
        eng = ChaosEngine(ChaosPolicy(integrator_faults=2))
        assert eng.collapse_mode(5)       # first distinct ik
        assert not eng.collapse_mode(5)   # retry of ik=5 runs clean
        assert eng.collapse_mode(2)       # second distinct ik
        assert not eng.collapse_mode(9)   # budget exhausted
        assert eng.injected["integrator"] == 2

    def test_a_wavenumber_takes_one_integration_fault(self):
        """Whatever order worker threads meet the two sites in, no mode
        fails twice: the ladder's one same-config retry then recovers
        every injected fault at level 0."""
        eng = ChaosEngine(ChaosPolicy(integrator_faults=2,
                                      kernel_nan_faults=1))
        assert eng.collapse_mode(0.02)
        # the retry's phases pass the collapsed mode over, uncounted
        assert not eng.poison_rhs(0.02)
        assert eng.poison_rhs(0.01)
        # ... and the poisoned mode's retry is not collapsed either,
        # though the budget has a collapse left for another mode
        assert not eng.collapse_mode(0.01)
        assert eng.collapse_mode(0.03)
        assert eng.injected == {"integrator": 2, "kernel_nan": 1}
        assert eng.summary()["opportunities"] == {"integrator": 2,
                                                  "kernel_nan": 1}

    def test_active_installs_and_restores(self):
        assert current_engine() is None
        with active(ChaosPolicy(compile_faults=1)) as eng:
            assert current_engine() is eng
            assert eng.fail_compile()
            with active(ChaosEngine(ChaosPolicy())) as inner:
                assert current_engine() is inner
            assert current_engine() is eng
        assert current_engine() is None

    def test_install_uninstall(self):
        eng = install(ChaosEngine(ChaosPolicy()))
        assert current_engine() is eng
        uninstall()
        assert current_engine() is None

    def test_summary(self):
        with active(ChaosPolicy(compile_faults=1)) as eng:
            eng.fail_compile()
            eng.fail_compile()
        s = eng.summary()
        assert s["injected"] == {"compile": 1}
        assert s["opportunities"] == {"compile": 2}
        assert s["policy"]["compile_faults"] == 1

    def test_removed_budgets_are_rejected(self):
        """The attach and tag-8 budgets went with the table transport;
        a policy naming one is a caller bug, not a silent no-op."""
        for gone in ("attach_faults", "mp_cache_drop_every",
                     "mp_cache_corrupt_every"):
            with pytest.raises(TypeError):
                ChaosPolicy(**{gone: 1})


class TestRetryPolicy:
    def test_exhaustion_and_backoff_schedule(self):
        rp = RetryPolicy(max_retries=3, backoff_base=0.05,
                         backoff_factor=2.0, backoff_cap=0.15)
        assert [rp.exhausted(n) for n in (1, 2, 3, 4)] == \
            [False, False, False, True]
        assert [rp.backoff(n) for n in (1, 2, 3)] == [0.05, 0.1, 0.15]

    def test_call_retries_then_succeeds(self):
        calls = {"n": 0}
        seen = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("torn")
            return "ok"

        rp = RetryPolicy(max_retries=3, backoff_base=0.0)
        out = rp.call(flaky, retry_on=OSError,
                      on_retry=lambda n, exc: seen.append(n),
                      sleep=lambda s: None)
        assert out == "ok" and calls["n"] == 3 and seen == [1, 2]

    def test_call_raises_after_budget(self):
        rp = RetryPolicy(max_retries=1, backoff_base=0.0)
        with pytest.raises(OSError):
            rp.call(lambda: (_ for _ in ()).throw(OSError("x")),
                    retry_on=OSError, sleep=lambda s: None)

    def test_fault_tolerance_exposes_matching_policy(self):
        ft = FaultTolerance(max_retries=4, backoff_base=0.03)
        rp = ft.retry_policy()
        # exactly the worker loop's historical backoff arithmetic
        for n in range(1, 6):
            assert rp.backoff(n) == min(0.03 * 2 ** (n - 1), 1.0)
        assert rp.exhausted(5) and not rp.exhausted(4)


class TestStoreChaos:
    def _store(self, tmp_path):
        from repro.cache.store import TableStore

        return TableStore(tmp_path / "store")

    @pytest.mark.parametrize("mode", ["garble", "torn"])
    def test_corrupted_write_caught_on_load(self, tmp_path, mode):
        store = self._store(tmp_path)
        arrays = {"x": np.arange(64, dtype=float)}
        with active(ChaosPolicy(cache_write_faults=1,
                                cache_write_mode=mode)):
            store.save("aa" + "0" * 62, arrays)
        with pytest.raises(CorruptCacheEntry):
            store.load("aa" + "0" * 62)
        # the corrupt entry was quarantined (deleted): next load misses
        assert store.load("aa" + "0" * 62) is None

    def test_quarantine_rebuilds_and_records(self, tmp_path, scdm):
        from repro.serve.results import ResultStore

        key = scdm.digest("chaos_test")
        product = {"cl": np.linspace(1.0, 2.0, 9)}
        with active(ChaosPolicy(cache_write_faults=1)):
            ResultStore(tmp_path / "s").put(key, product)  # garbled
        fresh = ResultStore(tmp_path / "s")
        assert fresh.get(key) is None  # quarantined: a miss, not a lie
        assert fresh.corrupt == 1 and fresh.misses == 1
        assert key not in fresh
        # the re-write is clean: another fresh store reads it back
        fresh.put(key, product)
        back = ResultStore(tmp_path / "s").get(key)
        assert np.array_equal(back.arrays["cl"], product["cl"])

    def test_quarantine_exhaustion_builds_without_store(self, tmp_path,
                                                        scdm, monkeypatch):
        """Persistently bad storage costs the disk tier, not the
        product: every disk read misses, and what was put is served
        from memory."""
        from repro.serve.results import ResultStore

        store = ResultStore(tmp_path / "s")

        def always_corrupt(key):
            raise CorruptCacheEntry("persistently bad storage")

        monkeypatch.setattr(store.disk, "load", always_corrupt)
        key = scdm.digest("chaos_test")
        assert store.get(key) is None and store.corrupt == 1
        store.put(key, {"cl": np.ones(3)})
        assert np.array_equal(store.get(key).arrays["cl"], np.ones(3))
        assert store.hits_mem == 1 and store.corrupt == 1



class TestCextChaos:
    def test_stale_so_and_compile_failure_recover(self):
        from repro._cext import (
            BUILD_EVENTS,
            get_cext,
            reset_cext,
        )

        try:
            with active(ChaosPolicy.from_profile("kernel")):
                reset_cext()
                fn = get_cext()
            assert fn is not None  # recovered through the gauntlet
            kinds = [e["event"] for e in BUILD_EVENTS]
            assert "chaos_stale_so" in kinds
            assert "chaos_compile_failure" in kinds
            # at least one retry healed the injected failures (a prior
            # dlopen of the same path may satisfy the stale load from
            # the loader cache, so the exact count is host-dependent)
            assert kinds.count("build_retry") >= 1
        finally:
            reset_cext()
            assert get_cext() is not None


class TestDegradationMetrics:
    def test_record_count_and_recovery_seconds(self):
        dm = DegradationMetrics()
        dm.record("cache", "quarantine", "entry x", seconds=0.25)
        dm.record("kernel", "build_retry", "attempt 1")
        dm.record("cache", "quarantine_exhausted")
        assert dm.total_events == 3
        assert dm.events_by_surface == {"cache": 2, "kernel": 1}
        assert dm.count("cache") == 2
        assert dm.count("cache", "quarantine") == 1
        assert dm.recovery_seconds == pytest.approx(0.25)

    def test_merge(self):
        a, b = DegradationMetrics(), DegradationMetrics()
        a.record("cache", "quarantine", seconds=0.1)
        b.record("integrator", "transient_retry", seconds=0.2)
        fold(a, b)
        assert a.total_events == 2
        assert a.recovery_seconds == pytest.approx(0.3)

    def test_report_round_trip(self):
        dm = DegradationMetrics()
        dm.record("kernel", "build_retry", "attempt 1", seconds=0.5)
        report = Telemetry()
        report.degradation = dm
        loaded = Telemetry.from_dict(report.to_dict())
        assert loaded.degradation is not None
        assert loaded.degradation.events == dm.events
        assert loaded.degradation.recovery_seconds == pytest.approx(0.5)
        assert report.totals["degradation_events"] == 1
        assert report.totals["degradation_by_surface"] == {"kernel": 1}

    def test_absent_section_loads_unchanged(self):
        report = Telemetry.from_dict(Telemetry().to_dict())
        assert report.degradation is None

    def test_telemetry_worker_payload_round_trip(self):
        worker = Telemetry()
        worker.record_degradation("cache", "quarantine", "retry 1",
                                  seconds=0.01)
        master = Telemetry()
        master.record_degradation("integrator", "transient_retry")
        master.merge(worker.to_dict())
        assert master.degradation.count("cache", "quarantine") == 1
        assert master.degradation.events_by_surface == {"integrator": 1,
                                                        "cache": 1}
        assert master.degradation.recovery_seconds == pytest.approx(0.01)


@pytest.fixture(scope="module")
def chaos_grid():
    return KGrid.from_k(np.geomspace(1e-3, 0.01, 5))


@pytest.fixture(scope="module")
def chaos_config():
    return LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4,
                        record_sources=False, keep_mode_results=False)


@pytest.fixture(scope="module")
def chaos_reference(scdm, bg_scdm, thermo_scdm, chaos_grid, chaos_config):
    """The fault-free wire records every chaos profile must reproduce."""
    result, _ = run_plinger(scdm, chaos_grid, chaos_config, nproc=3,
                            backend="inprocess", background=bg_scdm,
                            thermo=thermo_scdm)
    return result


class TestEndToEndProfiles:
    """Each profile must reproduce the fault-free spectrum at 1e-8
    while its recovery path demonstrably fires."""

    def _run_chaotic(self, profile, scdm, bg_scdm, thermo_scdm,
                     chaos_grid, chaos_config):
        tel = Telemetry()
        ft = FaultTolerance(max_retries=2, backoff_base=0.01,
                            worker_timeout=10.0)
        policy = ChaosPolicy.from_profile(profile, seed=CHAOS_SEED)
        with active(policy) as eng:
            result, _ = run_plinger(
                scdm, chaos_grid, chaos_config, nproc=3,
                backend="inprocess", telemetry=tel, fault_tolerance=ft,
                background=bg_scdm, thermo=thermo_scdm,
            )
        return result, tel, eng

    def _assert_matches(self, result, reference):
        for got, ref in zip(result.payloads, reference.payloads):
            np.testing.assert_allclose(got.pack(), ref.pack(),
                                       rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(result.delta_m, reference.delta_m,
                                   rtol=1e-8)

    def test_integrator_profile(self, scdm, bg_scdm, thermo_scdm,
                                chaos_grid, chaos_config,
                                chaos_reference):
        result, tel, eng = self._run_chaotic(
            "integrator", scdm, bg_scdm, thermo_scdm, chaos_grid,
            chaos_config)
        self._assert_matches(result, chaos_reference)
        assert eng.injected.get("integrator") == 1
        assert tel.degradation.count("integrator", "transient_retry") >= 1
        # the transient retry recovered at the original config: no mode
        # carries a ladder downgrade
        assert all(h.retry_level == 0 for h in result.headers)

    def test_kernel_profile(self, scdm, bg_scdm, thermo_scdm, chaos_grid,
                            chaos_config, chaos_reference):
        result, tel, eng = self._run_chaotic(
            "kernel", scdm, bg_scdm, thermo_scdm, chaos_grid,
            chaos_config)
        self._assert_matches(result, chaos_reference)
        assert eng.injected.get("kernel_nan") == 1
        # the poisoned phase failed its attempt; the same-config retry
        # recovered it, so no mode carries a ladder downgrade
        assert tel.degradation.count("integrator", "transient_retry") >= 1
        assert all(h.retry_level == 0 for h in result.headers)

    def test_all_profile_cl_matches(self, scdm, bg_scdm, thermo_scdm,
                                    chaos_grid, chaos_config,
                                    chaos_reference):
        from repro.spectra import cl_from_hierarchy

        result, tel, eng = self._run_chaotic(
            "all", scdm, bg_scdm, thermo_scdm, chaos_grid,
            chaos_config)
        self._assert_matches(result, chaos_reference)
        _l, cl_ref = cl_from_hierarchy(chaos_reference)
        _l2, cl = cl_from_hierarchy(result)
        np.testing.assert_allclose(cl, cl_ref, rtol=1e-8)
        # a run writes no store: the store-write budget stays unspent
        assert "cache_write" not in eng.injected
        assert tel.degradation.count("integrator") >= 2
        assert all(h.retry_level == 0 for h in result.headers)


#: a serial ``repro run`` small enough to run several times per test
CLI_RUN = ["run", "--nk", "2", "--lmax", "8", "--rtol", "1e-3",
           "--k-min", "1e-3", "--k-max", "3e-3"]


def _archive_physics(path) -> dict:
    """Every array of a run archive, headers without their timing
    column (18, ``cpu_seconds``), as bytes."""
    with np.load(path) as data:
        out = {name: data[name].tobytes() for name in data.files}
        out["headers"] = np.delete(data["headers"], 18, axis=1).tobytes()
    return out


class TestSerialChaos:
    """Both drivers integrate a mode through one function,
    ``linger.serial.compute_mode``, ladder and chaos consult included."""

    @pytest.mark.parametrize("profile", ["kernel", "integrator", "all"])
    def test_a_serial_cli_chaos_run_heals_every_fault(self, tmp_path,
                                                      capsys, profile):
        from repro.cli import main

        clean = tmp_path / "clean.npz"
        assert main([*CLI_RUN, "--output", str(clean)]) == 0
        chaotic, report = tmp_path / "chaos.npz", tmp_path / "chaos.json"
        assert main([*CLI_RUN, "--chaos-seed", str(CHAOS_SEED),
                     "--chaos-profile", profile, "--output", str(chaotic),
                     "--report", str(report)]) == 0
        assert "injected (master process): none" not in capsys.readouterr().out
        assert _archive_physics(chaotic) == _archive_physics(clean)
        events = Telemetry.load(report).degradation
        assert events is not None
        assert events.count("integrator", "transient_retry") >= 1

    def test_a_chaos_run_leaves_the_kernel_cache_alone(self, tmp_path):
        """The stale-.so fault plants a torn file at the content-addressed
        path: a CLI chaos run does that in a cache of its own, so a
        pre-built kernel keeps its inode and its bytes."""
        import hashlib
        import subprocess
        import sys

        from repro._cext import cache_dir, get_cext, private_cache

        cache = tmp_path / "kernels"
        with private_cache(cache):
            get_cext()
            (so,) = [os.path.join(cache_dir(), name)
                     for name in os.listdir(cache_dir())
                     if name.endswith(".so")]

        def fingerprint():
            with open(so, "rb") as fh:
                return os.stat(so).st_ino, hashlib.sha256(fh.read()).digest()

        before = fingerprint()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   REPRO_KERNEL_CACHE=str(cache))
        done = subprocess.run(
            [sys.executable, "-m", "repro", *CLI_RUN, "--chaos-seed",
             str(CHAOS_SEED), "--chaos-profile", "kernel", "--output",
             str(tmp_path / "x.npz")],
            env=env, capture_output=True, text=True, timeout=300)
        assert fingerprint() == before
        assert done.returncode == 0, done.stderr

    def test_serial_and_plinger_climb_the_ladder_alike(self, scdm, bg_scdm,
                                                       thermo_scdm,
                                                       chaos_grid,
                                                       chaos_config):
        """A hopeless opening step fails every mode at level 0; both
        drivers recover it at level 1, to the same bits."""
        from dataclasses import replace

        from repro import run_linger

        hopeless = replace(chaos_config, first_step=1e-300)
        tables = dict(background=bg_scdm, thermo=thermo_scdm)
        serial = run_linger(scdm, chaos_grid, hopeless, **tables)
        parallel, _ = run_plinger(scdm, chaos_grid, hopeless, nproc=3,
                                  backend="inprocess", **tables)
        assert [h.retry_level for h in serial.headers] == \
            [h.retry_level for h in parallel.headers] == [1] * chaos_grid.nk
        for a, b in zip(serial.headers, parallel.headers):
            assert (np.delete(a.pack(), 18).tobytes()
                    == np.delete(b.pack(), 18).tobytes())
        for a, b in zip(serial.payloads, parallel.payloads):
            assert a.pack().tobytes() == b.pack().tobytes()


class TestVerifyOracle:
    def test_chaos_degradation_oracle_passes(self, scdm):
        from repro.verify.oracles import chaos_degradation_oracle

        out = chaos_degradation_oracle(scdm, seed=CHAOS_SEED)
        dev = out["chaos_degradation"]
        assert not np.isnan(dev)
        assert dev <= 1e-8
        assert all(n >= 1 for n in out["chaos_events"].values()), \
            out["chaos_events"]
