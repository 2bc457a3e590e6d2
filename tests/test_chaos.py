"""The chaos engine and the graceful-degradation ladder.

Three layers of coverage:

* engine unit tests — seeded decisions are deterministic, budgeted,
  and phase-shifted exactly as documented;
* per-surface recovery tests — a corrupted store entry quarantines and
  rebuilds, a stale/failing ``.so`` build retries into existence, a
  NaN-poisoned compiled kernel demotes to the python floor mid-run;
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
from repro.cache import PrecomputeCache
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
from repro.perturbations.operator import available_kernels
from repro.resilience import FaultTolerance, RetryPolicy
from repro.telemetry.report import DegradationMetrics, RunReport

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

ONLY_PYTHON = available_kernels() == ("python",)


@pytest.fixture(autouse=True)
def no_leaked_engine():
    """Every test must leave the process-global engine uninstalled."""
    yield
    assert current_engine() is None
    uninstall()


class TestChaosPolicy:
    def test_profiles_arm_expected_budgets(self):
        p = ChaosPolicy.from_profile("cache", seed=7)
        assert p.seed == 7
        assert p.cache_write_faults == 1
        assert p.kernel_nan_faults == 0 and p.integrator_faults == 0

        p = ChaosPolicy.from_profile("kernel")
        assert p.kernel_nan_faults == 1
        assert p.compile_faults == 1 and p.stale_so_faults == 1

        p = ChaosPolicy.from_profile("all")
        for field in ("cache_write_faults", "kernel_nan_faults", "compile_faults",
                      "stale_so_faults", "integrator_faults"):
            assert getattr(p, field) == 1, field

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            ChaosPolicy.from_profile("explosions")

    def test_overrides_and_round_trip(self):
        p = ChaosPolicy.from_profile("cache", seed=3,
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

    def test_kernel_poison_phase_and_python_floor(self):
        eng = ChaosEngine(ChaosPolicy(seed=3, kernel_nan_faults=1))
        # python is the degradation floor: never poisoned, never counted
        assert not eng.poison_rhs("python")
        hits = [eng.poison_rhs("cext") for _ in range(6)]
        assert hits == [False, False, False, True, False, False]  # phase 3

    def test_collapse_mode_once_per_distinct_ik(self):
        eng = ChaosEngine(ChaosPolicy(integrator_faults=2))
        assert eng.collapse_mode(5)       # first distinct ik
        assert not eng.collapse_mode(5)   # retry of ik=5 runs clean
        assert eng.collapse_mode(2)       # second distinct ik
        assert not eng.collapse_mode(9)   # budget exhausted
        assert eng.injected["integrator"] == 2

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
        with active(ChaosPolicy(cache_write_faults=1)):
            PrecomputeCache(tmp_path / "c").background(scdm)  # corrupt save
            cache = PrecomputeCache(tmp_path / "c")
            bg = cache.background(scdm)  # quarantine -> rebuild
        assert bg is not None
        assert cache.metrics.corrupt_entries == 1
        assert cache.degradation.count("cache", "quarantine") == 1
        # the rebuilt entry is clean: a fresh facade hits it
        fresh = PrecomputeCache(tmp_path / "c")
        fresh.background(scdm)
        assert fresh.metrics.hits == 1 and fresh.metrics.corrupt_entries == 0

    def test_quarantine_exhaustion_builds_without_store(self, tmp_path,
                                                        scdm, monkeypatch):
        from repro.errors import CorruptCacheEntry as CCE

        cache = PrecomputeCache(
            tmp_path / "c", retry=RetryPolicy(max_retries=0,
                                              backoff_base=0.0))

        def always_corrupt(key):
            raise CCE("persistently bad storage")

        monkeypatch.setattr(cache.store, "load", always_corrupt)
        bg = cache.background(scdm)  # availability over caching
        assert bg is not None
        assert cache.degradation.count("cache", "quarantine_exhausted") == 1



@pytest.mark.skipif(ONLY_PYTHON, reason="no compiled kernel on this host")
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


@pytest.mark.skipif(ONLY_PYTHON, reason="no compiled kernel on this host")
class TestSentinelDemotion:
    def test_poisoned_rhs_demotes_and_recomputes(self, bg_scdm,
                                                 thermo_scdm):
        from repro.perturbations import default_record_grid, evolve_mode
        from repro.perturbations.state import StateLayout
        from repro.perturbations.system import PerturbationSystem

        k = 0.01
        states = []

        def monitor(tau, y, tight):
            if not tight and len(states) < 3:
                states.append((float(tau), np.array(y, dtype=float)))

        grid = default_record_grid(bg_scdm, thermo_scdm, k)
        evolve_mode(bg_scdm, thermo_scdm, k, lmax_photon=8, lmax_nu=8,
                    record_tau=grid, rtol=1e-3, monitor=monitor)
        assert states
        layout = StateLayout(lmax_photon=8, lmax_nu=8, nq=0,
                             lmax_massive_nu=0)
        compiled = [n for n in available_kernels() if n != "python"][0]
        ref = PerturbationSystem(bg_scdm, thermo_scdm, k, layout)
        sys_c = PerturbationSystem(bg_scdm, thermo_scdm, k, layout,
                                   operator=ref.op, rhs_kernel=compiled)
        tau, y = states[0]
        with active(ChaosPolicy(kernel_nan_faults=1)) as eng:
            dy = np.array(sys_c.rhs_full(tau, y), dtype=float)
            assert eng.injected.get("kernel_nan") == 1
        try:
            # the poisoned evaluation was recomputed on the fallback:
            # the integrator never saw a non-finite value
            assert np.all(np.isfinite(dy))
            dy_ref = ref.rhs_full(tau, y)
            np.testing.assert_allclose(dy, dy_ref, rtol=1e-10, atol=0.0)
            demotions = ref.op.drain_demotions()
            assert len(demotions) == 1
            assert demotions[0]["from"] == compiled
            assert "non-finite" in demotions[0]["reason"]
            # mid-run demotion is sticky: later evals route to the
            # fallback without tripping the sentinel again
            assert ref.op.active_kernel(compiled) != compiled
        finally:
            ref.op.kernel_overrides.clear()

    def test_sentinel_off_leaves_poison(self, bg_scdm, thermo_scdm):
        """Without the sentinel the poison propagates — the guard is
        what stands between injection and a NaN trajectory."""
        from repro.perturbations.state import StateLayout
        from repro.perturbations.system import PerturbationSystem

        layout = StateLayout(lmax_photon=8, lmax_nu=8, nq=0,
                             lmax_massive_nu=0)
        compiled = [n for n in available_kernels() if n != "python"][0]
        sys_c = PerturbationSystem(bg_scdm, thermo_scdm, 0.01, layout,
                                   rhs_kernel=compiled)
        sys_c.op.nan_sentinel = False
        y = np.full(layout.n_state, 1e-3)
        y[0] = 1e-4  # a plausible scale factor
        with active(ChaosPolicy(kernel_nan_faults=1)):
            dy = sys_c.rhs_full(1.0, y)
        assert not np.all(np.isfinite(dy))
        assert not sys_c.op.demotions


class TestDegradationMetrics:
    def test_record_count_and_recovery_seconds(self):
        dm = DegradationMetrics()
        dm.record("cache", "quarantine", "entry x", seconds=0.25)
        dm.record("kernel", "demotion", "cext->python")
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
        a.merge(b)
        assert a.total_events == 2
        assert a.recovery_seconds == pytest.approx(0.3)

    def test_report_round_trip(self):
        dm = DegradationMetrics()
        dm.record("kernel", "demotion", "numba->python", seconds=0.5)
        report = RunReport(degradation=dm)
        loaded = RunReport.from_dict(report.to_dict())
        assert loaded.degradation is not None
        assert loaded.degradation.events == dm.events
        assert loaded.degradation.recovery_seconds == pytest.approx(0.5)
        assert report.totals["degradation_events"] == 1
        assert report.totals["degradation_by_surface"] == {"kernel": 1}

    def test_absent_section_loads_unchanged(self):
        report = RunReport.from_dict(RunReport().to_dict())
        assert report.degradation is None

    def test_telemetry_worker_payload_round_trip(self):
        worker = Telemetry()
        worker.record_degradation("cache", "quarantine", "retry 1",
                                  seconds=0.01)
        master = Telemetry()
        master.merge_worker_payload(worker.worker_payload())
        assert master.degradation is not None
        assert master.degradation.count("cache", "quarantine") == 1


@pytest.fixture(scope="module")
def chaos_grid():
    return KGrid.from_k(np.geomspace(1e-3, 0.01, 5))


@pytest.fixture(scope="module")
def chaos_config():
    return LingerConfig(lmax_photon=8, lmax_nu=8, rtol=3e-4,
                        record_sources=False, keep_mode_results=False,
                        rhs_kernel="auto")


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
                     chaos_grid, chaos_config, tmp_path, use_cache):
        tel = Telemetry()
        ft = FaultTolerance(max_retries=2, backoff_base=0.01,
                            worker_timeout=10.0)
        cache = PrecomputeCache(tmp_path / "cache") if use_cache else None
        policy = ChaosPolicy.from_profile(profile, seed=CHAOS_SEED)
        with active(policy) as eng:
            if cache is not None:
                # a warm-up build takes the store-write corruption, so
                # the run's own load meets the corrupted entry and must
                # quarantine + rebuild it
                PrecomputeCache(tmp_path / "cache").background(scdm)
            result, _ = run_plinger(
                scdm, chaos_grid, chaos_config, nproc=3,
                backend="inprocess", telemetry=tel,
                fault_tolerance=ft, cache=cache,
                background=None if use_cache else bg_scdm,
                thermo=None if use_cache else thermo_scdm,
            )
        if cache is not None:
            for e in cache.degradation.events:
                tel.record_degradation(e["surface"], e["event"],
                                       e.get("detail", ""),
                                       e.get("seconds", 0.0))
        return result, tel, eng

    def _assert_matches(self, result, reference):
        for got, ref in zip(result.payloads, reference.payloads):
            np.testing.assert_allclose(got.pack(), ref.pack(),
                                       rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(result.delta_m, reference.delta_m,
                                   rtol=1e-8)

    def test_cache_profile(self, scdm, bg_scdm, thermo_scdm, chaos_grid,
                           chaos_config, chaos_reference, tmp_path):
        result, tel, eng = self._run_chaotic(
            "cache", scdm, bg_scdm, thermo_scdm, chaos_grid,
            chaos_config, tmp_path, use_cache=True)
        self._assert_matches(result, chaos_reference)
        assert eng.injected.get("cache_write") == 1
        assert tel.degradation is not None
        assert tel.degradation.count("cache", "quarantine") >= 1

    def test_integrator_profile(self, scdm, bg_scdm, thermo_scdm,
                                chaos_grid, chaos_config,
                                chaos_reference, tmp_path):
        result, tel, eng = self._run_chaotic(
            "integrator", scdm, bg_scdm, thermo_scdm, chaos_grid,
            chaos_config, tmp_path, use_cache=False)
        self._assert_matches(result, chaos_reference)
        assert eng.injected.get("integrator") == 1
        assert tel.degradation.count("integrator", "transient_retry") >= 1
        # the transient retry recovered at the original config: no mode
        # carries a ladder downgrade
        assert all(h.retry_level == 0 for h in result.headers)

    @pytest.mark.skipif(ONLY_PYTHON,
                        reason="no compiled kernel on this host")
    def test_kernel_profile(self, scdm, bg_scdm, thermo_scdm, chaos_grid,
                            chaos_config, chaos_reference, tmp_path):
        result, tel, eng = self._run_chaotic(
            "kernel", scdm, bg_scdm, thermo_scdm, chaos_grid,
            chaos_config, tmp_path, use_cache=False)
        self._assert_matches(result, chaos_reference)
        assert eng.injected.get("kernel_nan") == 1
        assert tel.degradation.count("kernel", "demotion") >= 1

    def test_all_profile_cl_matches(self, scdm, bg_scdm, thermo_scdm,
                                    chaos_grid, chaos_config,
                                    chaos_reference, tmp_path):
        from repro.spectra import cl_from_hierarchy

        result, tel, _eng = self._run_chaotic(
            "all", scdm, bg_scdm, thermo_scdm, chaos_grid,
            chaos_config, tmp_path, use_cache=True)
        self._assert_matches(result, chaos_reference)
        _l, cl_ref = cl_from_hierarchy(chaos_reference)
        _l2, cl = cl_from_hierarchy(result)
        np.testing.assert_allclose(cl, cl_ref, rtol=1e-8)
        assert tel.degradation.count("cache") >= 1
        assert tel.degradation.count("integrator") >= 1


class TestVerifyOracle:
    def test_chaos_degradation_oracle_passes(self, scdm):
        from repro.verify.oracles import chaos_degradation_oracle

        out = chaos_degradation_oracle(scdm, seed=CHAOS_SEED)
        dev = out["chaos_degradation"]
        assert not np.isnan(dev)
        assert dev <= 1e-8
        assert all(n >= 1 for n in out["chaos_events"].values()), \
            out["chaos_events"]
