"""TAB-CHAOS — the price of graceful degradation.

One PLINGER grid (8 modes, 3 workers) run clean, then once per chaos
profile — ``cache`` (a torn/garbled store write the run then has to
quarantine), ``kernel`` (NaN-poisoned compiled RHS + compile/stale-``.so``
faults), ``integrator`` (forced step collapse), and ``all`` — with
seeded, deterministic fault injection via :mod:`repro.chaos`.  For each
profile the harness records the recovery economics:

* **recovery latency**: wallclock attributed to degradation events
  (``DegradationMetrics.recovery_seconds``);
* **degraded-mode counts**: events per surface (cache / kernel /
  integrator) from the run's telemetry;
* **C_l deviation** of the degraded run against the clean spectrum —
  the headline number, which must sit at the 1e-8 golden gate because
  every ladder rung is bit-preserving.

The numbers land in ``BENCH_chaos.json``.  Assertion floors are loose
(recovery fired, physics exact, overhead bounded by a generous factor)
so a noisy CI neighbor cannot flake the suite.
"""

import time
from pathlib import Path

import numpy as np

from repro import KGrid, LingerConfig, Telemetry
from repro.cache import PrecomputeCache
from repro.chaos import ChaosPolicy, active
from repro.perturbations.operator import available_kernels
from repro.plinger import FaultTolerance, run_plinger
from repro.spectra import cl_from_hierarchy
from repro.util import format_table

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]

NK = 8
NPROC = 3
SEED = 0
PROFILES = ("cache", "kernel", "integrator", "all")


def _config():
    return LingerConfig(record_sources=False, keep_mode_results=False,
                        rtol=1e-4, rhs_kernel="auto")


def _ft():
    return FaultTolerance(worker_timeout=2.0, heartbeat_interval=0.25,
                          missed_heartbeats=4, poll_seconds=0.02,
                          payload_timeout=2.0, max_retries=2,
                          backoff_base=0.01)


def _chaotic_run(profile, scdm, bg, thermo, kgrid, cache_dir):
    telemetry = Telemetry()
    cache = PrecomputeCache(cache_dir / profile)
    t0 = time.perf_counter()
    with active(ChaosPolicy.from_profile(profile, seed=SEED)) as engine:
        # a warm-up build takes the store-write corruption, so the run's
        # own load meets the corrupted entry and must quarantine it
        PrecomputeCache(cache_dir / profile).background(scdm)
        result, _ = run_plinger(
            scdm, kgrid, _config(), nproc=NPROC, backend="inprocess",
            telemetry=telemetry, fault_tolerance=_ft(), cache=cache,
        )
    wall = time.perf_counter() - t0
    for e in cache.degradation.events:
        telemetry.record_degradation(e["surface"], e["event"],
                                     e.get("detail", ""),
                                     e.get("seconds", 0.0))
    dm = telemetry.degradation
    return result, dm, engine.summary(), wall


def test_chaos_recovery_economics(scdm, bg, thermo, capsys, tmp_path):
    """Clean-vs-chaos economics per profile, archived as
    ``BENCH_chaos.json``."""
    kgrid = KGrid.from_k(np.geomspace(3e-4, 0.03, NK))

    t0 = time.perf_counter()
    golden, _ = run_plinger(scdm, kgrid, _config(), nproc=NPROC,
                            backend="inprocess", background=bg,
                            thermo=thermo)
    clean_wall = time.perf_counter() - t0
    _l, cl_ref = cl_from_hierarchy(golden)
    cl_scale = np.max(np.abs(cl_ref))

    telemetry = Telemetry()
    rows = []
    meta = {
        "table": "TAB-CHAOS",
        "nk": NK,
        "nproc": NPROC,
        "seed": SEED,
        "kernels_available": list(available_kernels()),
        "clean_wall_seconds": clean_wall,
        "profiles": {},
    }
    for profile in PROFILES:
        result, dm, summary, wall = _chaotic_run(
            profile, scdm, bg, thermo, kgrid, tmp_path)
        _l2, cl = cl_from_hierarchy(result)
        cl_dev = float(np.max(np.abs(cl - cl_ref)) / cl_scale)
        by_surface = dict(sorted(dm.events_by_surface.items())) if dm \
            else {}
        recovery = dm.recovery_seconds if dm else 0.0
        meta["profiles"][profile] = {
            "wall_seconds": wall,
            "overhead": wall / clean_wall,
            "injected": summary["injected"],
            "degradation_events": by_surface,
            "recovery_seconds": recovery,
            "cl_deviation": cl_dev,
        }
        rows.append([profile, f"{wall:.2f}",
                     ", ".join(f"{s}={n}" for s, n in by_surface.items())
                     or "-",
                     f"{recovery:.3f}", f"{cl_dev:.1e}"])
        # faults never change the physics
        for p_f, p_g in zip(result.payloads, golden.payloads):
            np.testing.assert_allclose(p_f.pack(), p_g.pack(), rtol=1e-8)
        assert cl_dev <= 1e-8
        # the targeted recovery path actually fired
        if profile in ("cache", "all"):
            assert by_surface.get("cache", 0) >= 1
        if profile in ("integrator", "all"):
            assert by_surface.get("integrator", 0) >= 1
        if profile in ("kernel", "all") and \
                available_kernels() != ("python",):
            assert by_surface.get("kernel", 0) >= 1

    report = telemetry.build_report(meta=meta)
    out = report.save(ARTIFACT_DIR / "BENCH_chaos.json")

    with capsys.disabled():
        print()
        print(format_table(
            ["profile", "wall [s]", "events", "recovery [s]", "Cl dev"],
            rows,
            title=f"TAB-CHAOS: degradation economics -> {out.name}",
        ))

    # loose ceiling: absorbing a handful of injected faults must not
    # blow the runtime up by an order of magnitude
    worst = max(p["wall_seconds"] for p in meta["profiles"].values())
    assert worst < 10.0 * clean_wall + 30.0
