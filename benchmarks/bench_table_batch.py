"""TAB-BATCH — the batched k-mode engine vs the per-mode reference.

The batched integrator promises the serial trajectories at a fraction
of the interpreter overhead: one Verner sweep over a ``(B, n_state)``
matrix amortizes every Python-level slice, tableau contraction and
spline lookup over B wavenumbers.  This benchmark measures that claim
on a 16-mode TAB-FLOPS-style run — the narrow k-range keeps per-lane
step counts uniform, which is the engine's favorable (and production-
typical) regime — and archives the numbers as ``BENCH_batch.json``.

The machine hosting CI is noisy, so serial and batched runs are
*interleaved* and each variant keeps its best-of-N wall clock; the
speedup assertion uses a deliberately loose floor (2x) while the
archived artifact records the measured ratio (~4x on an idle box).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro import NULL_TELEMETRY, KGrid, LingerConfig, Telemetry, standard_cdm
from repro.linger import run_linger
from repro.util import format_table

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]

NK = 16
ROUNDS = 3


def _config():
    # the lockstep engine is a python-path optimisation: on the default
    # compiled step loop every lane integrates on its own and
    # batch_size changes neither speed nor bits (EXPERIMENTS TAB-LOOP)
    return LingerConfig(record_sources=False, keep_mode_results=False,
                        lmax_photon=8, lmax_nu=8, rtol=3e-4,
                        rhs_kernel="python")


def test_batched_speedup(bg, thermo, benchmark, capsys):
    """Serial vs batch_size=NK wall clock on the TAB-FLOPS run config,
    interleaved best-of-N, archived as ``BENCH_batch.json``."""
    params = standard_cdm()
    kgrid = KGrid.from_k(np.geomspace(1e-3, 0.02, NK))

    def run(batch_size, telemetry):
        return run_linger(params, kgrid, _config(), background=bg,
                          thermo=thermo, batch_size=batch_size,
                          telemetry=telemetry)

    def measure():
        serial_t, batch_t = [], []
        telemetry = Telemetry()
        results = {}
        for r in range(ROUNDS):
            # telemetry only on round 0 so the timed repeats stay lean
            sink = telemetry if r == 0 else NULL_TELEMETRY
            t0 = time.perf_counter()
            results["serial"] = run(1, sink)
            serial_t.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            results["batched"] = run(NK, sink)
            batch_t.append(time.perf_counter() - t0)
        return min(serial_t), min(batch_t), telemetry, results

    serial_s, batch_s, telemetry, results = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    speedup = serial_s / batch_s

    # same physics: header observables agree at golden-level tolerance
    for hs, hb in zip(results["serial"].headers, results["batched"].headers):
        assert hb.delta_m == pytest.approx(hs.delta_m, rel=1e-8)
        assert hb.phi == pytest.approx(hs.phi, rel=1e-8)

    report = telemetry.build_report(meta={
        "table": "TAB-BATCH",
        "nk": NK,
        "batch_size": NK,
        "rounds": ROUNDS,
        "serial_best_seconds": serial_s,
        "batched_best_seconds": batch_s,
        "speedup": speedup,
    })
    out = report.save(ARTIFACT_DIR / "BENCH_batch.json")

    batch = report.batches[0]
    with capsys.disabled():
        print()
        print(format_table(
            ["quantity", "value"],
            [
                ["modes", NK],
                ["serial best-of-%d [s]" % ROUNDS, f"{serial_s:.2f}"],
                ["batched best-of-%d [s]" % ROUNDS, f"{batch_s:.2f}"],
                ["speedup", f"{speedup:.2f}x"],
                ["sweeps", batch.n_sweeps],
                ["lane occupancy", f"{batch.occupancy:.3f}"],
                ["wasted-step fraction",
                 f"{batch.wasted_step_fraction:.3f}"],
            ],
            title=f"TAB-BATCH: batched engine -> {out.name}",
        ))

    assert batch.n_lanes == NK
    assert batch.occupancy > 0.8  # narrow k-range: lanes stay in step
    # ISSUE target is 3x on an idle machine; assert a loose floor so a
    # noisy CI neighbor cannot flake the suite
    assert speedup > 2.0
