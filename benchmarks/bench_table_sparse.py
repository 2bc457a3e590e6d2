"""TAB-SPARSE — the sparse-k source-interpolation fast path.

Every dense wavenumber normally pays a full stiff Einstein-Boltzmann
integration, but the LOS sources are smooth in k (Doran,
astro-ph/0503277): integrating only every ``factor``-th mode and
splining the sources back trades a tiny, *budgeted* C_l error for a
near-``factor`` cut in integration work.

This benchmark drives :func:`repro.spectra.run_sparse_cl` end to end on
the FIG2 spectrum configuration — the uniform ``cl_kgrid`` quadrature
grid to l = 600 at 8 points per period (~1030 modes) — at factors
{1, 4, 10}, and archives wall clock, flops and the measured C_l error
of each leg as ``BENCH_sparse.json``.

The factor-1 leg *is* the dense sweep (exact hits everywhere, bitwise),
so its C_l doubles as the error reference.  The acceptance floor is the
``test.sparse_fig2`` budget: at least 4x fewer integrated modes at
<= 1e-3 relative C_l error (factor 10 delivers ~9.8x at 9.9e-4).

The sparse-k argument also needs what is left per dense mode — source
interpolation and the j_l convolution — to be the cheap part, so the
factor-10 leg asserts that the two together cost less than the coarse
integration they follow (a same-process ratio, no wall-clock threshold).
"""

import time
from pathlib import Path

import numpy as np

from repro import LingerConfig, Telemetry, standard_cdm
from repro.linger import cl_kgrid
from repro.spectra import run_sparse_cl
from repro.util import format_table
from repro.verify import budget

#: Benchmark artifacts land in the repo root, next to this harness.
ARTIFACT_DIR = Path(__file__).resolve().parents[1]

FACTORS = (1, 4, 10)
#: 8 points per j_l period: a production-faithful quadrature grid —
#: the 1.5-ppp grid of the figure benchmarks is too sparse at low k
#: for a factor-4 subset to keep any nodes under the l <~ 10 support.
POINTS_PER_PERIOD = 8.0

FIG2_L = np.unique(np.concatenate([
    np.arange(2, 12),
    np.geomspace(12, 600, 28).astype(int),
]))


def test_sparse_fig2_speedup(benchmark, capsys, scdm, bg, thermo):
    """Wall clock / flops / C_l error at factors {1, 4, 10}."""
    kgrid = cl_kgrid(bg, l_max=600, points_per_period=POINTS_PER_PERIOD)
    config = LingerConfig(lmax_photon=10, lmax_nu=10, rtol=2e-4)

    def measure():
        legs = {}
        for factor in FACTORS:
            tel = Telemetry()
            t0 = time.perf_counter()
            res = run_sparse_cl(
                scdm, kgrid, config, sparse_factor=factor,
                l_values=FIG2_L, background=bg, thermo=thermo,
                telemetry=tel,
            )
            wall = time.perf_counter() - t0
            legs[factor] = (res, wall, tel.build_report())
        return legs

    legs = benchmark.pedantic(measure, rounds=1, iterations=1)

    ref_cl = legs[1][0].cl
    tol = budget("test.sparse_fig2")
    rows, leg_meta = [], {}
    for factor in FACTORS:
        res, wall, rep = legs[factor]
        m = res.metrics
        err = float(np.max(np.abs(res.cl / ref_cl - 1.0)))
        flops = rep.totals["flops_est"]
        leg_meta[str(factor)] = {
            "n_coarse": m.n_coarse,
            "mode_reduction": m.mode_reduction,
            "wall_seconds": wall,
            "integrate_seconds": m.integrate_seconds,
            "interp_seconds": m.interp_seconds,
            "project_seconds": m.project_seconds,
            "flops_est": flops,
            "max_rel_cl_error": err,
            "interp_residual_max": m.interp_residual_max,
        }
        rows.append([factor, m.n_coarse, f"{m.mode_reduction:.2f}x",
                     f"{wall:.1f}", f"{flops:.3e}", f"{err:.2e}"])

    # the factor-1 leg is the dense sweep: exact hits only, bitwise
    m1 = legs[1][0].metrics
    assert m1.exact_hits == kgrid.nk and m1.interpolated == 0
    assert leg_meta["1"]["max_rel_cl_error"] == 0.0

    # the acceptance floor: >= 4x fewer integrated modes within the
    # test.sparse_fig2 C_l budget (and factor 4 sits well inside it)
    assert leg_meta["4"]["max_rel_cl_error"] <= tol.rtol
    assert leg_meta["10"]["max_rel_cl_error"] <= tol.rtol
    assert legs[10][0].metrics.mode_reduction >= 4.0

    # the convolution is the cheap part of the fast path
    m10 = legs[10][0].metrics
    assert m10.interp_seconds + m10.project_seconds < m10.integrate_seconds

    report = legs[10][2]
    report.meta.update({
        "table": "TAB-SPARSE",
        "nk_dense": kgrid.nk,
        "points_per_period": POINTS_PER_PERIOD,
        "l_max": 600,
        "factors": list(FACTORS),
        "cl_error_budget": tol.rtol,
        "legs": leg_meta,
    })
    out = report.save(ARTIFACT_DIR / "BENCH_sparse.json")

    with capsys.disabled():
        print()
        print(format_table(
            ["factor", "modes", "reduction", "wall [s]", "flops",
             "max rel C_l err"],
            rows,
            title=f"TAB-SPARSE: sparse-k fast path, {kgrid.nk} dense modes "
                  f"-> {out.name}",
        ))
