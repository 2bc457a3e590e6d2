"""The sparse-k source-interpolation fast path.

Pins the accuracy contract of :mod:`repro.spectra.sparse` from three
directions:

* **exact hits** — a factor-1 "sparse" sweep is the dense sweep: the
  LOS C_l must be *bitwise* equal to :func:`cl_from_los` of the same
  run, and ``run_linger(sparse_k=1)`` under the frozen golden settings
  must reproduce ``tests/data/golden_cl.json`` bitwise (the factor-1
  grid carries identical floats, so no trajectory can move);
* **convergence** — on a uniform dense grid the C_l error against the
  factor-1 reference must shrink monotonically as the coarse grid
  refines through factors 8 -> 4 -> 2 (the k-spline error scales as
  ``(factor * dk)^4``);
* **plumbing** — coarse-grid construction, source stacking, metric
  telemetry, the PLINGER ``collect_modes`` path and every validation
  error the driver promises.

The dense convergence run integrates 33 cheap modes once per module;
everything else rides on the session-scoped ``linger_small`` fixture.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import KGrid, LingerConfig, ParameterError, run_linger
from repro.linger.kgrid import sparse_kgrid
from repro.spectra import (
    cl_from_los,
    coarse_subset,
    interpolate_sources_k,
    run_sparse_cl,
    sources_from_result,
    sparse_cl,
)
from repro.spectra.cl import cl_from_hierarchy, los_l_grid
from repro.spectra.sparse import _leave_one_out_residuals, sparse_sources
from repro.telemetry import RunReport, SparseMetrics, Telemetry

GOLDEN_CL = Path(__file__).parent / "data" / "golden_cl.json"


# -- coarse grid construction ------------------------------------------------


class TestSparseKGrid:
    def test_subset_with_endpoints(self):
        kg = KGrid.from_k(np.linspace(0.001, 0.01, 10))
        coarse = sparse_kgrid(kg, 3)
        # indices 0, 3, 6, 9 — the last dense point is already hit
        assert np.array_equal(coarse.k, kg.k[[0, 3, 6, 9]])

    def test_endpoint_appended_when_stride_misses(self):
        kg = KGrid.from_k(np.linspace(0.001, 0.01, 8))
        coarse = sparse_kgrid(kg, 3)
        assert np.array_equal(coarse.k, kg.k[[0, 3, 6, 7]])

    def test_factor_one_is_identity(self):
        kg = KGrid.from_k(np.geomspace(1e-4, 0.1, 17))
        assert np.array_equal(sparse_kgrid(kg, 1).k, kg.k)

    def test_factor_beyond_nk_keeps_endpoints(self):
        kg = KGrid.from_k(np.linspace(0.001, 0.01, 6))
        coarse = sparse_kgrid(kg, 100)
        assert np.array_equal(coarse.k, kg.k[[0, 5]])

    def test_invalid_factors_rejected(self):
        kg = KGrid.from_k([0.001, 0.01])
        with pytest.raises(ParameterError, match="integer >= 1"):
            sparse_kgrid(kg, 0)
        with pytest.raises(ParameterError, match="integer >= 1"):
            sparse_kgrid(kg, 2.5)


# -- k-interpolation of stacked sources --------------------------------------


class TestInterpolateSourcesK:
    def test_exact_nodes_are_bitwise_rows(self):
        k_c = np.array([1.0, 2.0, 3.0, 4.0])
        rows = np.sin(np.outer(k_c, np.linspace(0, 5, 30)))
        k_d = np.array([1.0, 1.5, 2.0, 3.0, 3.7, 4.0])
        out = interpolate_sources_k(k_c, rows, k_d)
        for i, j in ((0, 0), (2, 1), (3, 2), (5, 3)):
            assert np.array_equal(out[i], rows[j])

    def test_smooth_data_interpolates_accurately(self):
        k_c = np.linspace(1.0, 2.0, 9)
        tau = np.linspace(0, 1, 20)
        rows = np.exp(-np.outer(k_c, tau))
        k_d = np.linspace(1.0, 2.0, 33)
        out = interpolate_sources_k(k_c, rows, k_d)
        exact = np.exp(-np.outer(k_d, tau))
        assert np.max(np.abs(out - exact)) < 1e-5

    def test_validation_errors(self):
        k_c = np.array([1.0, 2.0, 3.0])
        rows = np.zeros((3, 5))
        with pytest.raises(ParameterError, match=">= 2 coarse"):
            interpolate_sources_k([1.0], np.zeros((1, 5)), [1.0])
        with pytest.raises(ParameterError, match="strictly increasing"):
            interpolate_sources_k([1.0, 1.0, 2.0], rows, [1.5])
        with pytest.raises(ParameterError, match="source matrix"):
            interpolate_sources_k(k_c, np.zeros((4, 5)), [1.5])
        with pytest.raises(ParameterError, match="extrapolate"):
            interpolate_sources_k(k_c, rows, [0.5])


# -- exact hits: factor 1 is the dense path ----------------------------------


class TestExactHits:
    def test_factor1_cl_bitwise_vs_dense_los(self, linger_small):
        l_values = np.arange(2, 16)
        _, cl_dense = cl_from_los(linger_small, l_values)
        res = sparse_cl(coarse_subset(linger_small, 1),
                        linger_small.kgrid, l_values, sparse_factor=1)
        assert np.array_equal(res.cl, cl_dense)
        assert res.metrics.exact_hits == linger_small.kgrid.nk
        assert res.metrics.interpolated == 0

    def test_exact_hit_rows_are_bitwise_coarse_sources(self, linger_small):
        coarse = coarse_subset(linger_small, 2)
        coarse_tables = sources_from_result(coarse)
        sources, stats = sparse_sources(coarse, linger_small.kgrid)
        assert stats["exact_hits"] == coarse.kgrid.nk
        assert stats["interpolated"] == (linger_small.kgrid.nk
                                         - coarse.kgrid.nk)
        by_k = {s.k: s for s in coarse_tables}
        for s in sources:
            if s.k in by_k:
                ref = by_k[s.k]
                assert np.array_equal(s.tau, ref.tau)
                assert np.array_equal(s.source, ref.source)

    @pytest.mark.golden
    def test_sparse_k1_reproduces_golden_bitwise(self, scdm, bg_scdm,
                                                 thermo_scdm):
        """``run_linger(sparse_k=1)`` carries identical grid floats, so
        the frozen golden C_l must come back bitwise — the fast path
        may not perturb a dense sweep at all."""
        blob = json.loads(GOLDEN_CL.read_text())
        grid = blob["settings"]["kgrid"]
        kg = KGrid.from_k(np.geomspace(grid["k_min"], grid["k_max"],
                                       grid["nk"]))
        cfg = LingerConfig(**blob["settings"]["config"])
        run = run_linger(scdm, kg, cfg, background=bg_scdm,
                         thermo=thermo_scdm, sparse_k=1)
        l, cl = cl_from_hierarchy(run)
        assert np.array_equal(l, np.asarray(blob["l"]))
        assert np.array_equal(cl, np.asarray(blob["cl"], dtype=float))


# -- convergence: error shrinks as the coarse grid refines -------------------


@pytest.fixture(scope="module")
def dense_uniform(scdm, bg_scdm, thermo_scdm):
    """A 33-mode uniform-grid run: the convergence-study reference."""
    kg = KGrid.from_k(np.linspace(3e-4, 0.03, 33))
    cfg = LingerConfig(lmax_photon=12, lmax_nu=8, rtol=1e-4)
    return run_linger(scdm, kg, cfg, background=bg_scdm,
                      thermo=thermo_scdm, batch_size=8)


class TestConvergence:
    def test_error_shrinks_monotonically(self, dense_uniform):
        l_values = np.arange(2, 10)
        _, cl_ref = cl_from_los(dense_uniform, l_values)
        errs = {}
        for factor in (8, 4, 2):
            res = sparse_cl(coarse_subset(dense_uniform, factor),
                            dense_uniform.kgrid, l_values,
                            sparse_factor=factor)
            errs[factor] = float(np.max(np.abs(res.cl / cl_ref - 1.0)))
        assert errs[2] < errs[4] < errs[8]
        # measured 2.2e-2 / 7.0e-2 / 7.9e-2 on this grid
        assert errs[2] < 0.05

    def test_mode_reduction_reported(self, dense_uniform):
        res = sparse_cl(coarse_subset(dense_uniform, 8),
                        dense_uniform.kgrid, np.arange(2, 6),
                        sparse_factor=8)
        assert res.metrics.n_coarse == 5
        assert res.metrics.n_dense == 33
        assert res.metrics.mode_reduction >= 4.0
        assert res.metrics.interp_residual_max is not None
        assert res.metrics.interp_residual_max > 0.0

    def test_windowed_leave_one_out_is_the_full_refit(self, dense_uniform):
        """The residual diagnostic refits on the +-12 nodes around the
        left-out one; refitting all 32 others (the O(n^2) original,
        copied here on scipy's ``CubicSpline``) must agree to 1e-5."""
        from scipy.interpolate import CubicSpline

        tables = sources_from_result(dense_uniform)
        k = dense_uniform.kgrid.k
        shared = tables[-1].tau  # the largest k starts earliest
        stacked = np.zeros((k.size, shared.size))
        for row, src in zip(stacked, tables):
            j = np.searchsorted(shared, src.tau[0])
            row[j:] = src.spline()(shared[j:])

        def full_refit(k, stacked):
            rels = []
            keep = np.ones(k.size, dtype=bool)
            for i in range(1, k.size - 1):
                keep[i] = False
                pred = CubicSpline(k[keep], stacked[keep], axis=0)(k[i])
                rels.append(np.max(np.abs(pred - stacked[i]))
                            / np.max(np.abs(stacked[i])))
                keep[i] = True
            rels = np.asarray(rels)
            return float(rels.max()), float(np.sqrt(np.mean(rels * rels)))

        assert _leave_one_out_residuals(k, stacked) == pytest.approx(
            full_refit(k, stacked), rel=1e-5)
        # a grid the window spans whole gets the full refit itself
        assert _leave_one_out_residuals(k[:12], stacked[:12]) == \
            full_refit(k[:12], stacked[:12])


# -- driver validation and the PLINGER path ----------------------------------


class TestRunSparseCl:
    def test_requires_recorded_sources(self, scdm):
        with pytest.raises(ParameterError, match="record_sources"):
            run_sparse_cl(scdm, KGrid.from_k([0.001, 0.01]),
                          LingerConfig(record_sources=False,
                                       keep_mode_results=False))

    def test_serial_end_to_end(self, scdm, bg_scdm, thermo_scdm,
                               linger_small):
        l_values = np.arange(2, 10)
        res = run_sparse_cl(
            scdm, linger_small.kgrid, linger_small.config,
            sparse_factor=2, l_values=l_values,
            background=bg_scdm, thermo=thermo_scdm,
        )
        assert res.coarse_result.kgrid.nk == 5
        assert len(res.sources) == linger_small.kgrid.nk
        assert np.all(res.cl > 0)
        # the coarse modes were genuinely integrated: their C_l
        # contribution matches the dense run's at the exact-hit k
        _, cl_dense = cl_from_los(linger_small, l_values)
        assert np.max(np.abs(res.cl / cl_dense - 1.0)) < 0.1

    def test_plinger_backend_matches_serial(self, scdm, bg_scdm,
                                            thermo_scdm, linger_small):
        l_values = np.arange(2, 8)
        serial = run_sparse_cl(
            scdm, linger_small.kgrid, linger_small.config,
            sparse_factor=4, l_values=l_values,
            background=bg_scdm, thermo=thermo_scdm,
        )
        plinger = run_sparse_cl(
            scdm, linger_small.kgrid, linger_small.config,
            sparse_factor=4, l_values=l_values,
            background=bg_scdm, thermo=thermo_scdm,
            backend="inprocess", nproc=2,
        )
        # thread-hosted workers run the same serial kernels on the same
        # floats, so the collected modes — and the C_l — are bitwise
        assert np.array_equal(plinger.cl, serial.cl)

    def test_sparse_sources_rejects_foreign_grid(self, linger_small):
        with pytest.raises(ParameterError, match="subset of the dense"):
            sparse_sources(coarse_subset(linger_small, 2),
                           KGrid.from_k(np.geomspace(4e-4, 0.02, 12)))

    def test_coarse_subset_invalid_factor(self, linger_small):
        with pytest.raises(ParameterError, match="integer >= 1"):
            coarse_subset(linger_small, -1)


# -- telemetry ----------------------------------------------------------------


class TestSparseMetrics:
    def test_report_roundtrip(self, linger_small):
        tel = Telemetry()
        sparse_cl(coarse_subset(linger_small, 2), linger_small.kgrid,
                  np.arange(2, 8), sparse_factor=2, telemetry=tel)
        report = tel.build_report()
        assert report.sparse is not None
        assert report.totals["sparse_factor"] == 2
        assert report.totals["sparse_mode_reduction"] == pytest.approx(8 / 5)
        blob = json.dumps(report.to_dict())
        again = RunReport.from_dict(json.loads(blob))
        assert isinstance(again.sparse, SparseMetrics)
        assert again.sparse.n_coarse == 5
        assert again.sparse.n_dense == 8
        assert again.sparse.exact_hits == 5
        assert again.sparse.interp_residual_max == \
            report.sparse.interp_residual_max

    def test_absent_section_roundtrips_none(self):
        report = Telemetry().build_report()
        assert report.sparse is None
        again = RunReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again.sparse is None

    def test_est_seconds_saved(self):
        m = SparseMetrics(sparse_factor=4, n_dense=40, n_coarse=10,
                          integrate_seconds=10.0, interp_seconds=1.0,
                          project_seconds=1.0, est_dense_seconds=40.0)
        assert m.mode_reduction == 4.0
        assert m.est_seconds_saved == pytest.approx(28.0)


# -- los_l_grid regression (satellite fix) -----------------------------------


class TestLosLGridSmallLmax:
    def test_never_collapses_below_l_min(self):
        """geomspace float jitter used to truncate the l_max=8 grid to
        [7, 8] — below the requested l_min."""
        grid = los_l_grid(8, n=8, l_min=8)
        assert np.array_equal(grid, [8])

    def test_small_l_max_stays_in_range(self):
        for l_max in range(2, 13):
            grid = los_l_grid(l_max)
            assert grid.min() >= 2
            assert grid.max() == l_max
            assert np.all(np.diff(grid) > 0)
