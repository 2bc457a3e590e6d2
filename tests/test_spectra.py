"""Spectra: C_l (two routes), normalization, matter power."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.spectra import (
    BesselCache,
    SourceTable,
    band_power_uk,
    cl_from_hierarchy,
    cl_from_los,
    cl_integrate_over_k,
    cobe_normalization,
    e_l_los,
    matter_power,
    qrms_ps_from_cl,
    sigma_r,
    transfer_function,
)
from repro.spectra.los import theta_l_los
from tests.reference_projection import reference_project


class TestKQuadrature:
    def test_flat_transfer_analytic(self):
        # Theta_l(k) = 1, n_s = 1: C_l = 4 pi ln(kmax/kmin)
        k = np.geomspace(0.01, 0.1, 200)
        cl = cl_integrate_over_k(k, np.ones_like(k))
        assert cl == pytest.approx(4 * np.pi * np.log(10.0), rel=1e-4)

    def test_tilt_changes_weighting(self):
        k = np.geomspace(0.01, 0.1, 100)
        th = np.ones_like(k)
        blue = cl_integrate_over_k(k, th, n_s=1.2, k_pivot=0.01)
        red = cl_integrate_over_k(k, th, n_s=0.8, k_pivot=0.01)
        assert blue > red

    def test_matrix_form(self):
        k = np.geomspace(0.01, 0.1, 50)
        th = np.stack([np.ones_like(k), 2 * np.ones_like(k)], axis=1)
        cl = cl_integrate_over_k(k, th)
        assert cl.shape == (2,)
        assert cl[1] == pytest.approx(4 * cl[0])

    def test_single_point_rejected(self):
        with pytest.raises(ParameterError):
            cl_integrate_over_k(np.array([0.1]), np.array([1.0]))


class TestHierarchyCl:
    def test_positive_spectrum(self, linger_small):
        l, cl = cl_from_hierarchy(linger_small)
        assert np.all(cl > 0)
        assert l[0] == 2

    def test_truncation_margin_enforced(self, linger_small):
        lmax = linger_small.config.lmax_photon
        with pytest.raises(ParameterError):
            cl_from_hierarchy(linger_small, l_values=np.array([lmax]))

    def test_requested_l_subset(self, linger_small):
        l, cl = cl_from_hierarchy(linger_small, l_values=np.array([2, 5, 9]))
        assert list(l) == [2, 5, 9]
        assert cl.shape == (3,)


class TestLosAgainstHierarchy:
    def test_consistency_low_l(self, linger_small):
        """The paper's direct method and the line-of-sight projection
        must agree; this is the strongest internal check of the whole
        Boltzmann pipeline (sources, gauge terms, visibility)."""
        l = np.arange(2, 16)
        _, cl_h = cl_from_hierarchy(linger_small, l_values=l)
        _, cl_s = cl_from_los(linger_small, l)
        ratio = cl_s / cl_h
        assert np.all(np.abs(ratio - 1.0) < 0.05)

    def test_source_table_shape(self, linger_small, mode_k05):
        tau0 = linger_small.background.tau0
        src = SourceTable.from_mode(mode_k05, linger_small.thermo, tau0)
        assert src.tau.shape == src.source.shape
        t, s = src.dense()
        assert t[0] == pytest.approx(src.tau[0])
        assert t[-1] == pytest.approx(tau0)

    def test_source_localized_at_recombination(self, linger_small,
                                               mode_k05):
        """|S| peaks near the visibility peak; the late-time ISW tail is
        comparatively small for standard CDM."""
        thermo = linger_small.thermo
        src = SourceTable.from_mode(mode_k05, thermo,
                                    linger_small.background.tau0)
        peak_region = np.abs(src.tau - thermo.tau_rec) < 150
        peak = np.max(np.abs(src.source[peak_region]))
        late = np.max(np.abs(src.source[src.tau > 2000]))
        assert late < 0.2 * peak

    def test_source_is_the_scipy_expression_bitwise(self, linger_small):
        """``from_mode`` differentiates the records through
        ``fit_cubic``; the expression it replaced, on scipy's
        ``CubicSpline``, is copied here, and every sample — the last
        knot included — must carry the same bits."""
        from scipy.interpolate import CubicSpline

        thermo = linger_small.thermo
        tau0 = linger_small.background.tau0
        for mode in linger_small.modes:
            k, tau, r = mode.k, mode.tau, mode.records
            vb = r["theta_b"] / k
            pi, alpha, alpha_dot = r["pi"], r["alpha"], r["alpha_dot"]
            spl = CubicSpline(tau, np.column_stack([vb, pi, alpha_dot]))
            d1 = spl.derivative(1)(tau)
            vb_dot, pi_dot, alpha_ddot = d1[:, 0], d1[:, 1], d1[:, 2]
            pi_ddot = spl.derivative(2)(tau)[:, 1]
            expect = (
                thermo.visibility(tau)
                * (r["delta_g"] / 4.0 + 2.0 * alpha_dot + vb_dot / k
                   + pi / 4.0 + 3.0 * pi_ddot / (4.0 * k * k))
                + thermo.exp_minus_kappa(tau) * (r["etadot"] + alpha_ddot)
                + thermo.visibility_prime(tau)
                * (vb / k + alpha + 3.0 * pi_dot / (2.0 * k * k))
                + 3.0 / (4.0 * k * k) * thermo.visibility_prime2(tau) * pi
            )
            got = SourceTable.from_mode(mode, thermo, tau0).source
            assert np.array_equal(got, expect)


class TestBesselCache:
    def test_matches_scipy(self):
        from scipy.special import spherical_jn

        cache = BesselCache(x_max=50.0, dx=0.05)
        x = np.linspace(0.0, 49.0, 500)
        for l in (2, 10, 31):
            approx = cache.eval(l, x)
            exact = spherical_jn(l, x)
            assert np.max(np.abs(approx - exact)) < 2e-4

    def test_tables_cached(self):
        cache = BesselCache(10.0)
        t1 = cache.table(5)
        t2 = cache.table(5)
        assert t1 is t2

    @pytest.mark.parametrize("x_max,dx", [(4000.0, 0.25), (40.0, 0.01)])
    def test_recurrence_matches_spherical_jn(self, x_max, dx):
        """One downward sweep against scipy, order by order: the grids
        hold x = 0, x = dx, the turning points x ~ l +- 1 and (the
        first) x = 4000, where the sweep starts 4200 orders up."""
        from scipy.special import spherical_jn

        ls = np.array([0, 1, 2, 10, 100, 600, 1500])
        cache = BesselCache(x_max, dx=dx)
        x = cache._x
        assert x[0] == 0.0 and x[1] == dx and x[-1] >= x_max
        rows = cache.table_matrix(ls)
        for l, row in zip(ls, rows):
            assert np.max(np.abs(row - spherical_jn(int(l), x))) < 5e-15
        assert rows[0, 0] == 1.0 and not rows[1:, 0].any()

    def test_single_l_is_the_same_row(self):
        """``table(l)`` sweeps for one order; the stacked build must
        give that row the same bits."""
        rows = BesselCache(80.0).table_matrix([2, 7, 30])
        assert np.array_equal(BesselCache(80.0).table(7), rows[1])
        later = BesselCache(80.0)
        later.table(30)
        assert np.array_equal(later.table_matrix([2, 7, 30]), rows)

    def test_short_table_is_refused(self):
        """A ``bessel=`` that stops short of max(k tau0) used to clip x
        to the table's edge and return garbage (Theta_2 = 356.3 for
        4.825 on this source)."""
        tau = np.linspace(1.0, 12000.0, 50)
        src = SourceTable(k=0.01, tau=tau, source=np.exp(-tau / 4000.0),
                          tau0=12000.0)
        with pytest.raises(ParameterError, match=r"x_max = 10\b.*120\b"):
            theta_l_los([src], [2], bessel=BesselCache(10.0))
        with pytest.raises(ParameterError, match=r"x_max = 10\b.*120\b"):
            e_l_los([src], [2], bessel=BesselCache(10.0))
        with pytest.raises(ParameterError, match=r"x_max = 10\b.*10\.5"):
            BesselCache(10.0).eval(2, np.array([1.0, 10.5]))
        with pytest.raises(ParameterError, match="x >= 0"):
            BesselCache(10.0).eval(2, np.array([-0.5, 1.0]))
        ok = theta_l_los([src], [2], bessel=BesselCache(120.0))
        assert np.array_equal(ok, theta_l_los([src], [2]))


@st.composite
def _random_sources(draw):
    """A few source tables with unrelated k, record grids and samples."""
    tau0 = 3000.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = []
    for _ in range(draw(st.integers(1, 4))):
        k = 10.0 ** draw(st.floats(-4.0, -1.0))
        n = draw(st.integers(8, 60))
        tau = np.sort(rng.uniform(1.0, tau0, n))
        tau[-1] = tau0
        sources.append(SourceTable(k=k, tau=tau, source=rng.normal(size=n),
                                   tau0=tau0))
    return sources


class TestProjection:
    @settings(max_examples=30, deadline=None)
    @given(sources=_random_sources(),
           ls=st.sets(st.integers(2, 250), min_size=1, max_size=8),
           weighted=st.booleans())
    def test_project_matches_gather_form(self, sources, ls, weighted):
        """The scatter + matrix-product projection is the transpose of
        the gather + trapezoid one: same sum, other order."""
        l_values = np.array(sorted(ls))
        weight = (lambda x: 1.0 / np.maximum(x, 1e-8) ** 2) if weighted \
            else None
        bessel = BesselCache(max(s.k * s.tau0 for s in sources))
        got = bessel.project(l_values, sources, weight=weight)
        ref = reference_project(bessel, l_values, sources, weight=weight)
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_callers_are_the_one_projection(self, linger_small):
        from repro.spectra import sources_from_result

        sources = sources_from_result(linger_small)
        l_values = np.array([2, 5, 9, 14])
        bessel = BesselCache(max(s.k * s.tau0 for s in sources))
        assert np.array_equal(theta_l_los(sources, l_values),
                              bessel.project(l_values, sources))
        ref = reference_project(bessel, l_values, sources)
        assert np.allclose(theta_l_los(sources, l_values), ref,
                           rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


class TestNormalization:
    def test_cobe_fixes_quadrupole(self):
        l = np.arange(2, 20)
        cl = 1.0 / (l * (l + 1.0))
        f = cobe_normalization(l, cl, q_rms_ps_uk=18.0, t_cmb_k=2.726)
        c2 = cl[0] * f
        q = 2.726e6 * np.sqrt(5 * c2 / (4 * np.pi))
        assert q == pytest.approx(18.0, rel=1e-10)

    def test_qrms_round_trip(self):
        l = np.arange(2, 30)
        cl = 1.0 / (l * (l + 1.0))
        f = cobe_normalization(l, cl, 20.0)
        assert qrms_ps_from_cl(l, cl * f) == pytest.approx(20.0, rel=1e-10)

    def test_band_power_flat_spectrum(self):
        # l(l+1)C_l = const -> flat band power
        l = np.arange(2, 100)
        cl = 1.0 / (l * (l + 1.0))
        bp = band_power_uk(l, cl)
        assert np.allclose(bp, bp[0], rtol=1e-12)

    def test_missing_quadrupole_rejected(self):
        with pytest.raises(ParameterError):
            cobe_normalization(np.arange(5, 10), np.ones(5))

    def test_scdm_band_power_level(self, linger_small):
        """COBE-normalized standard CDM sits near ~28 uK at low l
        (the Sachs-Wolfe plateau, Q = 18 uK)."""
        l, cl = cl_from_hierarchy(linger_small, l_values=np.arange(2, 10))
        cl = cl * cobe_normalization(l, cl)
        bp = band_power_uk(l, cl)
        assert 20 < bp[0] < 40


class TestMatterPower:
    def test_large_scale_slope(self, linger_small):
        """P(k) ~ k^(n_s) on super-horizon scales."""
        k = linger_small.k[:4]
        pk = matter_power(k, linger_small.delta_m[:4],
                          n_s=linger_small.params.n_s)
        slope = np.polyfit(np.log(k), np.log(pk), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_transfer_function_normalized(self, linger_small):
        t = transfer_function(linger_small.k, linger_small.delta_m)
        assert t[0] == pytest.approx(1.0)
        assert np.all(t > 0)

    def test_transfer_suppressed_small_scales(self, linger_small):
        t = transfer_function(linger_small.k, linger_small.delta_m)
        assert t[-1] < t[0]

    def test_sigma_r_positive(self, linger_small):
        pk = matter_power(linger_small.k, linger_small.delta_m)
        assert sigma_r(linger_small.k, pk, 16.0) > 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            matter_power(np.ones(3), np.ones(4))
