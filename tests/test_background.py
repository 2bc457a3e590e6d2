"""FRW background: Friedmann closure, limits, conformal time."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Background, ParameterError
from repro.params import lambda_cdm, mixed_dark_matter, standard_cdm


class TestFriedmannClosure:
    def test_hubble_today_equals_h0(self, bg_scdm, scdm):
        assert float(bg_scdm.hubble(1.0)) == pytest.approx(
            scdm.h0_mpc, rel=1e-3
        )

    def test_grho_today(self, bg_scdm, scdm):
        # flat model: (8 pi G/3) rho0 = H0^2 (1 - Omega_k)
        assert float(bg_scdm.grho(1.0)) == pytest.approx(
            scdm.h0_mpc**2 * (1 - scdm.omega_k), rel=1e-12
        )

    def test_components_sum_to_total(self, bg_scdm):
        a = np.array([1e-6, 1e-3, 0.1, 1.0])
        comps = bg_scdm.grho_components(a)
        assert np.allclose(sum(comps.values()), bg_scdm.grho(a))


class TestLimits:
    def test_radiation_era_scaling(self, bg_scdm, scdm):
        # H_conf * a -> const = H0 sqrt(Omega_r) as a -> 0
        a = np.array([1e-8, 1e-7])
        prod = bg_scdm.conformal_hubble(a) * a
        assert prod[0] == pytest.approx(prod[1], rel=1e-3)
        assert prod[0] == pytest.approx(
            scdm.h0_mpc * np.sqrt(scdm.omega_r), rel=1e-3
        )

    def test_matter_era_scaling(self, bg_scdm):
        # H^2 ~ a^-3 between equality and today
        h1, h2 = bg_scdm.hubble(0.01), bg_scdm.hubble(0.04)
        assert float(h1 / h2) == pytest.approx(4.0**1.5, rel=0.02)

    def test_pressure_radiation_era(self, bg_scdm):
        # w -> 1/3 deep in the radiation era
        a = 1e-8
        w = float(bg_scdm.gpres(a) / bg_scdm.grho(a))
        assert w == pytest.approx(1.0 / 3.0, rel=1e-3)

    def test_pressure_matter_era(self, bg_scdm):
        w = float(bg_scdm.gpres(0.05) / bg_scdm.grho(0.05))
        assert abs(w) < 0.01

    def test_lambda_dominates_late_lcdm(self):
        bg = Background(lambda_cdm())
        w = float(bg.gpres(1.0) / bg.grho(1.0))
        assert w < -0.5


class TestConformalTime:
    def test_monotonic(self, bg_scdm):
        a = np.geomspace(1e-9, 1.0, 200)
        tau = bg_scdm.conformal_time(a)
        assert np.all(np.diff(tau) > 0)

    def test_radiation_era_analytic(self, bg_scdm, scdm):
        # tau = a / (H0 sqrt(Omega_r,early)) deep in the radiation era
        a = 1e-8
        expected = a / (
            scdm.h0_mpc
            * np.sqrt(
                scdm.omega_gamma
                * (1 + scdm.n_nu_massless * 0.22711)
            )
        )
        assert float(bg_scdm.conformal_time(a)) == pytest.approx(
            expected, rel=5e-3
        )

    def test_tau0_scdm(self, bg_scdm):
        # conformal age of Omega=1, h=0.5: close to 2/H0 * (1 - corrections)
        assert 11000 < bg_scdm.tau0 < 12500

    def test_roundtrip(self, bg_scdm):
        a = np.geomspace(1e-8, 0.99, 50)
        a2 = bg_scdm.a_of_tau(bg_scdm.conformal_time(a))
        assert np.allclose(a2, a, rtol=1e-8)

    def test_out_of_range_raises(self, bg_scdm):
        with pytest.raises(ParameterError):
            bg_scdm.conformal_time(1e-12)
        with pytest.raises(ParameterError):
            bg_scdm.a_of_tau(bg_scdm.tau0 * 2)


class TestDerivatives:
    def test_hconf_derivative_numeric(self, bg_scdm):
        # compare analytic H_conf' with a finite difference along tau
        a0 = 1e-3
        tau0 = float(bg_scdm.conformal_time(a0))
        dtau = 0.5
        a_p = float(bg_scdm.a_of_tau(tau0 + dtau))
        a_m = float(bg_scdm.a_of_tau(tau0 - dtau))
        num = (
            float(bg_scdm.conformal_hubble(a_p))
            - float(bg_scdm.conformal_hubble(a_m))
        ) / (2 * dtau)
        ana = float(bg_scdm.dconformal_hubble_dtau(a0))
        assert num == pytest.approx(ana, rel=1e-3)

    def test_addot_positive_matter_era(self, bg_scdm):
        # a''/a = (4 pi G/3) a^2 (rho - 3p) > 0 once matter contributes
        assert float(bg_scdm.addot_over_a(0.01)) > 0

    def test_equality_scale(self, bg_scdm, scdm):
        assert bg_scdm.a_equality_exact() == pytest.approx(
            scdm.a_equality, rel=1e-3
        )


class TestMassiveNuBackground:
    def test_closure_with_massive_nu(self, bg_mdm, mdm):
        assert float(bg_mdm.grho(1.0)) == pytest.approx(
            mdm.h0_mpc**2 * (1 - mdm.omega_k), rel=1e-6
        )

    def test_massive_nu_relativistic_early(self, bg_mdm, mdm):
        # at a -> 0 the massive species carries its massless-equivalent
        a = 1e-8
        comps = bg_mdm.grho_components(a)
        expected = mdm.h0_mpc**2 * 0.22711 * mdm.omega_gamma / a**2
        assert float(comps["nu_massive"]) == pytest.approx(expected, rel=1e-3)

    def test_massive_nu_matterlike_today(self, bg_mdm, mdm):
        comps = bg_mdm.grho_components(1.0)
        expected = mdm.h0_mpc**2 * mdm.omega_nu
        assert float(comps["nu_massive"]) == pytest.approx(expected, rel=1e-4)

    def test_pressure_factor_limits(self, bg_mdm):
        tab = bg_mdm.nu_tables
        # relativistic: 3p/rho -> 1; non-relativistic: -> 0
        assert float(tab.pressure_factor(1e-8) / tab.rho_factor(1e-8)) == pytest.approx(1.0, rel=1e-3)
        assert float(tab.pressure_factor(1.0) / tab.rho_factor(1.0)) < 0.01


class TestFloatPath:
    """A python float takes the rates through plain ``math``; the same
    expressions, so it may differ from the array path only by libm
    against numpy rounding in exp/log/sqrt."""

    @staticmethod
    @functools.cache
    def backgrounds():
        return [Background(p) for p in (
            standard_cdm(), mixed_dark_matter(), standard_cdm(omega_c=0.35))]

    @pytest.mark.property
    @given(a=st.floats(1e-10, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_float_path_matches_array_path(self, a):
        for bg in self.backgrounds():
            for rate in (bg.hubble, bg.conformal_hubble, bg.grho):
                got, want = rate(a), rate(np.array([a]))[0]
                assert type(got) is float
                assert abs(got - want) <= 4.0 * np.spacing(want)

    @staticmethod
    @functools.cache
    def named_backgrounds():
        return {name: Background(p) for name, p in (
            ("standard_cdm", standard_cdm()),
            ("mixed_dark_matter", mixed_dark_matter(omega_nu=0.2)),
            ("lambda_cdm", lambda_cdm()))}

    @pytest.mark.property
    @given(a=st.floats(1e-8, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_one_hubble_rate_on_every_interpreter(self, a):
        """``grho`` adds its components left to right, in dict order.
        The builtin ``sum`` did that up to Python 3.11 and compensates
        floats (Neumaier) from 3.12 on, which moved the thermal ODE's
        H(a) by one bit at a third of epochs — between interpreters,
        and from the array path of the same interpreter."""
        for bg in self.named_backgrounds().values():
            c = list(bg.grho_components(a).values())
            assert len(c) == 6
            assert bg.grho(a) == c[0] + c[1] + c[2] + c[3] + c[4] + c[5]
        # with a massive species math.exp and np.exp may differ in the
        # last bit, legitimately; without one the two paths are one sum
        for name in ("standard_cdm", "lambda_cdm"):
            bg = self.named_backgrounds()[name]
            for rate in (bg.grho, bg.conformal_hubble):
                assert rate(a) == rate(np.array([a]))[0]
