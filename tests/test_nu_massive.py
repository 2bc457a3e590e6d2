"""Massive-neutrino phase-space integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.background import nu_massive
from repro.background.nu_massive import (
    I_RHO_MASSLESS,
    MassiveNuTables,
    dlnf0_dlnq,
    fermi_dirac_f0,
    momentum_grid,
    pressure_integral,
    rho_integral,
    solve_mass_parameter,
)


class TestDistribution:
    def test_f0_at_zero(self):
        assert float(fermi_dirac_f0(0.0)) == pytest.approx(0.5)

    def test_f0_decreasing(self):
        q = np.linspace(0, 20, 100)
        assert np.all(np.diff(fermi_dirac_f0(q)) < 0)

    def test_dlnf0_matches_numeric(self):
        q = np.array([0.5, 1.0, 3.0, 8.0])
        eps = 1e-6
        num = (
            np.log(fermi_dirac_f0(q * (1 + eps)))
            - np.log(fermi_dirac_f0(q * (1 - eps)))
        ) / (2 * eps)
        assert np.allclose(dlnf0_dlnq(q), num, rtol=1e-5)

    def test_no_overflow_at_huge_q(self):
        assert float(fermi_dirac_f0(1e4)) < 1e-300
        assert np.isfinite(dlnf0_dlnq(1e4))


class TestQuadrature:
    def test_massless_integral_analytic(self):
        # integral q^3/(e^q+1) dq = 7 pi^4/120
        q, w = momentum_grid(64, q_max=25.0)
        val = np.sum(w * q**3 * fermi_dirac_f0(q))
        assert val == pytest.approx(7 * math.pi**4 / 120, rel=1e-7)

    def test_number_density_integral(self):
        # integral q^2/(e^q+1) dq = (3/2) zeta(3)
        q, w = momentum_grid(64, q_max=25.0)
        val = np.sum(w * q**2 * fermi_dirac_f0(q))
        assert val == pytest.approx(1.5 * 1.2020569, rel=1e-7)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            momentum_grid(1)


class TestIntegrals:
    def test_rho_massless_limit(self):
        assert float(rho_integral(0.0)) == pytest.approx(
            I_RHO_MASSLESS, rel=1e-6
        )

    def test_pressure_massless_limit(self):
        # relativistic: p = rho/3 -> I_p(0) = I_rho(0)/3
        assert float(pressure_integral(0.0)) == pytest.approx(
            I_RHO_MASSLESS / 3.0, rel=1e-6
        )

    def test_rho_nonrelativistic_limit(self):
        # I_rho(x) -> x * (3/2) zeta(3) for x >> 1 (rest mass x number)
        x = 1e4
        assert float(rho_integral(x)) == pytest.approx(
            x * 1.5 * 1.2020569, rel=1e-3
        )

    def test_pressure_suppressed_nonrelativistic(self):
        x = 1e4
        assert float(pressure_integral(x)) < 0.01 * float(rho_integral(x))

    @given(x=st.floats(1e-3, 1e5))
    @settings(max_examples=30, deadline=None)
    def test_rho_exceeds_massless(self, x):
        # mass only adds energy
        assert float(rho_integral(x)) >= I_RHO_MASSLESS * 0.999999


class TestMassParameter:
    def test_round_trip(self):
        omega_rel = 1e-5
        omega_nu = 0.1
        x0 = solve_mass_parameter(omega_nu, omega_rel)
        got = omega_rel * float(rho_integral(x0)) / I_RHO_MASSLESS
        assert got == pytest.approx(omega_nu, rel=1e-6)

    def test_zero_omega(self):
        assert solve_mass_parameter(0.0, 1e-5) == 0.0

    @pytest.mark.parametrize("omega_nu", [1.2e-5, 1e-3, 0.2, 0.9])
    def test_converges_in_a_handful_of_evaluations(self, monkeypatch,
                                                   omega_nu):
        """A count, not a timing: bisection over the 34-decade bracket
        needed ~50 of these 96-node integrals."""
        calls = []
        integral = nu_massive.rho_integral
        monkeypatch.setattr(
            nu_massive, "rho_integral",
            lambda *args: calls.append(args[0]) or integral(*args))
        x0 = solve_mass_parameter(omega_nu, 1e-5)
        assert len(calls) <= 12
        monkeypatch.undo()
        q, w = momentum_grid(96, q_max=30.0)
        got = 1e-5 * rho_integral(x0, q, w) / I_RHO_MASSLESS
        assert got == pytest.approx(omega_nu, rel=1e-12)

    def test_too_small_omega_rejected(self):
        with pytest.raises(ValueError):
            solve_mass_parameter(1e-7, 1e-5)


class TestTables:
    def test_table_matches_direct(self):
        tab = MassiveNuTables.build(x0=100.0)
        for a in (1e-6, 1e-3, 0.1, 1.0):
            direct = float(rho_integral(a * 100.0)) / I_RHO_MASSLESS
            assert tab.rho_factor(a) == pytest.approx(direct, rel=1e-5)

    def test_pressure_table_matches_direct(self):
        tab = MassiveNuTables.build(x0=100.0)
        for a in (1e-5, 1e-2, 1.0):
            direct = 3.0 * float(pressure_integral(a * 100.0)) / I_RHO_MASSLESS
            assert tab.pressure_factor(a) == pytest.approx(direct, rel=1e-5)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            MassiveNuTables.build(0.0)
