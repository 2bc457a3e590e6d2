"""Adiabatic initial conditions (MB95 eqs. 96-98)."""

import numpy as np
import pytest

from repro import ParameterError
from repro.background.nu_massive import momentum_grid
from repro.perturbations import StateLayout, adiabatic_initial_conditions
from repro.perturbations.initial import neutrino_fraction


@pytest.fixture
def layout():
    return StateLayout(lmax_photon=8, lmax_nu=8)


class TestNeutrinoFraction:
    def test_three_massless_species(self, bg_scdm):
        # R_nu = 0.4052 for 3 species at (4/11)^(1/3) temperature
        assert neutrino_fraction(bg_scdm) == pytest.approx(0.4052, abs=1e-3)

    def test_massive_counted_as_relativistic(self, bg_mdm):
        assert neutrino_fraction(bg_mdm) == pytest.approx(0.4052, abs=1e-3)


class TestAdiabaticRelations:
    def test_adiabatic_density_ratios(self, layout, bg_scdm):
        y = adiabatic_initial_conditions(layout, bg_scdm, k=0.01,
                                         tau_init=1.0)
        delta_g = y[layout.sl_fg][0]
        assert y[layout.DELTA_C] == pytest.approx(0.75 * delta_g)
        assert y[layout.DELTA_B] == pytest.approx(0.75 * delta_g)
        assert y[layout.sl_nl][0] == pytest.approx(delta_g)

    def test_eta_leading_value(self, layout, bg_scdm):
        # eta -> 2C as k tau -> 0
        y = adiabatic_initial_conditions(layout, bg_scdm, k=1e-3,
                                         tau_init=0.5, amplitude=1.0)
        assert y[layout.ETA] == pytest.approx(2.0, abs=1e-4)

    def test_h_leading_value(self, layout, bg_scdm):
        k, tau = 0.01, 1.0
        y = adiabatic_initial_conditions(layout, bg_scdm, k, tau)
        assert y[layout.H] == pytest.approx((k * tau) ** 2)

    def test_linear_in_amplitude(self, layout, bg_scdm):
        y1 = adiabatic_initial_conditions(layout, bg_scdm, 0.01, 1.0,
                                          amplitude=1.0)
        y2 = adiabatic_initial_conditions(layout, bg_scdm, 0.01, 1.0,
                                          amplitude=2.5)
        # everything except the scale factor is linear in C
        assert np.allclose(y2[1:], 2.5 * y1[1:])
        assert y2[0] == y1[0]

    def test_baryons_match_photon_velocity(self, layout, bg_scdm):
        y = adiabatic_initial_conditions(layout, bg_scdm, 0.01, 1.0)
        theta_g = 0.75 * 0.01 * y[layout.sl_fg][1]
        assert y[layout.THETA_B] == pytest.approx(theta_g)

    def test_neutrino_velocity_enhanced(self, layout, bg_scdm):
        # theta_nu / theta_gamma = (23 + 4 R_nu)/(15 + 4 R_nu) > 1
        y = adiabatic_initial_conditions(layout, bg_scdm, 0.01, 1.0)
        theta_g = 0.75 * 0.01 * y[layout.sl_fg][1]
        theta_n = 0.75 * 0.01 * y[layout.sl_nl][1]
        rnu = neutrino_fraction(bg_scdm)
        assert theta_n / theta_g == pytest.approx(
            (23 + 4 * rnu) / (15 + 4 * rnu), rel=1e-10
        )

    def test_higher_moments_zero(self, layout, bg_scdm):
        y = adiabatic_initial_conditions(layout, bg_scdm, 0.01, 1.0)
        assert np.all(y[layout.sl_fg][2:] == 0.0)
        assert np.all(y[layout.sl_gg] == 0.0)
        assert np.all(y[layout.sl_nl][3:] == 0.0)


class TestMassiveSector:
    def test_psi_moments_consistent_with_fluid(self, bg_mdm):
        """The Psi_l(q) initial data must integrate back to the fluid
        perturbations they encode (MB95 eq. 97)."""
        from repro.background import fermi_dirac_f0
        from repro.background.nu_massive import I_RHO_MASSLESS

        lo = StateLayout(lmax_photon=8, lmax_nu=8, nq=16, lmax_massive_nu=4)
        q, w = momentum_grid(16, q_max=18.0)
        k, tau = 0.01, 1.0
        y = adiabatic_initial_conditions(lo, bg_mdm, k, tau, q_nodes=q)
        psi = lo.psi_matrix(y)
        f0 = fermi_dirac_f0(q)
        # relativistic at this epoch: delta_nu = int q^3 f0 Psi0 / I_rho(0)
        delta = np.sum(w * q**3 * f0 * psi[:, 0]) / I_RHO_MASSLESS
        delta_g = y[lo.sl_fg][0]
        assert delta == pytest.approx(delta_g, rel=1e-3)

    def test_missing_q_nodes_raises(self, bg_mdm):
        lo = StateLayout(lmax_photon=8, lmax_nu=8, nq=4, lmax_massive_nu=4)
        with pytest.raises(ParameterError):
            adiabatic_initial_conditions(lo, bg_mdm, 0.01, 1.0)

    def test_massless_background_rejected(self, bg_scdm):
        lo = StateLayout(lmax_photon=8, lmax_nu=8, nq=4, lmax_massive_nu=4)
        q, _ = momentum_grid(4)
        with pytest.raises(ParameterError):
            adiabatic_initial_conditions(lo, bg_scdm, 0.01, 1.0, q_nodes=q)


class TestValidation:
    def test_large_ktau_rejected(self, layout, bg_scdm):
        with pytest.raises(ParameterError):
            adiabatic_initial_conditions(layout, bg_scdm, k=1.0, tau_init=1.0)

    def test_negative_k_rejected(self, layout, bg_scdm):
        with pytest.raises(ParameterError):
            adiabatic_initial_conditions(layout, bg_scdm, k=-0.1,
                                         tau_init=0.1)


class TestAGridIsItsWavenumbers:
    """A grid's plan forms each wavenumber's quantities in numpy passes
    over the grid; every one is bitwise what that wavenumber alone gives
    (and, for the tight-coupling exit, what the first row of the full
    comparison gives)."""

    K = np.concatenate([np.geomspace(3e-5, 0.5, 23), [0.02, 0.0200001]])

    @staticmethod
    def exit_by_comparison(thermo, k, tca_eps=0.01):
        cond = thermo._kappa_dot_table * tca_eps < np.maximum(
            k, thermo._conformal_hubble_table)
        cond |= thermo._x_e_table < 0.99 * thermo._x_e_table[0]
        return float(thermo._tau[np.argmax(cond)])

    @pytest.mark.parametrize("model", ["scdm", "mdm"])
    def test_every_quantity_bit_for_bit(self, request, model):
        from repro.perturbations.evolve import (
            ModePlan, find_tca_exit, tau_initial)
        from repro.perturbations.system import advection_rows

        bg = request.getfixturevalue(f"bg_{model}")
        thermo = request.getfixturevalue(f"thermo_{model}")
        nq = 6 if model == "mdm" else 0
        layout = StateLayout(lmax_photon=9, lmax_nu=7, nq=nq,
                             lmax_massive_nu=5 if nq else 0)
        q = momentum_grid(nq)[0] if nq else None
        t_init = tau_initial(self.K)
        y0 = adiabatic_initial_conditions(layout, bg, self.K, t_init,
                                          q_nodes=q, amplitude=1.7)
        exits = find_tca_exit(thermo, self.K, tca_eps=0.02)
        lo, hi = advection_rows(layout, self.K)
        kwargs = dict(lmax_nu=7, nq=nq, lmax_massive_nu=5, record_tau=True,
                      amplitude=1.7, tca_eps=0.02)
        plan = ModePlan(bg, thermo, self.K, [9] * self.K.size, **kwargs)
        for i, k in enumerate(self.K.tolist()):
            assert t_init[i] == tau_initial(k)
            one = adiabatic_initial_conditions(layout, bg, k, tau_initial(k),
                                               q_nodes=q, amplitude=1.7)
            assert y0[i].tobytes() == one.tobytes()
            assert exits[i] == find_tca_exit(thermo, k, tca_eps=0.02)
            assert exits[i] == self.exit_by_comparison(thermo, k, 0.02)
            assert [a.tobytes() for a in advection_rows(layout, k)] == [
                lo[i].tobytes(), hi[i].tobytes()]
            alone = ModePlan(bg, thermo, [k], [9], **kwargs)
            assert plan.y0[i].tobytes() == alone.y0[0].tobytes()
            assert (plan.t_init[i], plan.t_switch[i]) == (
                alone.t_init[0], alone.t_switch[0])
            assert plan.tau[i].tobytes() == alone.tau[0].tobytes()
            for a, b in zip(plan.phases(i), alone.phases(0)):
                assert a[:3] + a[4:] == b[:3] + b[4:]
                assert a[3].tobytes() == b[3].tobytes()
