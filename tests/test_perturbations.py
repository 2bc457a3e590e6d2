"""Physics invariants of the evolved Einstein-Boltzmann system.

These are the tests that make the reproduction trustworthy: known
analytic limits (superhorizon conservation, the radiation-to-matter
potential drop, tight coupling), internal consistency (TCA switch-time
independence, integrator independence, lmax convergence), and the
gauge identities.
"""

import numpy as np
import pytest

from repro.integrators import RKF45
from repro.perturbations import (
    default_record_grid,
    evolve_mode,
    record_grid_start,
)
from repro.perturbations.evolve import find_tca_exit, tau_initial


class TestSuperhorizon:
    def test_eta_conserved_early(self, mode_k005):
        """eta is constant while the mode is outside the horizon."""
        r = mode_k005.records
        early = mode_k005.tau < 0.2 / mode_k005.k
        eta = r["eta"][early]
        assert eta.size > 5
        assert np.max(np.abs(eta - eta[0])) < 0.02 * abs(eta[0])

    def test_psi_radiation_value(self, mode_k005, bg_scdm):
        """psi = 20 C / (15 + 4 R_nu) deep in the radiation era."""
        from repro.perturbations.initial import neutrino_fraction

        rnu = neutrino_fraction(bg_scdm)
        expected = 20.0 / (15.0 + 4.0 * rnu)
        assert mode_k005.records["psi"][0] == pytest.approx(expected,
                                                            rel=0.02)

    def test_potential_drop_through_equality(self, bg_scdm, thermo_scdm):
        """Conserved-curvature bookkeeping through equality.

        The textbook 9/10 drop of the potential generalizes, with
        neutrino anisotropic stress, to

            phi_MD / phi_RD = (9/10 + 6 R_nu / 25) / (1 + 2 R_nu / 5),
            phi_RD = psi_RD (1 + 2 R_nu / 5),

        for a mode still outside the horizon in the matter era.
        """
        from repro.perturbations.initial import neutrino_fraction

        k = 1e-4  # far outside the horizon until very late times
        grid = default_record_grid(bg_scdm, thermo_scdm, k)
        mode = evolve_mode(bg_scdm, thermo_scdm, k, record_tau=grid,
                           rtol=1e-5)
        r = mode.records
        rnu = neutrino_fraction(bg_scdm)
        # RD relation between the two potentials
        assert r["phi"][0] == pytest.approx(
            r["psi"][0] * (1 + 0.4 * rnu), rel=0.005
        )
        sel = (r["a"] > 0.01) & (r["a"] < 0.05)
        assert np.count_nonzero(sel) > 3
        ratio = np.mean(r["phi"][sel]) / r["phi"][0]
        expected = (0.9 + 6 * rnu / 25) / (1 + 0.4 * rnu)
        assert ratio == pytest.approx(expected, rel=0.015)

    def test_adiabatic_relation_persists_early(self, mode_k005):
        r = mode_k005.records
        early = mode_k005.tau < 0.1 / mode_k005.k
        assert np.allclose(r["delta_c"][early],
                           0.75 * r["delta_g"][early], rtol=0.05)


class TestTightCoupling:
    def test_baryons_locked_to_photons_before_rec(self, mode_k05,
                                                  thermo_scdm):
        r = mode_k05.records
        before = mode_k05.tau < 0.7 * thermo_scdm.tau_rec
        tb, tg = r["theta_b"][before], r["theta_g"][before]
        scale = np.max(np.abs(tg))
        assert np.max(np.abs(tb - tg)) < 0.02 * scale

    def test_acoustic_oscillations(self, mode_k05, thermo_scdm):
        """delta_g for k = 0.05 undergoes acoustic oscillations: several
        sign changes over the recorded history (k r_s(rec) ~ 2 pi, plus
        free-streaming oscillations afterwards)."""
        r = mode_k05.records
        signs = np.sign(r["delta_g"])
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips >= 3
        # and at least one sign change happens before last scattering
        pre = signs[mode_k05.tau < thermo_scdm.tau_rec]
        assert np.count_nonzero(np.diff(pre) != 0) >= 1

    def test_switch_time_independence(self, bg_scdm, thermo_scdm):
        """Leaving tight coupling earlier or later must not change the
        answer (first-order TCA accuracy)."""
        k = 0.05
        m1 = evolve_mode(bg_scdm, thermo_scdm, k, rtol=1e-6, tca_eps=0.01)
        m2 = evolve_mode(bg_scdm, thermo_scdm, k, rtol=1e-6, tca_eps=0.004)
        assert m1.tau_switch != m2.tau_switch
        d1 = m1.y_final[m1.layout.DELTA_C]
        d2 = m2.y_final[m2.layout.DELTA_C]
        assert d1 == pytest.approx(d2, rel=2e-3)

    def test_tca_exit_before_visibility_peak(self, bg_scdm, thermo_scdm):
        for k in (0.001, 0.05, 0.3):
            t_exit = find_tca_exit(thermo_scdm, k)
            assert t_exit < thermo_scdm.tau_rec

    def test_tca_exit_earlier_for_larger_k(self, bg_scdm, thermo_scdm):
        assert find_tca_exit(thermo_scdm, 0.3) < find_tca_exit(
            thermo_scdm, 0.003
        )


class TestNumericalRobustness:
    def test_tolerance_convergence(self, bg_scdm, thermo_scdm):
        m1 = evolve_mode(bg_scdm, thermo_scdm, 0.02, rtol=1e-4)
        m2 = evolve_mode(bg_scdm, thermo_scdm, 0.02, rtol=1e-6)
        d1 = m1.y_final[m1.layout.DELTA_C]
        d2 = m2.y_final[m2.layout.DELTA_C]
        assert d1 == pytest.approx(d2, rel=1e-3)

    def test_integrator_independence(self, bg_scdm, thermo_scdm):
        """DVERK and RKF45 must agree — the physics does not depend on
        the integrator (the paper's accuracy rests on the equations)."""
        m1 = evolve_mode(bg_scdm, thermo_scdm, 0.02, rtol=1e-6)
        m2 = evolve_mode(bg_scdm, thermo_scdm, 0.02, rtol=1e-6,
                         driver_cls=RKF45)
        assert m1.y_final[m1.layout.DELTA_C] == pytest.approx(
            m2.y_final[m2.layout.DELTA_C], rel=1e-3
        )

    def test_lmax_convergence_of_sources(self, bg_scdm, thermo_scdm):
        grid = default_record_grid(bg_scdm, thermo_scdm, 0.05)
        m1 = evolve_mode(bg_scdm, thermo_scdm, 0.05, lmax_photon=10,
                         record_tau=grid, rtol=1e-5)
        m2 = evolve_mode(bg_scdm, thermo_scdm, 0.05, lmax_photon=18,
                         record_tau=grid, rtol=1e-5)
        i_rec = np.argmin(np.abs(m1.tau - 235.0))
        assert m1.records["delta_g"][i_rec] == pytest.approx(
            m2.records["delta_g"][i_rec], rel=0.03
        )

    def test_amplitude_linearity(self, bg_scdm, thermo_scdm):
        m1 = evolve_mode(bg_scdm, thermo_scdm, 0.03, rtol=1e-5,
                         amplitude=1.0)
        m2 = evolve_mode(bg_scdm, thermo_scdm, 0.03, rtol=1e-5,
                         amplitude=3.0)
        f1 = m1.f_gamma_final
        f2 = m2.f_gamma_final
        assert np.allclose(f2, 3.0 * f1, rtol=1e-3, atol=1e-10)


class TestGrowthAndGauge:
    def test_cdm_grows_linearly_in_matter_era(self, mode_k05):
        """Inside the horizon, delta_c grows like a in the matter era."""
        r = mode_k05.records
        sel = (r["a"] > 0.02) & (r["a"] < 0.2)
        ratio = np.abs(r["delta_c"][sel]) / r["a"][sel]
        assert np.std(ratio) / np.mean(ratio) < 0.05

    def test_phi_equals_psi_when_shear_negligible(self, mode_k05):
        """In the matter era the anisotropic stress is tiny, so the two
        Newtonian potentials coincide."""
        r = mode_k05.records
        sel = r["a"] > 0.1
        assert np.allclose(r["phi"][sel], r["psi"][sel], rtol=0.02)

    def test_potential_decays_inside_horizon_rad_era(self, bg_scdm,
                                                     thermo_scdm):
        """A small-scale mode's potential decays after horizon entry in
        the radiation era (Meszaros suppression)."""
        k = 0.2
        grid = default_record_grid(bg_scdm, thermo_scdm, k)
        mode = evolve_mode(bg_scdm, thermo_scdm, k, record_tau=grid,
                           rtol=1e-4)
        r = mode.records
        late = np.abs(r["psi"][-1])
        assert late < 0.3 * abs(r["psi"][0])

    def test_delta_m_matches_components(self, mode_k05, scdm):
        r = mode_k05.records
        expected = (
            scdm.omega_c * r["delta_c"] + scdm.omega_b * r["delta_b"]
        ) / scdm.omega_m
        assert np.allclose(r["delta_m"], expected, rtol=1e-12)


class TestPhotonSector:
    def test_photons_free_stream_after_rec(self, mode_k05, thermo_scdm):
        """After last scattering the monopole stops growing: delta_g
        today is O(initial), not O(delta_c)."""
        r = mode_k05.records
        assert abs(r["delta_g"][-1]) < 0.05 * abs(r["delta_c"][-1])

    def test_polarization_generated_at_recombination(self, mode_k05,
                                                     thermo_scdm):
        """Pi = F2 + G0 + G2 peaks around recombination and is tiny
        before (tight coupling suppresses the quadrupole)."""
        r = mode_k05.records
        tau = mode_k05.tau
        pi_peak = np.max(np.abs(r["pi"]))
        i_peak = np.argmax(np.abs(r["pi"]))
        assert 0.5 * thermo_scdm.tau_rec < tau[i_peak] < 3 * thermo_scdm.tau_rec
        early = tau < 0.3 * thermo_scdm.tau_rec
        assert np.max(np.abs(r["pi"][early])) < 0.1 * pi_peak

    def test_final_multipoles_finite_and_bounded(self, mode_k05):
        th = mode_k05.theta_l_final
        assert np.all(np.isfinite(th))
        # l = 1 is gauge-dependent in synchronous gauge (the dipole grows
        # as -(2/3) hdot / k to keep the monopole bounded); the physical
        # multipoles l >= 2 stay O(1) or smaller.
        assert np.max(np.abs(th[2:])) < 1.0
        assert abs(th[0]) < 1.0


class TestMassiveNeutrinos:
    def test_massive_nu_adiabatic_early(self, mode_mdm):
        r = mode_mdm.records
        early = mode_mdm.tau < 0.1 / mode_mdm.k
        assert np.allclose(r["delta_nu_massive"][early],
                           r["delta_g"][early], rtol=0.05)

    def test_free_streaming_suppression(self, mode_mdm, mode_k05):
        """MDM: neutrinos cluster less than CDM at k = 0.05/Mpc."""
        r = mode_mdm.records
        assert abs(r["delta_nu_massive"][-1]) < abs(r["delta_c"][-1])

    def test_mdm_slows_cdm_growth(self, mode_mdm, mode_k05):
        """The MDM model's delta_c today is below standard CDM's at the
        same k (the neutrino free-streaming drag on growth)."""
        d_mdm = abs(mode_mdm.records["delta_c"][-1])
        d_cdm = abs(mode_k05.records["delta_c"][-1])
        assert d_mdm < d_cdm

    def test_delta_m_includes_neutrinos(self, mode_mdm, mdm):
        r = mode_mdm.records
        expected = (
            mdm.omega_c * r["delta_c"][-1]
            + mdm.omega_b * r["delta_b"][-1]
            + mdm.omega_nu * r["delta_nu_massive"][-1]
        ) / mdm.omega_m
        assert r["delta_m"][-1] == pytest.approx(expected, rel=1e-10)


class TestDriverMechanics:
    def test_records_cover_grid(self, mode_k05):
        assert mode_k05.tau.size > 200
        assert np.all(np.isfinite(mode_k05.tau))
        for name, arr in mode_k05.records.items():
            if name == "delta_nu_massive":
                continue  # NaN by design for massless runs
            assert np.all(np.isfinite(arr)), name

    def test_tau_initial_rule(self):
        assert tau_initial(0.03) == pytest.approx(1.0)
        assert tau_initial(1e-5) == pytest.approx(1.5)

    def test_record_grid_start_is_the_grid_s_first_point(self, bg_scdm,
                                                         thermo_scdm):
        """Bit for bit, on the physical tables (every mode starts
        before the uniform stretch) and on toy epochs that put the
        start inside it, past it, and past ``tau_end``."""
        from types import SimpleNamespace

        ks = np.geomspace(1e-5, 0.5, 60)
        cases = [(bg_scdm, thermo_scdm, None), (bg_scdm, thermo_scdm, 900.0)]
        cases += [
            (SimpleNamespace(tau0=tau0), SimpleNamespace(tau_rec=tau_rec),
             tau_end)
            for tau0, tau_rec, tau_end in (
                (50.0, 1.037, None), (50.0, 0.217, None), (50.0, 1.037, 1.2))
        ]
        fast = 0
        for bg, th, tau_end in cases:
            for k in ks:
                grid = default_record_grid(bg, th, float(k), tau_end=tau_end)
                if grid.size == 0:
                    continue
                start = record_grid_start(bg, th, float(k), tau_end=tau_end)
                assert start == grid[0]
                fast += start == tau_initial(float(k)) * 1.05
        # both branches were walked
        assert 0 < fast < len(cases) * ks.size

    def test_scale_factor_reaches_one(self, mode_k05):
        assert mode_k05.records["a"][-1] == pytest.approx(1.0, rel=1e-4)

    def test_stats_populated(self, mode_k05):
        assert mode_k05.stats.n_steps > 100
        assert mode_k05.stats.n_rhs > 8 * mode_k05.stats.n_steps * 0.5
