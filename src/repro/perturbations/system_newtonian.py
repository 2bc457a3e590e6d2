"""The conformal-Newtonian-gauge Einstein-Boltzmann system.

COSMICS distributed LINGER in both gauges (``linger_syn`` and
``linger_con``); Ma & Bertschinger (1995) present the equations side by
side.  This module is the conformal Newtonian twin of
:mod:`repro.perturbations.system`: an *independent* implementation of
the same physics whose results, after the gauge transformation, must
agree with the synchronous code — the strongest cross-validation the
package has (see ``tests/test_gauge_equivalence.py``).

State layout (reusing :class:`StateLayout` slots):

    A        -> a
    H        -> phi  (the curvature potential; psi is algebraic)
    ETA      -> theta_c  (CDM velocity: nonzero in this gauge)
    DELTA_C, DELTA_B, THETA_B, F/G/N/Psi blocks as in the synchronous
    layout.

Evolution equations (MB95 eqs. 23, 29-30, 63-64 CN column, 56-57):

    phi' = -H_conf psi + 4 pi G a^2 (rho+p) theta_tot / k^2   (momentum)
    psi  = phi - 12 pi G a^2 (rho+p) sigma_tot / k^2          (shear)
    delta_c' = -theta_c + 3 phi',  theta_c' = -H theta_c + k^2 psi
    delta_b' = -theta_b + 3 phi',
    theta_b' = -H theta_b + cs^2 k^2 delta_b + k^2 psi + R kappa'(th_g - th_b)
    photons/neutrinos: as synchronous but with the metric sources
    (+4 phi' in the monopole, +k^2 psi in the dipole, none at l = 2).

The energy constraint (MB95 23a) is *not* used for evolution; its
residual is exposed as a diagnostic.
"""

from __future__ import annotations

import math

import numpy as np

from ..background import Background
from ..errors import ParameterError
from ..thermo import ThermalHistory
from .state import StateLayout
from .system import PerturbationSystem

__all__ = ["NewtonianPerturbationSystem"]


class NewtonianPerturbationSystem(PerturbationSystem):
    """Conformal-Newtonian-gauge RHS provider for one wavenumber.

    Inherits the background/thermo fast paths and the hierarchy
    coefficient arrays from the synchronous system; every equation that
    differs between the gauges is overridden here.
    """

    #: state slot aliases for readability
    @property
    def PHI(self) -> int:
        return self.layout.H

    @property
    def THETA_C(self) -> int:
        return self.layout.ETA

    # ------------------------------------------------------------------
    # Metric
    # ------------------------------------------------------------------

    def _total_momentum(self, y: np.ndarray, a: float) -> float:
        """4 pi G a^2 (rho + p) theta summed over species [Mpc^-3...]."""
        lo = self.layout
        fg = y[lo.sl_fg]
        nl = y[lo.sl_nl]
        inv_a = 1.0 / a
        inv_a2 = inv_a * inv_a
        theta_g = 0.75 * self.k * fg[1]
        theta_n = 0.75 * self.k * nl[1]
        gdq = 1.5 * (
            (self._gr_c * y[self.THETA_C] + self._gr_b * y[lo.THETA_B])
            * inv_a
            + (4.0 / 3.0) * (self._gr_g * theta_g + self._gr_nl * theta_n)
            * inv_a2
        )
        if self.nq > 0:
            psi_m = lo.psi_matrix(y)
            gdq += 1.5 * self._gr_nu_rel * inv_a2 * self.k * float(
                self._w_q3 @ psi_m[:, 1]
            )
        return gdq

    def _total_shear(self, y: np.ndarray, a: float, sigma_g: float) -> float:
        """4 pi G a^2 (rho + p) sigma summed over species."""
        return self.shear_sum(y, a, sigma_g)

    def potentials(self, y: np.ndarray, a: float, hc: float,
                   sigma_g: float) -> tuple[float, float, float]:
        """(phi, psi, phi') at the current state.

        phi is a dynamical variable; its time derivative comes from the
        *energy* constraint (MB95 eq. 23a),

            phi' = -H psi - (k^2 phi + 4 pi G a^2 delta-rho) / (3 H),

        which makes constraint violations self-damping (a perturbation
        d-phi obeys d-phi' ~ -(H + k^2/3H) d-phi).  The momentum form
        phi' = -H psi + 4 pi G a^2 (rho+p) theta / k^2 is only neutrally
        stable and lets superhorizon modes drift; the Poisson form
        k^2 phi = -4 pi G a^2 (comoving delta-rho) suffers a (k tau)^-2
        cancellation.  Its residual is exposed as the diagnostic.
        """
        phi = y[self.PHI]
        psi = phi - 3.0 * self._total_shear(y, a, sigma_g) / self.k2
        # Blend the two constraint forms: energy form on superhorizon
        # scales (its -k^2 phi/3H term damps drift but is stiff for
        # k >> H), momentum form inside the horizon (non-stiff; the
        # cancellation it suffers from is only delicate outside).
        w = 9.0 * hc * hc / (9.0 * hc * hc + self.k2)
        phi_dot = -hc * psi
        if w > 1e-12:
            gdrho = self._delta_rho(y, a)
            phi_dot += -w * (self.k2 * phi + gdrho) / (3.0 * hc)
        if w < 1.0 - 1e-12:
            phi_dot += (1.0 - w) * self._total_momentum(y, a) / self.k2
        return phi, psi, phi_dot

    def energy_constraint_residual(self, y: np.ndarray) -> float:
        """Momentum-constraint residual (MB95 23b), relative.

        k^2 (phi' + H psi) = 4 pi G a^2 (rho+p) theta for the exact
        solution; returns the violation in units of the largest term.
        A diagnostic of integration quality, not used in evolution.
        """
        lo = self.layout
        a = y[lo.A]
        hc = self.conformal_hubble(a)
        sigma_g = 0.5 * y[lo.sl_fg][2]
        _, psi, phi_dot = self.potentials(y, a, hc, sigma_g)
        gdq = self._total_momentum(y, a)
        t1 = self.k2 * (phi_dot + hc * psi)
        t2 = gdq
        scale = max(abs(t1), abs(t2), 1e-300)
        return (t1 - t2) / scale

    def _delta_rho(self, y: np.ndarray, a: float) -> float:
        """4 pi G a^2 delta-rho in this gauge."""
        lo = self.layout
        fg = y[lo.sl_fg]
        nl = y[lo.sl_nl]
        inv_a = 1.0 / a
        inv_a2 = inv_a * inv_a
        gdrho = 1.5 * (
            (self._gr_c * y[lo.DELTA_C] + self._gr_b * y[lo.DELTA_B]) * inv_a
            + (self._gr_g * fg[0] + self._gr_nl * nl[0]) * inv_a2
        )
        if self.nq > 0:
            psi_m = lo.psi_matrix(y)
            eps = np.sqrt(self.q_nodes**2 + (a * self._x0) ** 2)
            gdrho += 1.5 * self._gr_nu_rel * inv_a2 * float(
                (self._w_rho * eps) @ psi_m[:, 0]
            )
        return gdrho

    # ------------------------------------------------------------------
    # Sector fillers (CN metric sources)
    # ------------------------------------------------------------------

    def _fill_neutrinos_cn(self, y, dy, tau, phi_dot, psi):
        # gauge-independent interior + closure come from the synchronous
        # system; only the CN metric sources live here
        self.neutrino_advect(y, dy, tau)
        lo = self.layout
        nl = y[lo.sl_nl]
        dnl = dy[lo.sl_nl]
        k = self.k
        dnl[0] = -k * nl[1] + 4.0 * phi_dot
        dnl[1] += (4.0 / (3.0 * k)) * self.k2 * psi  # theta' += k^2 psi

    def _fill_massive_nu_cn(self, y, dy, tau, a, phi_dot, psi):
        lo = self.layout
        if lo.nq == 0:
            return
        eps = self.nu_eps(a)
        psi_m, dpsi, qk_eps = self.massive_nu_advect(y, dy, tau, eps)
        # MB95 eq. (56), CN gauge metric sources
        dpsi[:, 0] = -qk_eps * psi_m[:, 1] - phi_dot * self._dlnf
        dpsi[:, 1] += -(eps * self.k / (3.0 * self.q_nodes)) * psi * self._dlnf

    # ------------------------------------------------------------------
    # Full RHS
    # ------------------------------------------------------------------

    def rhs_full(self, tau: float, y: np.ndarray) -> np.ndarray:
        lo = self.layout
        dy = self._dy
        dy[:] = 0.0
        a = y[lo.A]
        hc = self.conformal_hubble(a)
        lna = math.log(a)
        kappa_dot = math.exp(self._ln_kap_spline(lna))
        cs2 = math.exp(self._ln_cs2_spline(lna))
        k = self.k
        k2 = self.k2

        dy[lo.A] = a * hc

        fg = y[lo.sl_fg]
        sigma_g = 0.5 * fg[2]
        phi, psi, phi_dot = self.potentials(y, a, hc, sigma_g)
        dy[self.PHI] = phi_dot

        theta_b = y[lo.THETA_B]
        theta_c = y[self.THETA_C]
        theta_g = 0.75 * k * fg[1]
        r = self._r_coef / a

        dy[lo.DELTA_C] = -theta_c + 3.0 * phi_dot
        dy[self.THETA_C] = -hc * theta_c + k2 * psi
        dy[lo.DELTA_B] = -theta_b + 3.0 * phi_dot
        dy[lo.THETA_B] = (
            -hc * theta_b
            + cs2 * k2 * y[lo.DELTA_B]
            + k2 * psi
            + r * kappa_dot * (theta_g - theta_b)
        )

        # Photon temperature + polarization: all gauge-independent
        # couplings (advection, Thomson damping, closures, the full
        # polarization block) come from the synchronous system's helper;
        # the CN metric sources and baryon coupling are local.  No
        # quadrupole metric source in this gauge.
        dfg = dy[lo.sl_fg]
        pi_pol = self.photon_shared(tau, y, dy, kappa_dot)
        dfg[0] = -k * fg[1] + 4.0 * phi_dot
        dfg[1] += (4.0 / (3.0 * k)) * k2 * psi + kappa_dot * (
            (4.0 / (3.0 * k)) * theta_b - fg[1]
        )
        dfg[2] += kappa_dot * (0.1 * pi_pol - fg[2])

        self._fill_neutrinos_cn(y, dy, tau, phi_dot, psi)
        self._fill_massive_nu_cn(y, dy, tau, a, phi_dot, psi)
        return dy

    # ------------------------------------------------------------------
    # Tight-coupling RHS
    # ------------------------------------------------------------------

    def sigma_gamma_tca_cn(self, theta_g: float, kappa_dot: float) -> float:
        """Quasi-static photon shear in CN gauge: (16/45) theta_g/kappa'."""
        return (16.0 / 45.0) * theta_g / kappa_dot

    def rhs_tca(self, tau: float, y: np.ndarray) -> np.ndarray:
        lo = self.layout
        dy = self._dy
        dy[:] = 0.0
        a = y[lo.A]
        hc = self.conformal_hubble(a)
        lna = math.log(a)
        kappa_dot = math.exp(self._ln_kap_spline(lna))
        cs2 = math.exp(self._ln_cs2_spline(lna))
        k = self.k
        k2 = self.k2

        dy[lo.A] = a * hc

        fg = y[lo.sl_fg]
        delta_g = fg[0]
        theta_g = 0.75 * k * fg[1]
        delta_b = y[lo.DELTA_B]
        theta_b = y[lo.THETA_B]
        theta_c = y[self.THETA_C]
        r = self._r_coef / a

        sigma_g = self.sigma_gamma_tca_cn(theta_g, kappa_dot)
        phi, psi, phi_dot = self.potentials(y, a, hc, sigma_g)
        dy[self.PHI] = phi_dot

        ddelta_b = -theta_b + 3.0 * phi_dot
        ddelta_g = -(4.0 / 3.0) * theta_g + 4.0 * phi_dot

        addot_a = -0.5 * (self._grho83(a) + 3.0 * self._gpres83(a)) + hc * hc
        # MB95 eq. (75), CN-gauge form (extra -H k^2 psi from the common
        # gravitational acceleration inside -H theta_b-dot)
        slip = (2.0 * r / (1.0 + r)) * hc * (theta_b - theta_g) + (
            1.0 / (kappa_dot * (1.0 + r))
        ) * (
            -addot_a * theta_b
            - hc * k2 * (0.5 * delta_g + psi)
            + k2 * (cs2 * ddelta_b - 0.25 * ddelta_g)
        )

        dtheta_b = (
            -hc * theta_b
            + cs2 * k2 * delta_b
            + r * (k2 * (0.25 * delta_g - sigma_g))
            + r * slip
        ) / (1.0 + r) + k2 * psi
        dtheta_g = dtheta_b - slip

        dy[lo.DELTA_C] = -theta_c + 3.0 * phi_dot
        dy[self.THETA_C] = -hc * theta_c + k2 * psi
        dy[lo.DELTA_B] = ddelta_b
        dy[lo.THETA_B] = dtheta_b
        dfg = dy[lo.sl_fg]
        dfg[0] = ddelta_g
        dfg[1] = (4.0 / (3.0 * k)) * dtheta_g

        self._fill_neutrinos_cn(y, dy, tau, phi_dot, psi)
        self._fill_massive_nu_cn(y, dy, tau, a, phi_dot, psi)
        return dy

    def initialize_full_from_tca(self, y: np.ndarray, tau: float) -> None:
        lo = self.layout
        a = y[lo.A]
        kappa_dot = math.exp(self._ln_kap_spline(math.log(a)))
        theta_g = 0.75 * self.k * y[lo.sl_fg][1]
        sigma_g = self.sigma_gamma_tca_cn(theta_g, kappa_dot)
        fg = y[lo.sl_fg]
        gg = y[lo.sl_gg]
        fg[2] = 2.0 * sigma_g
        fg[3:] = 0.0
        gg[:] = 0.0
        gg[0] = 1.25 * fg[2]
        gg[2] = 0.25 * fg[2]
