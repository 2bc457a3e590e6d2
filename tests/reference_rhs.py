"""Frozen legacy per-term RHS: the pre-operator PerturbationSystem.

A verbatim copy of ``repro.perturbations.system`` as it stood before the
coefficient-driven operator refactor (PR 7), kept as the *reference
implementation* the property tests compare against: the operator-driven
scalar and lane kernels must reproduce this per-term assembly bitwise
on the python kernel.  Do not "fix" or modernise this file — its value
is that it does not change.
"""


from __future__ import annotations

import math

import numpy as np

from repro.background import Background, dlnf0_dlnq, fermi_dirac_f0
from repro.background.nu_massive import I_RHO_MASSLESS, momentum_grid
from repro.errors import ParameterError
from repro.params import CosmologyParams
from repro.thermo import ThermalHistory
from repro.util.fastspline import UniformGridCubic
from repro.perturbations.state import StateLayout

__all__ = ["ReferencePerturbationSystem"]


class ReferencePerturbationSystem:
    """RHS provider for one comoving wavenumber.

    Parameters
    ----------
    background, thermo:
        Precomputed background / thermal history (shared across modes).
    k:
        Comoving wavenumber [Mpc^-1].
    layout:
        The state-vector layout (multipole cutoffs, momentum nodes).
    q_max:
        Upper edge of the massive-neutrino momentum grid (units of
        T_nu0).
    """

    def __init__(
        self,
        background: Background,
        thermo: ThermalHistory,
        k: float,
        layout: StateLayout,
        q_max: float = 18.0,
    ) -> None:
        if k <= 0.0:
            raise ParameterError("k must be positive")
        p: CosmologyParams = background.params
        self.params = p
        self.background = background
        self.thermo = thermo
        self.k = float(k)
        self.k2 = self.k * self.k
        self.layout = layout

        h0sq = p.h0_mpc**2
        # (8 pi G / 3) a^2 rho_i prefactors (divide by the a-scaling at
        # run time): grho83_i = pref_i / a^n.
        self._gr_m = h0sq * (p.omega_c + p.omega_b)
        self._gr_c = h0sq * p.omega_c
        self._gr_b = h0sq * p.omega_b
        self._gr_g = h0sq * p.omega_gamma
        self._gr_nl = h0sq * p.omega_nu_massless
        self._gr_lam = h0sq * p.omega_lambda
        self._gr_k = h0sq * p.omega_k
        self._r_coef = 4.0 * p.omega_gamma / (3.0 * p.omega_b)  # R = _r_coef/a

        # Fast thermo lookups on the (uniform) ln-a grid:
        # kappa' = xe * n_H0 sigma_T Mpc / a^2 and the baryon sound speed.
        lna = thermo._lna
        kap = thermo._opacity_from_xe(thermo._a, thermo._x_e_table)
        self._ln_kap_spline = UniformGridCubic(lna, np.log(np.maximum(kap, 1e-300)))
        self._ln_cs2_spline = UniformGridCubic(lna, thermo._ln_cs2_spline._y)

        # Massive neutrinos ------------------------------------------------
        self.nq = layout.nq
        if self.nq > 0:
            if background.nu_tables is None:
                raise ParameterError(
                    "layout has a massive sector but the background has no "
                    "massive neutrinos"
                )
            self._gr_nu_rel = (
                h0sq
                * p.n_nu_massive
                * (7.0 / 8.0)
                * (4.0 / 11.0) ** (4.0 / 3.0)
                * p.omega_gamma
            )
            self._x0 = background.nu_tables.x0
            q, w = momentum_grid(self.nq, q_max=q_max)
            self.q_nodes = q
            f0 = fermi_dirac_f0(q)
            self._dlnf = dlnf0_dlnq(q)
            self._w_rho = w * q**2 * f0 / I_RHO_MASSLESS
            self._w_q3 = w * q**3 * f0 / I_RHO_MASSLESS
            self._w_q4 = w * q**4 * f0 / I_RHO_MASSLESS
            # uniform-in-ln(x) background factor splines
            tab = background.nu_tables
            self._rho_fac = UniformGridCubic(tab._lnx, tab._log_rho)
            self._p_fac = UniformGridCubic(tab._lnx, tab._log_p)
            lm = layout.lmax_massive_nu
            ell = np.arange(lm + 1, dtype=float)
            self._mnu_lo = ell / (2.0 * ell + 1.0)
            self._mnu_hi = (ell + 1.0) / (2.0 * ell + 1.0)
        else:
            self._gr_nu_rel = 0.0
            self.q_nodes = np.empty(0)

        # Hierarchy advection coefficients (include the factor k).
        lg = layout.lmax_photon
        ell = np.arange(lg + 1, dtype=float)
        self._g_lo = self.k * ell / (2.0 * ell + 1.0)
        self._g_hi = self.k * (ell + 1.0) / (2.0 * ell + 1.0)
        ln = layout.lmax_nu
        ell = np.arange(ln + 1, dtype=float)
        self._n_lo = self.k * ell / (2.0 * ell + 1.0)
        self._n_hi = self.k * (ell + 1.0) / (2.0 * ell + 1.0)

        self._dy = np.zeros(layout.n_state)

    # ------------------------------------------------------------------
    # Background pieces (scalar, hot path)
    # ------------------------------------------------------------------

    def _grho83(self, a: float) -> float:
        """(8 pi G / 3) a^2 rho_total [Mpc^-2]."""
        g = (
            self._gr_m / a
            + (self._gr_g + self._gr_nl) / (a * a)
            + self._gr_lam * a * a
        )
        if self.nq > 0:
            g += self._gr_nu_rel / (a * a) * self._rho_factor(a)
        return g

    def _rho_factor(self, a: float) -> float:
        return math.exp(self._rho_fac(math.log(a * self._x0))) / I_RHO_MASSLESS

    def _pressure_factor(self, a: float) -> float:
        return 3.0 * math.exp(self._p_fac(math.log(a * self._x0))) / I_RHO_MASSLESS

    def _gpres83(self, a: float) -> float:
        """(8 pi G / 3) a^2 p_total [Mpc^-2]."""
        g = (self._gr_g + self._gr_nl) / (3.0 * a * a) - self._gr_lam * a * a
        if self.nq > 0:
            g += (
                self._gr_nu_rel
                / (a * a)
                * self._pressure_factor(a)
                / 3.0
            )
        return g

    def conformal_hubble(self, a: float) -> float:
        return math.sqrt(self._grho83(a) + self._gr_k)

    def opacity(self, a: float) -> float:
        """Thomson opacity kappa' [Mpc^-1] (fast scalar path)."""
        return math.exp(self._ln_kap_spline(math.log(a)))

    def cs2(self, a: float) -> float:
        return math.exp(self._ln_cs2_spline(math.log(a)))

    # ------------------------------------------------------------------
    # Shared source sums
    # ------------------------------------------------------------------

    def nu_eps(self, a: float) -> np.ndarray | None:
        """Comoving energy eps = sqrt(q^2 + (a m/T)^2) per momentum node.

        Every massive-neutrino source sum needs this; the RHS computes
        it once per call and passes it down instead of re-evaluating the
        sqrt in each sector.
        """
        if self.nq == 0:
            return None
        return np.sqrt(self.q_nodes**2 + (a * self._x0) ** 2)

    def _metric_sources(self, y: np.ndarray, a: float, hc: float,
                        eps: np.ndarray | None = None):
        """hdot and etadot from the Einstein constraint equations.

        Returns (hdot, etadot, gdrho, gdq) where gdrho = 4 pi G a^2
        delta rho and gdq = 4 pi G a^2 (rho + p) theta.
        """
        lo = self.layout
        fg = y[lo.sl_fg]
        nl = y[lo.sl_nl]
        inv_a = 1.0 / a
        inv_a2 = inv_a * inv_a
        gdrho = 1.5 * (
            (self._gr_c * y[lo.DELTA_C] + self._gr_b * y[lo.DELTA_B]) * inv_a
            + (self._gr_g * fg[0] + self._gr_nl * nl[0]) * inv_a2
        )
        theta_g = 0.75 * self.k * fg[1]
        theta_n = 0.75 * self.k * nl[1]
        gdq = 1.5 * (
            self._gr_b * y[lo.THETA_B] * inv_a
            + (4.0 / 3.0) * (self._gr_g * theta_g + self._gr_nl * theta_n) * inv_a2
        )
        if self.nq > 0:
            psi = lo.psi_matrix(y)
            if eps is None:
                eps = self.nu_eps(a)
            gdrho += 1.5 * self._gr_nu_rel * inv_a2 * float(
                (self._w_rho * eps) @ psi[:, 0]
            )
            gdq += 1.5 * self._gr_nu_rel * inv_a2 * self.k * float(
                self._w_q3 @ psi[:, 1]
            )
        hdot = 2.0 * (self.k2 * y[lo.ETA] + gdrho) / hc
        etadot = gdq / self.k2
        return hdot, etadot, gdrho, gdq

    def shear_sum(self, y: np.ndarray, a: float, sigma_g: float,
                  eps: np.ndarray | None = None) -> float:
        """4 pi G a^2 (rho + p) sigma summed over species [Mpc^-2].

        ``sigma_g`` is passed in because its value differs between the
        tight-coupling and full phases.
        """
        lo = self.layout
        inv_a2 = 1.0 / (a * a)
        sigma_n = 0.5 * y[lo.sl_nl][2]
        gshear = 1.5 * (4.0 / 3.0) * (
            self._gr_g * sigma_g + self._gr_nl * sigma_n
        ) * inv_a2
        if self.nq > 0:
            psi = lo.psi_matrix(y)
            if eps is None:
                eps = self.nu_eps(a)
            gshear += 1.5 * self._gr_nu_rel * inv_a2 * (2.0 / 3.0) * float(
                (self._w_q4 / eps) @ psi[:, 2]
            )
        return gshear

    def sigma_gamma_tca(self, theta_g: float, hdot: float, etadot: float,
                        kappa_dot: float) -> float:
        """Quasi-static photon shear in tight coupling (with polarization).

        Derived from the F2/G0/G2 quasi-equilibrium:
        sigma_g = (2/(3 kappa')) [ (8/15) theta_g + (4/15) hdot + (8/5) etadot ].
        """
        return (2.0 / (3.0 * kappa_dot)) * (
            (8.0 / 15.0) * theta_g + (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot
        )

    # ------------------------------------------------------------------
    # Sector fillers (shared by both RHS variants)
    # ------------------------------------------------------------------

    def _fill_neutrinos(self, y, dy, tau, hdot, etadot):
        lo = self.layout
        nl = y[lo.sl_nl]
        dnl = dy[lo.sl_nl]
        lm = lo.lmax_nu
        dnl[1:lm] = self._n_lo[1:lm] * nl[0 : lm - 1] - self._n_hi[1:lm] * nl[2 : lm + 1]
        dnl[0] = -self.k * nl[1] - (2.0 / 3.0) * hdot
        dnl[2] += (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot
        dnl[lm] = self.k * nl[lm - 1] - (lm + 1.0) / tau * nl[lm]

    def _fill_massive_nu(self, y, dy, tau, a, hdot, etadot, eps=None):
        lo = self.layout
        if lo.nq == 0:
            return
        psi = lo.psi_matrix(y)
        dpsi = dy[lo.sl_psi].reshape(lo.nq, lo.lmax_massive_nu + 1)
        lm = lo.lmax_massive_nu
        if eps is None:
            eps = self.nu_eps(a)
        qk_eps = self.k * self.q_nodes / eps  # (nq,)
        dpsi[:, 1:lm] = qk_eps[:, None] * (
            self._mnu_lo[1:lm] * psi[:, 0 : lm - 1]
            - self._mnu_hi[1:lm] * psi[:, 2 : lm + 1]
        )
        dpsi[:, 0] = -qk_eps * psi[:, 1] + (hdot / 6.0) * self._dlnf
        dpsi[:, 2] += -((1.0 / 15.0) * hdot + (2.0 / 5.0) * etadot) * self._dlnf
        dpsi[:, lm] = qk_eps * psi[:, lm - 1] - (lm + 1.0) / tau * psi[:, lm]

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
        eps = self.nu_eps(a)

        dy[lo.A] = a * hc
        hdot, etadot, _, _ = self._metric_sources(y, a, hc, eps=eps)
        dy[lo.H] = hdot
        dy[lo.ETA] = etadot

        # CDM and baryons
        fg = y[lo.sl_fg]
        gg = y[lo.sl_gg]
        theta_b = y[lo.THETA_B]
        theta_g = 0.75 * k * fg[1]
        r = self._r_coef / a
        dy[lo.DELTA_C] = -0.5 * hdot
        dy[lo.DELTA_B] = -theta_b - 0.5 * hdot
        dy[lo.THETA_B] = (
            -hc * theta_b
            + cs2 * self.k2 * y[lo.DELTA_B]
            + r * kappa_dot * (theta_g - theta_b)
        )

        # Photon temperature hierarchy
        dfg = dy[lo.sl_fg]
        lg = lo.lmax_photon
        dfg[1:lg] = self._g_lo[1:lg] * fg[0 : lg - 1] - self._g_hi[1:lg] * fg[2 : lg + 1]
        dfg[3:lg] -= kappa_dot * fg[3:lg]
        pi_pol = fg[2] + gg[0] + gg[2]
        dfg[0] = -k * fg[1] - (2.0 / 3.0) * hdot
        dfg[1] += kappa_dot * ((4.0 / (3.0 * k)) * theta_b - fg[1])
        dfg[2] += (
            (4.0 / 15.0) * hdot
            + (8.0 / 5.0) * etadot
            + kappa_dot * (0.1 * pi_pol - fg[2])
        )
        dfg[lg] = k * fg[lg - 1] - (lg + 1.0) / tau * fg[lg] - kappa_dot * fg[lg]

        # Photon polarization hierarchy
        dgg = dy[lo.sl_gg]
        dgg[1:lg] = self._g_lo[1:lg] * gg[0 : lg - 1] - self._g_hi[1:lg] * gg[2 : lg + 1]
        dgg[0] = -k * gg[1]
        dgg[0:lg] -= kappa_dot * gg[0:lg]
        dgg[0] += 0.5 * kappa_dot * pi_pol
        dgg[2] += 0.1 * kappa_dot * pi_pol
        dgg[lg] = k * gg[lg - 1] - (lg + 1.0) / tau * gg[lg] - kappa_dot * gg[lg]

        self._fill_neutrinos(y, dy, tau, hdot, etadot)
        self._fill_massive_nu(y, dy, tau, a, hdot, etadot, eps=eps)
        return dy

    # ------------------------------------------------------------------
    # Tight-coupling RHS
    # ------------------------------------------------------------------

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
        eps = self.nu_eps(a)

        dy[lo.A] = a * hc
        hdot, etadot, _, _ = self._metric_sources(y, a, hc, eps=eps)
        dy[lo.H] = hdot
        dy[lo.ETA] = etadot

        fg = y[lo.sl_fg]
        delta_g = fg[0]
        theta_g = 0.75 * k * fg[1]
        delta_b = y[lo.DELTA_B]
        theta_b = y[lo.THETA_B]
        r = self._r_coef / a

        sigma_g = self.sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot)
        ddelta_b = -theta_b - 0.5 * hdot
        ddelta_g = -(4.0 / 3.0) * theta_g - (2.0 / 3.0) * hdot

        # MB95 eq. (75): first-order slip theta_b' - theta_g'
        addot_a = (
            -0.5 * (self._grho83(a) + 3.0 * self._gpres83(a)) + hc * hc
        )
        slip = (2.0 * r / (1.0 + r)) * hc * (theta_b - theta_g) + (
            1.0 / (kappa_dot * (1.0 + r))
        ) * (
            -addot_a * theta_b
            - hc * k2 * 0.5 * delta_g
            + k2 * (cs2 * ddelta_b - 0.25 * ddelta_g)
        )

        # MB95 eq. (74): combined momentum equation + slip
        dtheta_b = (
            -hc * theta_b
            + cs2 * k2 * delta_b
            + r * (k2 * (0.25 * delta_g - sigma_g))
            + r * slip
        ) / (1.0 + r)
        dtheta_g = dtheta_b - slip

        dy[lo.DELTA_C] = -0.5 * hdot
        dy[lo.DELTA_B] = ddelta_b
        dy[lo.THETA_B] = dtheta_b
        dfg = dy[lo.sl_fg]
        dfg[0] = ddelta_g
        dfg[1] = (4.0 / (3.0 * k)) * dtheta_g
        # F_(l>=2) and polarization are algebraically slaved; their state
        # entries are synchronized at the hand-off to the full RHS.

        self._fill_neutrinos(y, dy, tau, hdot, etadot)
        self._fill_massive_nu(y, dy, tau, a, hdot, etadot, eps=eps)
        return dy

    # ------------------------------------------------------------------
    # Hand-off
    # ------------------------------------------------------------------

    def initialize_full_from_tca(self, y: np.ndarray, tau: float) -> None:
        """Populate the slaved moments when leaving tight coupling.

        Sets F2 to the quasi-static shear and the polarization moments
        to their tight-coupling equilibrium values
        G0 = (5/4) F2, G2 = (1/4) F2 (from Pi = 5/2 F2).
        """
        lo = self.layout
        a = y[lo.A]
        hc = self.conformal_hubble(a)
        kappa_dot = math.exp(self._ln_kap_spline(math.log(a)))
        hdot, etadot, _, _ = self._metric_sources(y, a, hc)
        theta_g = 0.75 * self.k * y[lo.sl_fg][1]
        sigma_g = self.sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot)
        fg = y[lo.sl_fg]
        gg = y[lo.sl_gg]
        fg[2] = 2.0 * sigma_g
        fg[3:] = 0.0
        gg[:] = 0.0
        gg[0] = 1.25 * fg[2]
        gg[2] = 0.25 * fg[2]
