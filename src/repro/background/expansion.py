"""The FRW expansion history.

:class:`Background` precomputes everything the perturbation integrator
needs from the zeroth-order cosmology: the conformal Hubble rate and its
time derivative, the conformal-time <-> scale-factor mapping, and the
per-component ``(8 pi G / 3) a^2 rho`` terms that source the Einstein
equations.

Conventions: scale factor ``a = 1`` today, conformal time ``tau`` in
Mpc (c = 1), all rates in Mpc^-1.  The quantity ``grho`` denotes
``(8 pi G / 3) a^2 rho`` in Mpc^-2, so the Friedmann equation reads
``H_conf^2 = grho + H0^2 Omega_k``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from ..params import CosmologyParams
from ..util.fastspline import fit_cubic
from .nu_massive import MassiveNuTables, solve_mass_parameter

__all__ = ["Background"]


class Background:
    """Precomputed background expansion for a given cosmology.

    Parameters
    ----------
    params:
        The cosmological model.
    a_min:
        Earliest scale factor tabulated (deep radiation era).
    n_grid:
        Number of log-spaced grid points for the tau(a) table.
    """

    def __init__(
        self,
        params: CosmologyParams,
        a_min: float = 1.0e-10,
        n_grid: int = 4000,
    ) -> None:
        if not 0.0 < a_min < 1.0e-4:
            raise ParameterError("a_min must be tiny and positive")
        self.a_min = a_min
        # the model and today's (8 pi G / 3) rho_i per component, which
        # grho_components only has to scale with a
        self.params = p = params
        h0sq = p.h0_mpc**2
        # massless-equivalent density of the massive species
        self._omega_nu_rel_equiv = 0.0
        if p.omega_nu > 0.0:
            self._omega_nu_rel_equiv = (
                p.n_nu_massive
                * (7.0 / 8.0)
                * (4.0 / 11.0) ** (4.0 / 3.0)
                * p.omega_gamma
            )
        self._grho_today = {
            "cdm": h0sq * p.omega_c,
            "baryon": h0sq * p.omega_b,
            "photon": h0sq * p.omega_gamma,
            "nu_massless": h0sq * p.omega_nu_massless,
            "lambda": h0sq * p.omega_lambda,
            "nu_massive": h0sq * self._omega_nu_rel_equiv,
            "curvature": h0sq * p.omega_k,
        }
        # Massive neutrinos: solve the mass parameter and build splined
        # energy/pressure integrals.
        self.nu_tables: MassiveNuTables | None = None
        if params.omega_nu > 0.0:
            x0 = solve_mass_parameter(params.omega_nu, self._omega_nu_rel_equiv)
            self.nu_tables = MassiveNuTables.build(x0)

        self._build_time_table(n_grid)

    # ------------------------------------------------------------------
    # Densities and pressures
    # ------------------------------------------------------------------

    def grho_components(self, a):
        """Per-component (8 pi G / 3) a^2 rho_i in Mpc^-2.

        Returns a dict with keys ``cdm, baryon, photon, nu_massless,
        nu_massive, lambda``.  A python ``float`` in gives python floats
        out, through the same expressions on plain ``math`` (what the
        python reference of the thermal right-hand side asks for, one
        epoch at a time — the compiled ``thermo_rhs`` is these
        expressions transcribed); anything else is taken as an array.
        """
        if type(a) is not float:
            a = np.asarray(a, dtype=float)
        today = self._grho_today
        a2 = a * a
        out = {
            "cdm": today["cdm"] / a,
            "baryon": today["baryon"] / a,
            "photon": today["photon"] / a2,
            "nu_massless": today["nu_massless"] / a2,
            "lambda": today["lambda"] * a2,
        }
        if self.nu_tables is not None:
            out["nu_massive"] = (
                today["nu_massive"] / a2 * self.nu_tables.rho_factor(a)
            )
        else:
            out["nu_massive"] = 0.0 * a
        return out

    def grho(self, a):
        """(8 pi G / 3) a^2 rho_total in Mpc^-2: the six components
        added left to right.  Written out, because the builtin ``sum``
        compensates a sum of floats from Python 3.12 on (Neumaier): H(a)
        of a float would then differ in the last bit between
        interpreters, from its own array path and from the compiled
        ``thermo_rhs``, which adds them as written here."""
        c = self.grho_components(a)
        return (c["cdm"] + c["baryon"] + c["photon"] + c["nu_massless"]
                + c["lambda"] + c["nu_massive"])

    def gpres(self, a):
        """(8 pi G / 3) a^2 p_total in Mpc^-2."""
        p = self.params
        a = np.asarray(a, dtype=float)
        h0sq = p.h0_mpc**2
        rad = h0sq * (p.omega_gamma + p.omega_nu_massless) / a**2
        out = rad / 3.0 - h0sq * p.omega_lambda * a**2
        if self.nu_tables is not None:
            rho_rel = h0sq * self._omega_nu_rel_equiv / a**2
            out = out + rho_rel * self.nu_tables.pressure_factor(a) / 3.0
        return out

    # ------------------------------------------------------------------
    # Expansion rates
    # ------------------------------------------------------------------

    def conformal_hubble(self, a):
        """H_conf = a'/a = a H(a) in Mpc^-1 (python float for a python
        float, see :meth:`grho_components`)."""
        hc2 = self.grho(a) + self._grho_today["curvature"]
        return math.sqrt(hc2) if type(hc2) is float else np.sqrt(hc2)

    def hubble(self, a):
        """Proper Hubble rate H(a) in Mpc^-1."""
        return self.conformal_hubble(a) / a

    def dconformal_hubble_dtau(self, a):
        """d(H_conf)/dtau = -(1/2)(grho + 3 gpres)  [Mpc^-2]."""
        return -0.5 * (self.grho(a) + 3.0 * self.gpres(a))

    def addot_over_a(self, a):
        """a''/a in conformal time = H_conf' + H_conf^2  [Mpc^-2].

        This is the (a-double-dot over a) combination appearing in the
        tight-coupling slip equation (Ma & Bertschinger eq. 75).
        """
        return self.dconformal_hubble_dtau(a) + self.conformal_hubble(a) ** 2

    # ------------------------------------------------------------------
    # Conformal time
    # ------------------------------------------------------------------

    def _build_time_table(self, n_grid: int) -> None:
        p = self.params
        lna = np.linspace(math.log(self.a_min), 0.0, n_grid)
        a = np.exp(lna)
        inv_hc = 1.0 / self.conformal_hubble(a)

        # Radiation-era analytic anchor: tau = a / (H0 sqrt(Omega_r,early)),
        # where Omega_r,early counts the massive species as relativistic.
        omega_r_early = p.omega_gamma + (
            p.n_nu_massless + p.n_nu_massive
        ) * (7.0 / 8.0) * (4.0 / 11.0) ** (4.0 / 3.0) * p.omega_gamma
        tau_start = self.a_min / (p.h0_mpc * math.sqrt(omega_r_early))

        # dtau = dln a / H_conf, cumulative trapezoid on the log grid.
        dlna = lna[1] - lna[0]
        increments = 0.5 * (inv_hc[1:] + inv_hc[:-1]) * dlna
        tau = np.empty_like(a)
        tau[0] = tau_start
        np.cumsum(increments, out=tau[1:])
        tau[1:] += tau_start

        self._tau_grid = tau
        self._ln_tau_of_lna = fit_cubic(lna, np.log(tau))
        self._lna_of_ln_tau = fit_cubic(np.log(tau), lna)
        self.tau0 = float(tau[-1])

    def conformal_time(self, a):
        """tau(a) in Mpc."""
        a = np.asarray(a, dtype=float)
        if np.any(a < self.a_min) or np.any(a > 1.0 + 1e-12):
            raise ParameterError(
                f"a outside tabulated range [{self.a_min}, 1]"
            )
        return np.exp(self._ln_tau_of_lna(np.log(a)))

    def a_of_tau(self, tau):
        """Scale factor a(tau); inverse of :meth:`conformal_time`."""
        tau = np.asarray(tau, dtype=float)
        tau_min = float(self._tau_grid[0])
        if np.any(tau < tau_min * 0.999) or np.any(tau > self.tau0 * (1 + 1e-10)):
            raise ParameterError("tau outside tabulated range")
        return np.exp(self._lna_of_ln_tau(np.log(tau)))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def a_equality_exact(self) -> float:
        """Scale factor where grho(radiation) = grho(matter), by bisection."""

        def excess(a: float) -> float:
            comps = self.grho_components(a)
            rad = comps["photon"] + comps["nu_massless"]
            mat = comps["cdm"] + comps["baryon"]
            # massive neutrinos counted on whichever side dominates their eos
            return float(rad - mat)

        lo, hi = self.a_min * 10.0, 1.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if excess(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)
