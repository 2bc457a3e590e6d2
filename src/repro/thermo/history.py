"""Precomputed thermal history of the photon-baryon plasma.

:class:`ThermalHistory` integrates the ionization history (Saha for
helium and early hydrogen, Peebles for hydrogen recombination) together
with the baryon temperature equation, then tabulates and splines every
quantity the Boltzmann integrator needs:

* ``x_e(a)``         free-electron fraction per hydrogen nucleus,
* ``opacity(a)``     Thomson opacity  kappa' = a n_e sigma_T  [Mpc^-1],
* ``optical_depth(tau)`` and ``visibility(tau) = kappa' e^-kappa``,
* ``t_baryon(a)``    baryon temperature [K],
* ``cs2(a)``         baryon sound speed squared (c = 1 units).

The visibility function and its first two conformal-time derivatives
are exposed through cubic splines so the line-of-sight source term can
be evaluated smoothly.

A build fits eagerly only what every run reads: the ln T_b spline, the
ln kappa' / ln cs^2 pair behind the Boltzmann right-hand side
(``_rhs_pack``), the conformal-time grid and the recombination and
reionization epochs.  The line-of-sight splines (optical depth,
visibility and its two derivatives, e^-kappa) and the x_e spline are
fitted from retained arrays the first time an evaluator asks for them:
hierarchy runs never do.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .. import _cext
from .. import constants as const
from ..background import Background
from ..background.nu_massive import I_RHO_MASSLESS
from ..errors import IntegrationError
from ..util.fastspline import PiecewiseCubic, UniformGridCubic, fit_cubic
from . import radau, recombination
from .recombination import (
    _saha_factor,
    _saha_sweeps,
    peebles_rhs,
    saha_electron_fraction,
)

__all__ = ["ThermalHistory"]

#: Rows the Saha pre-pass sweeps past the first one whose hydrogen-only
#: bound is below the switch, in case the bound and the swept x_H round
#: apart there (1 - x_H grows 11 % a row at the switch, so one would do)
_SWITCH_MARGIN = 4


def _saha_before_switch(
    t_kelvin: np.ndarray, n_h_cgs: np.ndarray, f_he: float,
    saha_switch: float,
) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """The Saha pre-pass: :func:`_saha_sweeps` on the rows that can
    precede the first x_H below ``saha_switch``.

    The hydrogen-only root ``lo`` (the sweeps' start) bounds the Saha
    x_H from above, because helium only adds electrons (x_e >= lo, and
    x_H = s_h / (x_e + s_h) <= s_h / (lo + s_h) = lo).  So past the first
    row with ``lo`` below the switch no row can be the first x_H below
    it, and those rows — which the ODE overwrites — are not swept.  The
    root solves lo^2 = s_h (1 - lo) and rises with s_h, so
    ``lo < saha_switch`` is read off s_h itself as
    ``s_h (1 - saha_switch) < saha_switch**2``: no root to form, and no
    0/0 where s_h underflows (neutral hydrogen, x_H = 0, which passes
    the test as it should).  A point's result does not depend on which
    others share its sweeps, so rows ``[:i_switch]`` are the whole
    grid's; if the prefix holds no switch after all, the rest is swept
    too and ``i_switch`` stays exact.

    Returns ``(x_e, x_h, i_switch, sweeps, rows)``: grid-length
    fractions whose rows from ``i_switch`` on are the caller's to
    overwrite, the first row below the switch, the sweeps the slowest
    swept row needed and how many rows were swept.
    """
    n = t_kelvin.size
    s_h = _saha_factor(t_kelvin, const.E_ION_H) / n_h_cgs
    past = s_h * (1.0 - saha_switch) < saha_switch**2
    first = int(np.argmax(past))
    rows = min(first + 1 + _SWITCH_MARGIN, n) if past[first] else n

    x_e, x_h = np.empty(n), np.empty(n)
    x_e[:rows], x_h[:rows], _, _, sweeps = _saha_sweeps(
        t_kelvin[:rows], n_h_cgs[:rows], f_he, s_h[:rows])
    below = x_h[:rows] < saha_switch
    if not below.any() and rows < n:
        x_e[rows:], x_h[rows:], _, _, more = _saha_sweeps(
            t_kelvin[rows:], n_h_cgs[rows:], f_he, s_h[rows:])
        sweeps, rows = max(sweeps, more), n
        below = x_h < saha_switch
    if not below.any():
        raise IntegrationError("hydrogen never left Saha equilibrium")
    return x_e, x_h, int(np.argmax(below)), sweeps, rows


class ThermalHistory:
    """Ionization and temperature history for a given background.

    Parameters
    ----------
    background:
        The precomputed FRW background.
    a_start:
        Scale factor at which tabulation begins (must be deep in the
        fully-ionized era).
    n_grid:
        Number of log-a grid points for the tables.
    saha_switch:
        Hydrogen Saha ionization fraction below which the integrator
        switches from Saha equilibrium to the Peebles ODE.
    """

    #: work the ionization solve did (None on a history loaded from
    #: tables); every count repeats exactly for a given cosmology.
    #: ``ode_rhs_compiled`` is how many of the ``ode_rhs_evals`` the
    #: compiled ``thermo_rhs`` made: all of them, or none; ``saha_rows``
    #: how many grid rows the Saha pre-pass swept
    _build_counts: dict[str, int] | None = None

    def __init__(
        self,
        background: Background,
        a_start: float = 1.0e-8,
        n_grid: int = 6000,
        saha_switch: float = 0.985,
        z_reion: float | None = None,
        x_e_reion: float | None = None,
        dz_reion: float = 1.5,
    ) -> None:
        """``z_reion`` switches on instantaneous-ish reionization: the
        electron fraction rises to ``x_e_reion`` (default: fully ionized
        hydrogen + singly ionized helium) over a tanh of width
        ``dz_reion`` centred at ``z_reion``.  The paper's standard-CDM
        run has no reionization; this is the natural extension knob."""
        self.background = background
        self.params = background.params
        self.f_he = self.params.y_he / (4.0 * (1.0 - self.params.y_he))
        self._n_h0 = self.params.n_hydrogen_cgs  # cm^-3 today
        self.z_reion = z_reion
        self.x_e_reion = (
            x_e_reion if x_e_reion is not None else 1.0 + self.f_he
        )
        self.dz_reion = dz_reion
        self._finish(*self._build_ionization(a_start, n_grid, saha_switch))

    # ------------------------------------------------------------------
    # Table round-tripping (precompute cache)
    # ------------------------------------------------------------------

    def to_tables(self) -> dict[str, np.ndarray]:
        """Primitive arrays from which :meth:`from_tables` can rebuild
        this object bit-for-bit.

        Only the ionization solve (Saha walk + Peebles ODE + helium
        recombination) is exported; everything derived is recomputed on
        load by the same deterministic vector code — the T_b, opacity
        and sound-speed splines by :meth:`_finish`, the optical depth,
        visibility, e^-kappa and x_e splines on first use, as on a
        built history — so a round-tripped history evaluates
        identically.
        """
        return {
            "lna": self._lna,
            "x_e": self._x_e_table,
            "x_h": self._x_h_table,
            "t_b": self._t_b_table,
            "z_reion": np.float64(
                np.nan if self.z_reion is None else self.z_reion
            ),
            "x_e_reion": np.float64(self.x_e_reion),
            "dz_reion": np.float64(self.dz_reion),
        }

    @classmethod
    def from_tables(cls, background: Background,
                    tables: dict) -> "ThermalHistory":
        """Rebuild a thermal history from :meth:`to_tables` output.

        ``tables`` may hold ordinary arrays or read-only views; the
        ionization arrays are consumed in place.
        """
        self = cls.__new__(cls)
        self.background = background
        self.params = background.params
        self.f_he = self.params.y_he / (4.0 * (1.0 - self.params.y_he))
        self._n_h0 = self.params.n_hydrogen_cgs
        z_reion = float(tables["z_reion"])
        self.z_reion = None if math.isnan(z_reion) else z_reion
        self.x_e_reion = float(tables["x_e_reion"])
        self.dz_reion = float(tables["dz_reion"])
        self._finish(
            np.asarray(tables["lna"], dtype=float),
            np.asarray(tables["x_e"], dtype=float),
            np.asarray(tables["x_h"], dtype=float),
            np.asarray(tables["t_b"], dtype=float),
        )
        return self

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _rhs(self, lna: float, x_h: float,
             t_b: float) -> tuple[float, float]:
        """ODE right-hand side in ln a for (x_H, T_b).

        The reference of the compiled ``thermo_rhs`` (``repro._cext``),
        which transcribes it and everything it calls grouping for
        grouping and is pinned to it bitwise; the stepper calls that one
        about five thousand times per build, and this one — scalar
        python arithmetic throughout, one state at a time — only in a
        process without the compiled object.
        """
        a = math.exp(lna)
        t_b = max(t_b, 1e-3)
        # proper Hubble rate in s^-1
        h_s = self.background.hubble(a) * const.C_LIGHT / const.MPC_CM
        n_h = self._n_h0 / a**3
        # helium electrons from Saha at the current temperature
        _, _, x_he2, x_he3 = saha_electron_fraction(t_b, n_h, self.f_he)
        x_e = min(max(x_h, 0.0), 1.0) + self.f_he * (x_he2 + 2.0 * x_he3)
        n_e = max(x_e, 1e-12) * n_h

        dxh_dt = peebles_rhs(x_h, t_b, n_h, n_e, h_s)

        # Baryon temperature: adiabatic cooling + Compton heating
        t_g = self.params.t_cmb / a
        compton_prefac = (
            8.0
            * const.SIGMA_THOMSON
            * const.A_RAD
            * t_g**4
            / (3.0 * const.M_ELECTRON * const.C_LIGHT)
        )  # s^-1, multiplies x_e/(1+f_He+x_e) (T_g - T_b)
        dtb_dt = -2.0 * h_s * t_b + compton_prefac * x_e / (
            1.0 + self.f_he + x_e
        ) * (t_g - t_b)

        return dxh_dt / h_s, dtb_dt / h_s

    def _rhs_block(self) -> np.ndarray:
        """The parameter block of the compiled ``thermo_rhs``: everything
        :meth:`_rhs` reads besides the state, in the order the C function
        unpacks it.  Physical constants are :mod:`repro.constants`'; the
        three sub-expressions python raises to a power on every call are
        evaluated here by python's own ``**``, which leaves a compiler no
        ``pow`` of a constant to fold its own way.
        """
        nu = self.background.nu_tables
        if nu is None:
            nu_block = [0.0] * 7
        else:
            knots = nu._log_rho_spline
            nu_block = [nu.x0, nu.x_min, nu.x_max, knots.x0, knots.dx,
                        knots.n, I_RHO_MASSLESS]
        return np.array([
            # cdm, baryon, photon, nu_massless, lambda, nu_massive,
            # curvature: the order Background.grho adds them in
            *self.background._grho_today.values(),
            *nu_block,
            self._n_h0, self.f_he, self.params.t_cmb,
            const.C_LIGHT, const.MPC_CM, const.K_BOLTZMANN,
            const.M_ELECTRON, 2.0 * math.pi * const.HBAR**2,
            const.E_ION_H, const.E_ION_HE1, const.E_ION_HE2,
            const.SIGMA_THOMSON, const.A_RAD, const.LAMBDA_2S_1S,
            (3.0 * const.E_ION_H / (const.HBAR * const.C_LIGHT)) ** 3,
            (8.0 * math.pi) ** 2,
            recombination._SAHA_MAX_ITER,
        ], dtype=float)

    def _compiled_args(self) -> tuple[np.ndarray, np.ndarray | None,
                                      np.ndarray]:
        """What the compiled ``thermo_rhs`` and ``thermo_ode`` take by
        address besides the state: the parameter block, the
        massive-neutrino pack (None without a massive species) and a
        fresh out block (the C source names its six slots)."""
        nu = self.background.nu_tables
        return (self._rhs_block(), None if nu is None else nu._rhs_pack,
                np.zeros(6))

    def _build_ionization(
        self, a_start: float, n_grid: int, saha_switch: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The expensive half of construction: solve the ionization and
        temperature history.  Returns ``(lna, x_e, x_h, t_b)`` — exactly
        what :meth:`to_tables` persists."""
        lna = np.linspace(math.log(a_start), 0.0, n_grid)
        a = np.exp(lna)
        n_h = self._n_h0 / a**3

        # Saha phase: equilibrium at the photon temperature on the rows
        # that can precede the switch; only those before it are kept
        t_b = self.params.t_cmb / a
        x_e, x_h, i_switch, sweeps, saha_rows = _saha_before_switch(
            t_b, n_h, self.f_he, saha_switch)

        # Peebles phase: one solve, output on the grid itself, by the
        # compiled stepper over the compiled right-hand side in a
        # process that has the compiled object and by its python
        # reference over _rhs (which raises where the compiled one
        # latches a status) in one that has not
        rows = np.empty((n_grid - i_switch, 2))
        rows[0] = x_h[i_switch], t_b[i_switch]
        cext = _cext.get_cext()
        if cext is None:
            status, n_rhs, n_steps, n_rejected = radau.integrate(
                self._rhs, lna[i_switch:], rows)
            n_compiled = 0
        else:
            block, nu_pack, out = self._compiled_args()
            status = cext.thermo_ode_raw(
                block.ctypes.data,
                None if nu_pack is None else nu_pack.ctypes.data,
                radau.TABLE.ctypes.data, lna[i_switch:].ctypes.data,
                len(rows), radau.MAX_ATTEMPTS, rows.ctypes.data,
                out.ctypes.data)
            if out[2]:
                raise IntegrationError(
                    "Saha equilibrium did not converge in "
                    f"{recombination._SAHA_MAX_ITER} iterations inside the "
                    "thermal history ODE")
            n_rhs = n_compiled = int(out[3])
            n_steps, n_rejected = int(out[4]), int(out[5])
        if status:
            raise IntegrationError(
                "thermal history ODE failed: "
                + ("step size underflow" if status == 1 else
                   f"no end after {radau.MAX_ATTEMPTS} steps")
                + f" ({n_steps} accepted, {n_rejected} rejected)")
        x_h[i_switch:] = np.clip(rows[:, 0], 0.0, 1.0)
        t_b[i_switch:] = rows[:, 1]

        # helium Saha contribution during/after the switch
        _, _, x_he2, x_he3, more = _saha_sweeps(
            t_b[i_switch:], n_h[i_switch:], self.f_he)
        x_e[i_switch:] = x_h[i_switch:] + self.f_he * (x_he2 + 2.0 * x_he3)
        self._build_counts = {"ode_rhs_evals": n_rhs,
                              "ode_rhs_compiled": n_compiled,
                              "ode_steps": n_steps,
                              "ode_rejected": n_rejected,
                              "saha_sweeps": sweeps + more,
                              "saha_rows": saha_rows}

        # optional reionization: raise x_e to its target over a tanh in z
        if self.z_reion is not None:
            z = 1.0 / a - 1.0
            step = 0.5 * (1.0 + np.tanh((self.z_reion - z) / self.dz_reion))
            x_e = np.maximum(x_e, self.x_e_reion * step)

        return lna, x_e, x_h, t_b

    def _finish(self, lna: np.ndarray, x_e: np.ndarray, x_h: np.ndarray,
                t_b: np.ndarray) -> None:
        """The cheap half, shared by the builder and :meth:`from_tables`:
        derive off the ionization tables what every run reads — the
        conformal-time grid, the kappa, g and e^-kappa arrays, the
        recombination and reionization epochs, the ln T_b spline and the
        ln kappa' / ln cs^2 pair (``_rhs_pack``).  The line-of-sight and
        x_e splines are fitted from the retained arrays on first use
        (the ``cached_property`` fits below), so a run that never
        projects along the line of sight never fits them."""
        a = np.exp(lna)
        self._lna = lna
        self._a = a
        self._x_e_table = x_e
        self._x_h_table = x_h
        self._t_b_table = t_b

        self._t_b_spline = fit_cubic(lna, np.log(np.maximum(t_b, 1e-30)))

        # Opacity, optical depth, visibility on the conformal-time grid
        tau = self.background.conformal_time(a)
        kappa_dot = self._opacity_from_xe(a, x_e)  # Mpc^-1
        # optical depth kappa(tau) = int_tau^tau0 kappa' dtau
        dtau = np.diff(tau)
        seg = 0.5 * (kappa_dot[1:] + kappa_dot[:-1]) * dtau
        kappa = np.concatenate(([0.0], np.cumsum(seg)))  # from a_start forward
        kappa = kappa[-1] - kappa  # measured from today backwards
        exp_mkappa = np.exp(-np.minimum(kappa, 700.0))
        g = kappa_dot * exp_mkappa

        self._tau = tau
        self._kappa = kappa
        self._g = g
        self._exp_mkappa = exp_mkappa

        # Recombination epoch: peak of the visibility function.  With
        # reionization on, restrict the search to z > 100 so the
        # low-redshift rescattering bump cannot steal the peak.
        search = g if self.z_reion is None else np.where(a < 1e-2, g, 0.0)
        i_peak = int(np.argmax(search))
        self.tau_rec = float(tau[i_peak])
        self.a_rec = float(a[i_peak])
        self.z_rec = 1.0 / self.a_rec - 1.0

        # Thomson optical depth through the reionized era: kappa just
        # above the transition (0 without reionization up to the tiny
        # freeze-out residual).
        z_top = 20.0 if self.z_reion is None else (
            self.z_reion + 5.0 * self.dz_reion
        )
        i_top = int(np.searchsorted(a, 1.0 / (1.0 + z_top)))
        self.tau_reion = float(kappa[i_top])

        # Baryon sound speed: cs^2 = kB Tb / (mu mH) (1 - (1/3) dlnTb/dlna),
        # the slope read off the T_b fit at its own knots
        dlntb_dlna = self._t_b_spline.knot_slopes()
        mu = (1.0 + 4.0 * self.f_he) / (1.0 + self.f_he + x_e)
        cs2 = (
            const.K_BOLTZMANN
            * t_b
            / (mu * const.M_HYDROGEN * const.C_LIGHT**2)
            * (1.0 - dlntb_dlna / 3.0)
        )

        # ln kappa' and ln cs^2 on the uniform ln-a grid, fitted once
        # here for every reader: the evaluators below and each mode's
        # BoltzmannOperator, which looks both up at every RHS stage.
        # They share the knot vector, so the operator's lane path and
        # the compiled kernels take the eight coefficient rows packed:
        # one piece index, one gather, both polynomials.
        self._kappa_dot_table = kappa_dot
        # H_conf on the same grid: with kappa' and x_e, all that the
        # tight-coupling exit search of every wavenumber compares
        self._conformal_hubble_table = self.background.conformal_hubble(a)
        self._rhs_pack = np.empty((8, lna.size - 1))
        self._ln_kap_spline = UniformGridCubic(
            lna, np.log(np.maximum(kappa_dot, 1e-300)),
            out=self._rhs_pack[:4])
        self._ln_cs2_spline = UniformGridCubic(
            lna, np.log(np.maximum(cs2, 1e-300)), out=self._rhs_pack[4:])

    def _opacity_from_xe(self, a, x_e):
        """kappa' = a n_e sigma_T in Mpc^-1."""
        return (
            np.asarray(x_e)
            * self._n_h0
            / np.asarray(a) ** 2
            * const.SIGMA_THOMSON
            * const.MPC_CM
        )

    # ------------------------------------------------------------------
    # Fitted on first use (line of sight, x_e), from _finish's arrays
    # ------------------------------------------------------------------

    @cached_property
    def _x_e_spline(self) -> PiecewiseCubic:
        return fit_cubic(self._lna,
                         np.log(np.maximum(self._x_e_table, 1e-30)))

    @cached_property
    def _kappa_spline(self) -> PiecewiseCubic:
        return fit_cubic(self._tau, self._kappa)

    @cached_property
    def _g_spline(self) -> PiecewiseCubic:
        return fit_cubic(self._tau, self._g)

    @cached_property
    def _g_prime_spline(self) -> PiecewiseCubic:
        return self._g_spline.derivative(1)

    @cached_property
    def _g_prime2_spline(self) -> PiecewiseCubic:
        return self._g_spline.derivative(2)

    @cached_property
    def _exp_mkappa_spline(self) -> PiecewiseCubic:
        return fit_cubic(self._tau, self._exp_mkappa)

    # ------------------------------------------------------------------
    # Public evaluators (vectorized over a or tau)
    # ------------------------------------------------------------------

    def x_e(self, a):
        """Free-electron fraction per hydrogen nucleus."""
        return np.exp(self._x_e_spline(np.log(np.asarray(a, dtype=float))))

    def t_baryon(self, a):
        """Baryon temperature [K]."""
        return np.exp(self._t_b_spline(np.log(np.asarray(a, dtype=float))))

    def opacity(self, a):
        """Thomson opacity kappa' = a n_e sigma_T [Mpc^-1]."""
        return np.exp(self._ln_kap_spline.vector(np.log(a)))

    def cs2(self, a):
        """Baryon sound speed squared (units of c^2)."""
        return np.exp(self._ln_cs2_spline.vector(np.log(a)))

    def optical_depth(self, tau):
        """Thomson optical depth from conformal time ``tau`` to today."""
        return self._kappa_spline(np.asarray(tau, dtype=float))

    def visibility(self, tau):
        """g(tau) = kappa' e^-kappa [Mpc^-1]; integrates to ~1 over tau."""
        return np.maximum(self._g_spline(np.asarray(tau, dtype=float)), 0.0)

    def visibility_prime(self, tau):
        """dg/dtau."""
        return self._g_prime_spline(np.asarray(tau, dtype=float))

    def visibility_prime2(self, tau):
        """d^2 g/dtau^2."""
        return self._g_prime2_spline(np.asarray(tau, dtype=float))

    def exp_minus_kappa(self, tau):
        """e^{-kappa(tau)} (the free-streaming damping factor)."""
        return np.clip(self._exp_mkappa_spline(np.asarray(tau, dtype=float)), 0.0, 1.0)
