"""The coefficient-driven Boltzmann operator: assemble once, evaluate fast.

The MB95 synchronous-gauge hierarchy is a sparse, banded linear
operator: the couplings between state entries never change, only a
handful of per-tau coefficients (opacity, sound speed, conformal
Hubble, the metric sources) do.  COSMICS (astro-ph/9506070) and CMBAns
(arXiv:1910.00725) both build their k-loop speedups on exactly this
assembly-vs-evaluate split.  :class:`BoltzmannOperator` makes the split
explicit for this package:

* **assembly** happens once per (layout, wavenumber): the static
  index structure (the fused advection window, the Thomson damping
  window, the advection coefficient table, the frozen state-layout
  offsets) plus the per-tau coefficient *sources*: the
  constant (8 pi G/3) density prefactors, and references to the
  uniform-grid splines for opacity / sound speed / massive-neutrino
  background factors, which depend on the cosmology alone and are
  fitted with the tables (``ThermalHistory``, ``MassiveNuTables``);

* **evaluation** is a thin pass over that structure by the compiled
  kernels of ``repro._cext``: ``rhs_tca`` and ``rhs_full``, one C body
  over the packed ABI of :meth:`pack`, whose expression groupings
  ``tests/reference_rhs.py`` and ``tests/reference_packed_rhs.py`` pin.
  The same shared object carries the DVERK step loop,
  :meth:`integrate_phase`, which runs a whole tight-coupling or
  full-hierarchy phase over that ABI; :meth:`rhs_scalar` is one
  evaluation, for the scalar python driver.

The ABI still addresses a block of lanes (``ints[0]`` lanes, rows
``b0 .. b1``); an operator is the one-lane block, always called with
``b0 = 0, b1 = 1``.

A :class:`~repro.perturbations.system.PerturbationSystem` owns one
operator and presents it behind the historical serial API; the
conformal-Newtonian twin reuses the gauge-independent python helpers
(photon/polarization advection + damping, hierarchy closures), keeping
only its gauge-specific source terms local.  The few ``*_rows``
methods left (``conformal_hubble_rows``, ``grho83_rows``,
``rho_factor_rows``) are the background factors over an *array of
scale factors* — what the record pass of ``evolve._Recorder``
evaluates for a block of stop-point rows — not a second way to step.

The operator also carries the evaluation counter and (optionally) the
wall-clock that feed the ``RhsMetrics`` telemetry section, and
:meth:`flops_per_eval` — one deterministic multiply-add census of the
assembled structure, whichever driver steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..background import Background, dlnf0_dlnq, fermi_dirac_f0
from ..background.nu_massive import I_RHO_MASSLESS, momentum_grid
from ..chaos import current_engine as _chaos_engine
from ..errors import IntegrationError, ParameterError
from ..integrators import VERNER_65_TABLEAU, StepController
from ..integrators.controller import STABILITY_FRACTION
from ..thermo import ThermalHistory
from .. import _cext
from .state import StateLayout

__all__ = ["BoltzmannOperator", "CompiledPhase"]

#: the compiled step loop's tableau argument: a, b_high, error weights, c
_VERNER_TAB = np.concatenate([
    VERNER_65_TABLEAU.a.ravel(), VERNER_65_TABLEAU.b_high,
    VERNER_65_TABLEAU.error_weights, VERNER_65_TABLEAU.c,
])


@dataclass
class CompiledPhase:
    """What :meth:`BoltzmannOperator.integrate_phase` returns."""

    #: 0, or the python driver's failure: 1 max_steps reached, 2 step
    #: underflow before a step, 3 step underflow after a rejection
    status: int
    y: np.ndarray  #: final state
    stops: np.ndarray  #: the stop points, ascending, ending at t1
    rows: np.ndarray  #: state at each stop reached, (n_stops, n)
    n_steps: int
    n_rejected: int
    n_rhs: int
    n_stability_bound: int = 0
    t: float = math.nan  #: the time the loop reached
    h: float = math.nan  #: the step size it last set

    @property
    def ok(self) -> bool:
        """Completed with a finite state."""
        return self.status == 0 and math.isfinite(float(self.y.sum()))

    def failure(self, max_steps: int) -> str | None:
        """The python driver's message for this outcome (``max_steps``
        the whole evolution's budget, as the driver names it), or None
        when :attr:`ok`."""
        if self.status == 1:
            return f"exceeded max_steps={max_steps} at t={self.t:.6g}"
        if self.status == 2:
            return f"step size underflow at t={self.t:.6g}"
        if self.status == 3:
            return f"step size underflow (h={self.h:.3g}) at t={self.t:.6g}"
        if not self.ok:
            return f"non-finite state at t={self.t:.6g}"
        return None


def _exp_rows(x: np.ndarray) -> np.ndarray:
    """exp per element via libm.

    ``np.exp`` differs from ``math.exp`` by ulps, and the recorded
    observables are held bitwise to the scalar expressions the RHS
    kernels use (the arithmetic contract).  The arrays are short (one
    entry per stop-point row), so scalar libm calls are cheap.
    (``tolist`` first: iterating a NumPy array yields slow np.float64
    scalars, a Python list yields plain floats.)
    """
    return np.array([math.exp(v) for v in x.tolist()])


def _log_rows(x: np.ndarray) -> np.ndarray:
    """log per element via libm (see :func:`_exp_rows`)."""
    return np.array([math.log(v) for v in x.tolist()])


class BoltzmannOperator:
    """Precomputed coefficient structure for one wavenumber.

    Parameters
    ----------
    background, thermo:
        Precomputed background / thermal history (shared across modes).
    k:
        Comoving wavenumber [Mpc^-1].
    layout:
        The state-vector layout.
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
        k = float(k)
        if not k > 0.0:
            raise ParameterError("k must be positive")
        p = background.params
        self.params = p
        self.background = background
        self.thermo = thermo
        self.k = k
        self.k2 = k * k
        self.layout = layout
        self.q_max = float(q_max)

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

        # Thermo lookups on the (uniform) ln-a grid: the history's own
        # ln kappa' / ln cs^2 splines and their packed coefficient rows,
        # shared by every operator on this cosmology.
        sp = self._ln_kap_spline = thermo._ln_kap_spline
        self._ln_cs2_spline = thermo._ln_cs2_spline
        self._th_x0, self._th_dx, self._th_n = sp.x0, sp.dx, sp.n
        self._th_c = thermo._rhs_pack

        # The layout's index properties recompute on access; freeze the
        # ones the scalar helpers read.
        self._iA = layout.A
        self._iETA = layout.ETA
        self._iDC = layout.DELTA_C
        self._iDB = layout.DELTA_B
        self._iTB = layout.THETA_B
        self._slfg = layout.sl_fg
        self._slgg = layout.sl_gg
        self._slnl = layout.sl_nl
        self._slpsi = layout.sl_psi if layout.nq > 0 else None

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
            # the background's own ln I_rho / ln I_p splines
            self._rho_fac = background.nu_tables._log_rho_spline
            self._p_fac = background.nu_tables._log_p_spline
            lm = layout.lmax_massive_nu
            ell = np.arange(lm + 1, dtype=float)
            self._mnu_lo = ell / (2.0 * ell + 1.0)
            self._mnu_hi = (ell + 1.0) / (2.0 * ell + 1.0)
        else:
            self._gr_nu_rel = 0.0
            self.q_nodes = np.empty(0)

        # Hierarchy advection coefficients.  Grouped exactly as the
        # serial system computed them — (k*l)/(2l+1), not k*(l/(2l+1))
        # — so they are bitwise the serial scalar coefficients.
        lg = layout.lmax_photon
        ell = np.arange(lg + 1, dtype=float)
        self._g_lo = k * ell / (2.0 * ell + 1.0)
        self._g_hi = k * (ell + 1.0) / (2.0 * ell + 1.0)
        ln = layout.lmax_nu
        ell = np.arange(ln + 1, dtype=float)
        self._n_lo = k * ell / (2.0 * ell + 1.0)
        self._n_hi = k * (ell + 1.0) / (2.0 * ell + 1.0)

        # Constants of the packed ABI (``lane_c``, ``gr_gnl``); groupings
        # match the python reference's expressions
        # (tests/reference_rhs.py) bit for bit.
        self._gr_gnl = self._gr_g + self._gr_nl
        self._k075 = 0.75 * k
        self._k43i = 4.0 / (3.0 * k)

        # Global advection table: every hierarchy interior obeys
        # dX_l = lo_l X_(l-1) - hi_l X_(l+1), so the fg, gg and nl
        # blocks all advect in a single shifted-slice update over the
        # contiguous [i_fg+1, i_nl+lmax_nu) column range.  Columns
        # whose neighbors cross a block boundary (each block's l=0 and
        # l=lmax) get zero coefficients; their rows are overwritten by
        # the dedicated boundary/closure updates.
        ns = layout.n_state
        clo = np.zeros(ns)
        chi = np.zeros(ns)
        i_fg, i_gg, i_nl = layout.i_fg, layout.i_gg, layout.i_nl
        clo[i_fg : i_fg + lg + 1] = self._g_lo
        chi[i_fg : i_fg + lg + 1] = self._g_hi
        clo[i_gg : i_gg + lg + 1] = self._g_lo
        chi[i_gg : i_gg + lg + 1] = self._g_hi
        clo[i_nl : i_nl + ln + 1] = self._n_lo
        chi[i_nl : i_nl + ln + 1] = self._n_hi
        for c in (i_fg + lg, i_gg, i_gg + lg, i_nl):
            clo[c] = 0.0
            chi[c] = 0.0
        self._adv0 = i_fg + 1
        self._adv1 = i_nl + ln
        # one-row blocks: the ABI's (lanes, adv1 - adv0) tables
        self._adv_lo = np.ascontiguousarray(clo[None, self._adv0 : self._adv1])
        self._adv_hi = np.ascontiguousarray(chi[None, self._adv0 : self._adv1])

        # Thomson damping region: every photon column whose damping is a
        # bare ``- kappa_dot X`` term — F_(3..lmax) and G_(0..lmax) are
        # adjacent in the layout, so one contiguous in-place subtraction
        # covers them all.  F_1/F_2 carry their damping inside the
        # baryon-coupling/source terms and are excluded.
        self._damp0 = i_fg + 3
        self._damp1 = i_gg + lg + 1

        # -- evaluation bookkeeping ---------------------------------------
        #: evaluations of either RHS (rhs_tca, rhs_full); the compiled
        #: step loop adds a phase's evaluations in one go
        self.evals: dict[str, int] = {"cext": 0}
        #: their wall-clock, populated only while ``instrument``
        self.seconds: dict[str, float] = {"cext": 0.0}
        #: when True, each compiled call is wrapped in perf_counter
        self.instrument = False
        self._packed = None
        self._cext = None  # the loaded C kernel, resolved once
        self._tau1 = np.zeros(1)
        self._tau1_addr = self._tau1.ctypes.data

    # ------------------------------------------------------------------
    # Background pieces — scalar (hand-off, Newtonian twin, monitors)
    # ------------------------------------------------------------------

    def grho83_s(self, a: float) -> float:
        """(8 pi G / 3) a^2 rho_total [Mpc^-2]."""
        g = (
            self._gr_m / a
            + (self._gr_g + self._gr_nl) / (a * a)
            + self._gr_lam * a * a
        )
        if self.nq > 0:
            g += self._gr_nu_rel / (a * a) * self.rho_factor_s(a)
        return g

    def rho_factor_s(self, a: float) -> float:
        return math.exp(self._rho_fac(math.log(a * self._x0))) / I_RHO_MASSLESS

    def pressure_factor_s(self, a: float) -> float:
        return 3.0 * math.exp(self._p_fac(math.log(a * self._x0))) / I_RHO_MASSLESS

    def gpres83_s(self, a: float) -> float:
        """(8 pi G / 3) a^2 p_total [Mpc^-2]."""
        g = (self._gr_g + self._gr_nl) / (3.0 * a * a) - self._gr_lam * a * a
        if self.nq > 0:
            g += (
                self._gr_nu_rel
                / (a * a)
                * self.pressure_factor_s(a)
                / 3.0
            )
        return g

    def conformal_hubble_s(self, a: float) -> float:
        return math.sqrt(self.grho83_s(a) + self._gr_k)

    def opacity_s(self, a: float) -> float:
        """Thomson opacity kappa' [Mpc^-1] (fast scalar path)."""
        return math.exp(self._ln_kap_spline(math.log(a)))

    def cs2_s(self, a: float) -> float:
        return math.exp(self._ln_cs2_spline(math.log(a)))

    def nu_eps_s(self, a: float) -> np.ndarray | None:
        """Comoving energy eps = sqrt(q^2 + (a m/T)^2) per momentum node."""
        if self.nq == 0:
            return None
        return np.sqrt(self.q_nodes**2 + (a * self._x0) ** 2)

    # ------------------------------------------------------------------
    # Background pieces — arrays of scale factors (the record pass)
    # ------------------------------------------------------------------

    def rho_factor_rows(self, a: np.ndarray) -> np.ndarray:
        lx = _log_rows(a * self._x0)
        return _exp_rows(self._rho_fac.vector(lx)) / I_RHO_MASSLESS

    def grho83_rows(self, a: np.ndarray) -> np.ndarray:
        g = (
            self._gr_m / a
            + self._gr_gnl / (a * a)
            + self._gr_lam * a * a
        )
        if self.nq > 0:
            g = g + self._gr_nu_rel / (a * a) * self.rho_factor_rows(a)
        return g

    def conformal_hubble_rows(self, a: np.ndarray) -> np.ndarray:
        return np.sqrt(self.grho83_rows(a) + self._gr_k)

    # ------------------------------------------------------------------
    # Shared source sums — scalar
    # ------------------------------------------------------------------

    def psi_matrix_s(self, y: np.ndarray) -> np.ndarray:
        lo = self.layout
        return y[self._slpsi].reshape(lo.nq, lo.lmax_massive_nu + 1)

    def metric_sources_s(self, y: np.ndarray, a: float, hc: float,
                         eps: np.ndarray | None = None):
        """hdot and etadot from the Einstein constraint equations.

        Returns (hdot, etadot, gdrho, gdq) where gdrho = 4 pi G a^2
        delta rho and gdq = 4 pi G a^2 (rho + p) theta.
        """
        fg = y[self._slfg]
        nl = y[self._slnl]
        k = self.k
        k2 = self.k2
        inv_a = 1.0 / a
        inv_a2 = inv_a * inv_a
        gdrho = 1.5 * (
            (self._gr_c * y[self._iDC] + self._gr_b * y[self._iDB]) * inv_a
            + (self._gr_g * fg[0] + self._gr_nl * nl[0]) * inv_a2
        )
        theta_g = 0.75 * k * fg[1]
        theta_n = 0.75 * k * nl[1]
        gdq = 1.5 * (
            self._gr_b * y[self._iTB] * inv_a
            + (4.0 / 3.0) * (self._gr_g * theta_g + self._gr_nl * theta_n) * inv_a2
        )
        if self.nq > 0:
            psi = self.psi_matrix_s(y)
            if eps is None:
                eps = self.nu_eps_s(a)
            gdrho += 1.5 * self._gr_nu_rel * inv_a2 * float(
                (self._w_rho * eps) @ psi[:, 0]
            )
            gdq += 1.5 * self._gr_nu_rel * inv_a2 * k * float(
                self._w_q3 @ psi[:, 1]
            )
        hdot = 2.0 * (k2 * y[self._iETA] + gdrho) / hc
        etadot = gdq / k2
        return hdot, etadot, gdrho, gdq

    def shear_sum_s(self, y: np.ndarray, a: float, sigma_g: float,
                    eps: np.ndarray | None = None) -> float:
        """4 pi G a^2 (rho + p) sigma summed over species [Mpc^-2]."""
        inv_a2 = 1.0 / (a * a)
        sigma_n = 0.5 * y[self._slnl][2]
        gshear = 1.5 * (4.0 / 3.0) * (
            self._gr_g * sigma_g + self._gr_nl * sigma_n
        ) * inv_a2
        if self.nq > 0:
            psi = self.psi_matrix_s(y)
            if eps is None:
                eps = self.nu_eps_s(a)
            gshear += 1.5 * self._gr_nu_rel * inv_a2 * (2.0 / 3.0) * float(
                (self._w_q4 / eps) @ psi[:, 2]
            )
        return gshear

    def sigma_gamma_tca(self, theta_g, hdot, etadot, kappa_dot):
        """Quasi-static photon shear in tight coupling (with polarization).

        Derived from the F2/G0/G2 quasi-equilibrium:
        sigma_g = (2/(3 kappa')) [ (8/15) theta_g + (4/15) hdot + (8/5) etadot ].
        Shape-agnostic: scalars at the hand-off, row vectors in the
        record pass.
        """
        return (2.0 / (3.0 * kappa_dot)) * (
            (8.0 / 15.0) * theta_g + (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot
        )

    # ------------------------------------------------------------------
    # Gauge-independent scalar sector pieces (the conformal-Newtonian
    # twin's python RHS; every term here is identical in both gauges,
    # and each writes state entries the gauge-specific caller does not,
    # from reads of ``y`` only — so the split is bitwise-safe)
    # ------------------------------------------------------------------

    def photon_shared_s(self, tau: float, y: np.ndarray, dy: np.ndarray,
                        kappa_dot: float) -> float:
        """Photon temperature + polarization couplings common to both
        gauges: interior advection, bare Thomson damping, the l=lmax
        closures, and the full polarization block.  Returns Pi.

        The caller supplies the gauge-specific monopole and the
        baryon-coupled dipole source.
        """
        fg = y[self._slfg]
        gg = y[self._slgg]
        dfg = dy[self._slfg]
        dgg = dy[self._slgg]
        lg = self.layout.lmax_photon
        g_lo = self._g_lo
        g_hi = self._g_hi
        k = self.k
        dfg[1:lg] = g_lo[1:lg] * fg[0 : lg - 1] - g_hi[1:lg] * fg[2 : lg + 1]
        dfg[3:lg] -= kappa_dot * fg[3:lg]
        pi_pol = fg[2] + gg[0] + gg[2]
        dfg[lg] = k * fg[lg - 1] - (lg + 1.0) / tau * fg[lg] - kappa_dot * fg[lg]
        dgg[1:lg] = g_lo[1:lg] * gg[0 : lg - 1] - g_hi[1:lg] * gg[2 : lg + 1]
        dgg[0] = -k * gg[1]
        dgg[0:lg] -= kappa_dot * gg[0:lg]
        dgg[0] += 0.5 * kappa_dot * pi_pol
        dgg[2] += 0.1 * kappa_dot * pi_pol
        dgg[lg] = k * gg[lg - 1] - (lg + 1.0) / tau * gg[lg] - kappa_dot * gg[lg]
        return pi_pol

    def neutrino_advect_s(self, y: np.ndarray, dy: np.ndarray,
                          tau: float) -> None:
        """Massless hierarchy interior advection + l=lmax closure
        (identical in both gauges; the caller writes the monopole and
        the gauge's l<=2 metric sources)."""
        nl = y[self._slnl]
        dnl = dy[self._slnl]
        lm = self.layout.lmax_nu
        n_lo = self._n_lo
        n_hi = self._n_hi
        k = self.k
        dnl[1:lm] = n_lo[1:lm] * nl[0 : lm - 1] - n_hi[1:lm] * nl[2 : lm + 1]
        dnl[lm] = k * nl[lm - 1] - (lm + 1.0) / tau * nl[lm]

    def massive_nu_advect_s(self, y: np.ndarray, dy: np.ndarray,
                            tau: float, eps: np.ndarray):
        """Massive hierarchy interior advection + closure; returns
        (psi, dpsi, qk_eps) for the caller's gauge-specific sources."""
        lo = self.layout
        psi = self.psi_matrix_s(y)
        dpsi = dy[self._slpsi].reshape(lo.nq, lo.lmax_massive_nu + 1)
        lm = lo.lmax_massive_nu
        qk_eps = self.k * self.q_nodes / eps  # (nq,)
        dpsi[:, 1:lm] = qk_eps[:, None] * (
            self._mnu_lo[1:lm] * psi[:, 0 : lm - 1]
            - self._mnu_hi[1:lm] * psi[:, 2 : lm + 1]
        )
        dpsi[:, lm] = qk_eps * psi[:, lm - 1] - (lm + 1.0) / tau * psi[:, lm]
        return psi, dpsi, qk_eps

    # ------------------------------------------------------------------
    # The hand-off between the two phases
    # ------------------------------------------------------------------

    def initialize_full_from_tca_s(self, y: np.ndarray, tau: float) -> None:
        """Populate the slaved moments when leaving tight coupling.

        Sets F2 to the quasi-static shear and the polarization moments
        to their tight-coupling equilibrium values
        G0 = (5/4) F2, G2 = (1/4) F2 (from Pi = 5/2 F2).
        """
        a = y[self._iA]
        hc = self.conformal_hubble_s(a)
        kappa_dot = math.exp(self._ln_kap_spline(math.log(a)))
        hdot, etadot, _, _ = self.metric_sources_s(y, a, hc)
        theta_g = 0.75 * self.k * y[self._slfg][1]
        sigma_g = self.sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot)
        fg = y[self._slfg]
        gg = y[self._slgg]
        fg[2] = 2.0 * sigma_g
        fg[3:] = 0.0
        gg[:] = 0.0
        gg[0] = 1.25 * fg[2]
        gg[2] = 0.25 * fg[2]

    # ------------------------------------------------------------------
    # Packed structure for the compiled kernels
    # ------------------------------------------------------------------

    def pack(self) -> dict:
        """The assembled structure as flat arrays: the ABI of the C
        kernel.  Built once and cached; the dict holds references so
        nothing is garbage-collected under a ctypes call, which is what
        lets ``"table"`` — the nine raw addresses, in ABI order — be
        computed here once instead of on every evaluation.

        The contract (``tests/reference_packed_rhs.py`` evaluates it in
        plain python, in the C kernel's order):

        ``ints``  int64[16]
            B, n_state, lmax_photon, lmax_nu, nq, lmax_massive_nu,
            i_fg, i_gg, i_nl, i_psi, adv0, adv1, damp0, damp1, th_n,
            rf_n
        ``flts``  float64[16]
            gr_m, gr_gnl, gr_lam, gr_k, gr_c, gr_b, gr_g, gr_nl,
            gr_nu_rel, r_coef, x0 (= m/T_nu0), I_RHO_MASSLESS, th_x0,
            th_dx, rf_x0, rf_dx
        ``th_c``  (8, th_n)
            cubic coefficients c3..c0 of ln kappa', then c3..c0 of
            ln cs2, both on the uniform ln-a grid (th_x0, th_dx)
        ``lane_c``  (4, B)
            per-lane constants: k, k^2, 0.75 k, 4/(3k) — indexed by the
            *absolute* lane number b (B = 1 here)
        ``adv_lo``/``adv_hi``  (B, adv1-adv0)
            fused advection coefficients for state columns
            [adv0, adv1), indexed by absolute b
        ``nu_pack``  (5, nq)
            q nodes, dln f0/dln q, and the rho/q^3/q^4 quadrature
            weights
        ``mnu_pack``  (2, lmax_massive_nu + 1)
            massive hierarchy advection factors l/(2l+1), (l+1)/(2l+1)
        ``rf_c``  (8, rf_n)
            cubic coefficients c3..c0 of the massive-nu ln(rho-integral)
            spline, then c3..c0 of the ln(pressure-integral) spline
            (read by ``rhs_tca`` alone), both on the uniform ln-x grid
            (rf_x0, rf_dx)

        A kernel call adds ``tau`` float64[rows] and ``Y``/``dY``
        (rows, n_state) for rows = b1 - b0 lanes of state; lane b lives
        in row b - b0.  Both synchronous-gauge right-hand sides,
        ``rhs_full`` and ``rhs_tca``, evaluate this one structure (the
        conformal-Newtonian twin is not packed).
        """
        if self._packed is not None:
            return self._packed
        lo = self.layout
        nq = lo.nq
        lm = lo.lmax_massive_nu if nq > 0 else 0
        if nq > 0:
            rf = self._rho_fac
            rf_n, rf_x0, rf_dx = rf.n, rf.x0, rf.dx
            rf_c = self.background.nu_tables._rhs_pack
            nu_pack = np.ascontiguousarray(
                [self.q_nodes, self._dlnf, self._w_rho, self._w_q3,
                 self._w_q4]
            )
            mnu_pack = np.ascontiguousarray([self._mnu_lo, self._mnu_hi])
            x0 = self._x0
        else:
            rf_n, rf_x0, rf_dx = 1, 0.0, 1.0
            rf_c = np.zeros((8, 1))
            nu_pack = np.zeros((5, 1))
            mnu_pack = np.zeros((2, 1))
            x0 = 0.0
        ints = np.array(
            [1, lo.n_state, lo.lmax_photon, lo.lmax_nu, nq, lm,
             lo.i_fg, lo.i_gg, lo.i_nl, (lo.i_psi if nq > 0 else 0),
             self._adv0, self._adv1, self._damp0, self._damp1,
             self._th_n, rf_n],
            dtype=np.int64,
        )
        flts = np.array(
            [self._gr_m, self._gr_gnl, self._gr_lam, self._gr_k,
             self._gr_c, self._gr_b, self._gr_g, self._gr_nl,
             self._gr_nu_rel, self._r_coef, x0, I_RHO_MASSLESS,
             self._th_x0, self._th_dx, rf_x0, rf_dx],
        )
        lane_c = np.array(
            [[self.k], [self.k2], [self._k075], [self._k43i]]
        )
        self._packed = {
            "ints": ints, "flts": flts, "th_c": self._th_c,
            "lane_c": lane_c, "adv_lo": self._adv_lo,
            "adv_hi": self._adv_hi, "nu_pack": nu_pack,
            "mnu_pack": mnu_pack, "rf_c": rf_c,
        }
        self._packed["table"] = tuple(
            a.ctypes.data for a in self._packed.values()
        )
        return self._packed

    def _compiled(self):
        """The loaded C kernel, resolved once per operator (raises
        :class:`~repro.errors.CompilerError` in a process without one)."""
        if self._cext is None:
            self._cext = _cext.get_cext()
        return self._cext

    # ------------------------------------------------------------------
    # The entry points the drivers call
    # ------------------------------------------------------------------

    def rhs_scalar(self, tight: bool, tau: float, y: np.ndarray,
                   dy: np.ndarray) -> np.ndarray:
        """The RHS — tight-coupling or full — by one call of the
        compiled kernel, into ``dy``: the callback of the scalar python
        driver."""
        self.evals["cext"] += 1
        if self.instrument:
            w0 = time.perf_counter()
        self._tau1[0] = tau
        if not y.flags.c_contiguous:
            y = np.ascontiguousarray(y)
        # the table's nine addresses were taken once (pack); the state
        # is the one row of a one-lane block
        fn = self._compiled()
        (fn.rhs_tca_raw if tight else fn.rhs_raw)(
            *self.pack()["table"], self._tau1_addr, y.ctypes.data,
            dy.ctypes.data, 0, 1)
        if self.instrument:
            self.seconds["cext"] += time.perf_counter() - w0
        return dy

    def integrate_phase(self, tight: bool, y0: np.ndarray, t0: float,
                        t1: float, stop_points, *, rtol: float, atol: float,
                        max_steps: int,
                        first_step: float | None = None) -> CompiledPhase:
        """One whole phase in one compiled call.

        The C loop is ``DVERK(rhs).integrate(y0, t0, t1, stop_points)``
        transcribed under the arithmetic contract — same stages, error
        norm, controller, stop-point and failure rules, bitwise the
        same numbers — with ``rhs`` (``rhs_tca`` when ``tight``, else
        ``rhs_full``) called in-process through the pointer table of
        :meth:`pack`, and, in the full phase, with
        ``stiff_rate=PerturbationSystem.thomson_rate``.  ``max_steps`` is
        the number of accepted steps still allowed.

        A phase that stops early is returned as it stopped, with its
        status; ``evolve.integrate_phase`` raises it as the python
        driver's :class:`~repro.errors.IntegrationError`.  The chaos
        engine's kernel poison is consulted once per call, here, not
        inside C.
        """
        fn = self._compiled()
        s, n = VERNER_65_TABLEAU.n_stages, self.layout.n_state
        y = np.array(y0, dtype=float)
        if y.shape != (n,):
            raise ParameterError(
                f"integrate_phase needs a state of {n} entries, got shape "
                f"{y.shape}"
            )
        if t1 <= t0:
            raise IntegrationError("integrate_phase requires t1 > t0")
        ctrl = StepController(order=VERNER_65_TABLEAU.order_low + 1)
        stops = np.asarray(stop_points, dtype=float)
        stops = np.sort(stops[(t0 < stops) & (stops <= t1)])
        if not stops.size or stops[-1] < t1:
            stops = np.append(stops, t1)
        ctl = np.array([t0, t1, rtol, atol, math.inf, 0.0,
                        math.nan if first_step is None else first_step,
                        ctrl.order, ctrl.safety, ctrl.min_factor,
                        ctrl.max_factor,
                        math.nan if tight else
                        STABILITY_FRACTION * VERNER_65_TABLEAU.real_stability])
        rows = np.empty((stops.size, n))
        work = np.zeros((s + 5) * n)
        out = np.zeros(5, dtype=np.int64)
        if self.instrument:
            w0 = time.perf_counter()
        status = fn.integrate_raw(
            *self.pack()["table"], 0, int(tight), _VERNER_TAB.ctypes.data, s,
            ctl.ctypes.data,
            stops.ctypes.data, max_steps, y.ctypes.data, rows.ctypes.data,
            work.ctypes.data, out.ctypes.data)
        n_steps, n_rejected, n_rhs, n_rows, n_bound = (int(v) for v in out)
        self.evals["cext"] += n_rhs
        if self.instrument:
            self.seconds["cext"] += time.perf_counter() - w0
        eng = _chaos_engine()
        if eng is not None and eng.poison_rhs(self.k):
            y[:] = np.nan
        return CompiledPhase(status=int(status), y=y, stops=stops[:n_rows],
                             rows=rows[:n_rows], n_steps=n_steps,
                             n_rejected=n_rejected, n_rhs=n_rhs,
                             n_stability_bound=n_bound, t=float(ctl[0]),
                             h=float(ctl[6]))

    # ------------------------------------------------------------------
    # Cost census
    # ------------------------------------------------------------------

    def flops_per_eval(self) -> int:
        """Deterministic multiply-add census of one rhs_full evaluation.

        Derived from the assembled structure alone (window widths,
        hierarchy cutoffs, momentum nodes), so every driver reports the
        same per-evaluation cost and BENCH/telemetry comparisons are
        apples-to-apples.  Transcendental
        calls (exp/log/sqrt) are charged at 25 flops, matching the
        calibrated cost model in :mod:`repro.cluster.costmodel`.
        """
        f = 150          # background factors, hc, fused thermo lookup
        f += 56          # metric sources + the six scalar state lines
        f += 3 * (self._adv1 - self._adv0)   # fused advection band
        f += 2 * (self._damp1 - self._damp0)  # Thomson damping window
        f += 40          # closures + Thomson source terms
        if self.nq > 0:
            lo = self.layout
            nq, lmnu = lo.nq, lo.lmax_massive_nu
            f += nq * 26                      # eps + metric-source dots
            f += nq * (4 * (lmnu - 1) + 16)   # psi hierarchy
        return f
