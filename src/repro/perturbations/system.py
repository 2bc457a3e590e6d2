"""The synchronous-gauge Einstein-Boltzmann system of one wavenumber.

One :class:`PerturbationSystem` is bound to a single wavenumber ``k``:
it assembles the coefficient structure of the MB95 hierarchy once and
then evaluates and integrates it through the compiled kernels.  Two
right-hand sides share that structure:

* :meth:`~PerturbationSystem.rhs_full` — the complete Ma & Bertschinger
  (1995) system: metric (h, eta), CDM, baryons, photon temperature +
  polarization hierarchies with Thomson scattering, massless-neutrino
  hierarchy and the massive-neutrino momentum-grid hierarchy (MB95
  eqs. 21, 42, 63-64, 49, 56-58).

* :meth:`~PerturbationSystem.rhs_tca` — the same system with the
  photon-baryon sector replaced by the first-order tight-coupling
  approximation (MB95 eqs. 74-75), valid while the Thomson time
  1/kappa' is much shorter than both 1/k and the expansion time.  This
  is what makes an explicit integrator (DVERK) viable from the earliest
  times, exactly as in the original LINGER.

The hierarchy is a sparse, banded linear operator: the couplings
between state entries never change, only a handful of per-tau
coefficients (opacity, sound speed, conformal Hubble, the metric
sources) do.  COSMICS (astro-ph/9506070) and CMBAns (arXiv:1910.00725)
both build their k-loop on this assemble-then-evaluate split:

* **assembly** happens once, in the constructor: the static index
  structure (the fused advection window, the Thomson damping window,
  the advection coefficient table, the frozen state-layout offsets)
  plus the per-tau coefficient *sources*: the constant (8 pi G/3)
  density prefactors, and references to the uniform-grid splines for
  opacity / sound speed / massive-neutrino background factors, which
  depend on the cosmology alone and are fitted with the tables
  (``ThermalHistory``, ``MassiveNuTables``);

* **evaluation** is a thin pass over that structure by the compiled
  kernels of ``repro._cext``: ``rhs_tca`` and ``rhs_full``, one C body
  over the packed ABI of :meth:`~PerturbationSystem.pack`, whose
  expression groupings ``tests/reference_rhs.py`` and
  ``tests/reference_packed_rhs.py`` pin.  The same shared object
  carries the DVERK step loop (:meth:`~PerturbationSystem.integrate_phase`,
  one tight-coupling or full-hierarchy phase), the hand-off between the
  phases (:meth:`~PerturbationSystem.initialize_full_from_tca`), the
  record pass (:meth:`~PerturbationSystem.record`) and all four in one
  call (:meth:`~PerturbationSystem.evolve`, a whole mode);
  :meth:`~PerturbationSystem.rhs_full` / ``rhs_tca`` are one
  evaluation each, for the scalar python driver.

The conformal-Newtonian twin (:mod:`.system_newtonian`) subclasses this
one and reuses its gauge-independent python helpers (photon /
polarization advection + damping, hierarchy closures), keeping only its
gauge-specific source terms local.
"""

from __future__ import annotations

import functools
import math
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

__all__ = ["PerturbationSystem", "CompiledPhase", "CompiledMode",
           "RECORD_FIELDS"]

#: Observables recorded at every grid time, in the compiled record
#: pass's row order.
RECORD_FIELDS = (
    "a", "delta_g", "theta_g", "sigma_g", "delta_b", "theta_b", "delta_c",
    "delta_nu", "theta_nu", "delta_nu_massive", "delta_m", "pi", "eta",
    "etadot", "hdot", "alpha", "alpha_dot", "phi", "psi", "kappa_dot",
)

#: the compiled step loop's tableau argument: a, b_high, error weights, c
_VERNER_TAB = np.concatenate([
    VERNER_65_TABLEAU.a.ravel(), VERNER_65_TABLEAU.b_high,
    VERNER_65_TABLEAU.error_weights, VERNER_65_TABLEAU.c,
])
_CTRL = StepController(order=VERNER_65_TABLEAU.order_low + 1)
#: ``ctl[7:12]`` of a compiled call: the controller, then the full
#: phase's stability bound
_CTL_TAIL = (_CTRL.order, _CTRL.safety, _CTRL.min_factor, _CTRL.max_factor,
             STABILITY_FRACTION * VERNER_65_TABLEAU.real_stability)


def phase_failure(status: int, t: float, h: float,
                  max_steps: int) -> str | None:
    """The python driver's message for a compiled status (1 max_steps,
    2 and 3 step underflow, 4 a non-finite end state), or None for 0."""
    if status == 1:
        return f"exceeded max_steps={max_steps} at t={t:.6g}"
    if status == 2:
        return f"step size underflow at t={t:.6g}"
    if status == 3:
        return f"step size underflow (h={h:.3g}) at t={t:.6g}"
    if status == 4:
        return f"non-finite state at t={t:.6g}"
    return None


def phase_stops(points: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """A phase's stop points as every driver takes them: the points in
    ``(t0, t1]``, ascending, then ``t1`` unless it is the last."""
    stops = np.sort(points[(t0 < points) & (points <= t1)])
    if not stops.size or stops[-1] < t1:
        stops = np.append(stops, t1)
    return stops


@functools.lru_cache(maxsize=16)
def _massive_pack(nq: int, q_max: float,
                  lmax_massive_nu: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed ABI's ``nu_pack`` and ``mnu_pack`` (see
    :meth:`PerturbationSystem.pack`): the momentum nodes, dln f0/dln q
    and the rho/q^3/q^4 quadrature weights, and the massive hierarchy's
    advection factors.  They depend on neither k nor the cosmology, so
    they are formed once per rule and read-only."""
    q, w = momentum_grid(nq, q_max=q_max)
    f0 = fermi_dirac_f0(q)
    nu_pack = np.ascontiguousarray([
        q, dlnf0_dlnq(q), w * q**2 * f0 / I_RHO_MASSLESS,
        w * q**3 * f0 / I_RHO_MASSLESS, w * q**4 * f0 / I_RHO_MASSLESS])
    ell = np.arange(lmax_massive_nu + 1, dtype=float)
    mnu_pack = np.ascontiguousarray(
        [ell / (2.0 * ell + 1.0), (ell + 1.0) / (2.0 * ell + 1.0)])
    nu_pack.setflags(write=False)
    mnu_pack.setflags(write=False)
    return nu_pack, mnu_pack


@dataclass
class CompiledPhase:
    """What :meth:`PerturbationSystem.integrate_phase` returns."""

    #: 0, or the python driver's failure (see :func:`phase_failure`)
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


@dataclass
class CompiledMode:
    """What :meth:`PerturbationSystem.evolve` returns."""

    status: int  #: 0, or the failure (:func:`phase_failure`)
    y: np.ndarray  #: the state at tau_end
    rows: np.ndarray  #: the recorded states, then the final one
    rec: np.ndarray  #: (20, len(rows)): RECORD_FIELDS of every row
    #: (2, 5) per phase: accepted, rejected, evaluations, stops reached,
    #: attempts at the stability bound
    counters: np.ndarray
    t: float  #: the time the stopping phase reached
    h: float  #: the step size it last set
    walls: tuple[float, float]  #: tight phase + hand-off, full phase


class PerturbationSystem:
    """The assembled system of one comoving wavenumber.

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
        # shared by every system on this cosmology.
        sp = self._ln_kap_spline = thermo._ln_kap_spline
        self._ln_cs2_spline = thermo._ln_cs2_spline
        self._th_x0, self._th_dx, self._th_n = sp.x0, sp.dx, sp.n
        self._th_c = thermo._rhs_pack

        # The layout's index properties recompute on access; freeze the
        # ones the scalar helpers read.
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
            # k-independent: one read-only pack per rule, shared by
            # every system (rows: q, dln f0/dln q, w_rho, w_q3, w_q4)
            self._nu_pack, self._mnu_pack = _massive_pack(
                self.nq, self.q_max, layout.lmax_massive_nu)
            (self.q_nodes, self._dlnf, self._w_rho, self._w_q3,
             self._w_q4) = self._nu_pack
            self._mnu_lo, self._mnu_hi = self._mnu_pack
            # the background's own ln I_rho / ln I_p splines
            self._rho_fac = background.nu_tables._log_rho_spline
            self._p_fac = background.nu_tables._log_p_spline
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

        # Constants of the packed ABI (the wavenumber's four, ``gr_gnl``);
        # groupings match the python reference's expressions
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
        self._adv_lo = clo[self._adv0 : self._adv1].copy()
        self._adv_hi = chi[self._adv0 : self._adv1].copy()

        # Thomson damping region: every photon column whose damping is a
        # bare ``- kappa_dot X`` term — F_(3..lmax) and G_(0..lmax) are
        # adjacent in the layout, so one contiguous in-place subtraction
        # covers them all.  F_1/F_2 carry their damping inside the
        # baryon-coupling/source terms and are excluded.
        self._damp0 = i_fg + 3
        self._damp1 = i_gg + lg + 1

        self._packed = None
        #: what the record pass reads beside the packed table
        self._record_par = np.array([p.omega_c, p.omega_b, p.omega_nu,
                                     p.omega_m])
        self._cext = None  # the loaded C kernel, resolved once
        self._dy = np.zeros(ns)

    # ------------------------------------------------------------------
    # Background pieces — scalar (Newtonian twin, monitors)
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

    def nu_eps(self, a: float) -> np.ndarray | None:
        """Comoving energy eps = sqrt(q^2 + (a m/T)^2) per momentum node."""
        if self.nq == 0:
            return None
        return np.sqrt(self.q_nodes**2 + (a * self._x0) ** 2)

    # ------------------------------------------------------------------
    # Shared source sums — scalar
    # ------------------------------------------------------------------

    def _psi_matrix(self, y: np.ndarray) -> np.ndarray:
        lo = self.layout
        return y[self._slpsi].reshape(lo.nq, lo.lmax_massive_nu + 1)

    def shear_sum(self, y: np.ndarray, a: float, sigma_g: float,
                  eps: np.ndarray | None = None) -> float:
        """4 pi G a^2 (rho + p) sigma summed over species [Mpc^-2]."""
        inv_a2 = 1.0 / (a * a)
        sigma_n = 0.5 * y[self._slnl][2]
        gshear = 1.5 * (4.0 / 3.0) * (
            self._gr_g * sigma_g + self._gr_nl * sigma_n
        ) * inv_a2
        if self.nq > 0:
            psi = self._psi_matrix(y)
            if eps is None:
                eps = self.nu_eps(a)
            gshear += 1.5 * self._gr_nu_rel * inv_a2 * (2.0 / 3.0) * float(
                (self._w_q4 / eps) @ psi[:, 2]
            )
        return gshear

    # ------------------------------------------------------------------
    # Gauge-independent scalar sector pieces (the conformal-Newtonian
    # twin's python RHS; every term here is identical in both gauges,
    # and each writes state entries the gauge-specific caller does not,
    # from reads of ``y`` only — so the split is bitwise-safe)
    # ------------------------------------------------------------------

    def photon_shared(self, tau: float, y: np.ndarray, dy: np.ndarray,
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

    def neutrino_advect(self, y: np.ndarray, dy: np.ndarray,
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

    def massive_nu_advect(self, y: np.ndarray, dy: np.ndarray,
                          tau: float, eps: np.ndarray):
        """Massive hierarchy interior advection + closure; returns
        (psi, dpsi, qk_eps) for the caller's gauge-specific sources."""
        lo = self.layout
        psi = self._psi_matrix(y)
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
    # The hand-off between the two phases, and the record pass
    # ------------------------------------------------------------------

    def thomson_rate(self, tau: float, y: np.ndarray) -> float:
        """kappa' (1 + r), r = 4 rho_gamma / 3 rho_b: the decay rate of
        the baryon-photon slip, the stiffest eigenvalue of
        :meth:`rhs_full` (photon damping, kappa', is 4-17x slower) — the
        ``stiff_rate`` the full phase hands its driver."""
        a = float(y[self.layout.A])
        return self.opacity(a) * (1.0 + self._r_coef / a)

    def initialize_full_from_tca(self, y: np.ndarray, tau: float) -> None:
        """Populate the slaved moments when leaving tight coupling, in
        the C-contiguous state ``y``, by the compiled ``tca_handoff``.

        Sets F2 to the quasi-static shear and the polarization moments
        to their tight-coupling equilibrium values
        G0 = (5/4) F2, G2 = (1/4) F2 (from Pi = 5/2 F2); the python
        original is ``tests/reference_rhs.py``'s, bit for bit.
        """
        if not (y.shape == (self.layout.n_state,) and y.flags.c_contiguous
                and y.dtype == np.float64):
            raise ParameterError("the hand-off needs one C-contiguous state")
        self._compiled().handoff_raw(
            *self.pack()["table"], y.ctypes.data,
            self._record_par.ctypes.data)

    def record(self, rows: np.ndarray, n_tight: int) -> np.ndarray:
        """Every :data:`RECORD_FIELDS` entry, ``(20, m)``, of the states
        ``rows`` (C-contiguous ``(m, n_state)``, the first ``n_tight`` in
        tight coupling) by the compiled ``record_pass``, row by row as
        ``tests/reference_recorder.py`` records them, bit for bit."""
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.layout.n_state:
            raise ParameterError(f"record takes (m, n_state) states, not "
                                 f"{rows.shape}")
        m = len(rows)
        rec = np.empty((len(RECORD_FIELDS), m))
        self._compiled().record_raw(
            *self.pack()["table"], rows.ctypes.data, m, n_tight,
            self._record_par.ctypes.data, rec.ctypes.data, m)
        return rec

    # ------------------------------------------------------------------
    # Packed structure for the compiled kernels
    # ------------------------------------------------------------------

    def pack(self) -> dict:
        """The assembled structure as flat arrays: the ABI of the C
        kernel.  Built once and cached; the dict holds references so
        nothing is garbage-collected under a ctypes call, which is what
        lets ``"table"`` — the eight raw addresses, in ABI order — be
        computed here once instead of on every evaluation.

        The contract (``tests/reference_packed_rhs.py`` evaluates it in
        plain python, in the C kernel's order):

        ``ints``  int64[15]
            n_state, lmax_photon, lmax_nu, nq, lmax_massive_nu, i_fg,
            i_gg, i_nl, i_psi, adv0, adv1, damp0, damp1, th_n, rf_n
        ``flts``  float64[20]
            gr_m, gr_gnl, gr_lam, gr_k, gr_c, gr_b, gr_g, gr_nl,
            gr_nu_rel, r_coef, x0 (= m/T_nu0), I_RHO_MASSLESS, th_x0,
            th_dx, rf_x0, rf_dx, then the wavenumber's k, k^2, 0.75 k
            and 4/(3k)
        ``th_c``  (8, th_n)
            cubic coefficients c3..c0 of ln kappa', then c3..c0 of
            ln cs2, both on the uniform ln-a grid (th_x0, th_dx)
        ``adv_lo``/``adv_hi``  (adv1-adv0,)
            fused advection coefficients for state columns
            [adv0, adv1)
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

        A kernel call adds the time ``tau`` (a double, by value) and
        the state ``y`` and its derivative ``dy`` (n_state each).  Both
        synchronous-gauge right-hand sides, ``rhs_full`` and
        ``rhs_tca``, evaluate this one structure (the
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
            nu_pack, mnu_pack = self._nu_pack, self._mnu_pack
            x0 = self._x0
        else:
            rf_n, rf_x0, rf_dx = 1, 0.0, 1.0
            rf_c = np.zeros((8, 1))
            nu_pack = np.zeros((5, 1))
            mnu_pack = np.zeros((2, 1))
            x0 = 0.0
        ints = np.array(
            [lo.n_state, lo.lmax_photon, lo.lmax_nu, nq, lm,
             lo.i_fg, lo.i_gg, lo.i_nl, (lo.i_psi if nq > 0 else 0),
             self._adv0, self._adv1, self._damp0, self._damp1,
             self._th_n, rf_n],
            dtype=np.int64,
        )
        flts = np.array(
            [self._gr_m, self._gr_gnl, self._gr_lam, self._gr_k,
             self._gr_c, self._gr_b, self._gr_g, self._gr_nl,
             self._gr_nu_rel, self._r_coef, x0, I_RHO_MASSLESS,
             self._th_x0, self._th_dx, rf_x0, rf_dx,
             self.k, self.k2, self._k075, self._k43i],
        )
        self._packed = {
            "ints": ints, "flts": flts, "th_c": self._th_c,
            "adv_lo": self._adv_lo, "adv_hi": self._adv_hi,
            "nu_pack": nu_pack, "mnu_pack": mnu_pack, "rf_c": rf_c,
        }
        self._packed["table"] = tuple(
            a.ctypes.data for a in self._packed.values()
        )
        return self._packed

    def _compiled(self):
        """The loaded C kernel, resolved once per system (raises
        :class:`~repro.errors.CompilerError` in a process without one)."""
        if self._cext is None:
            self._cext = _cext.get_cext()
        return self._cext

    # ------------------------------------------------------------------
    # The entry points the drivers call
    # ------------------------------------------------------------------

    def _rhs(self, tight: bool, tau: float, y: np.ndarray) -> np.ndarray:
        """One call of the compiled kernel into the system's buffer (the
        table's addresses were taken once, by :meth:`pack`)."""
        if not y.flags.c_contiguous:
            y = np.ascontiguousarray(y)
        fn = self._compiled()
        (fn.rhs_tca_raw if tight else fn.rhs_raw)(
            *self.pack()["table"], tau, y.ctypes.data, self._dy.ctypes.data)
        return self._dy

    def rhs_full(self, tau: float, y: np.ndarray) -> np.ndarray:
        """Full (post-TCA) RHS, by the compiled kernel."""
        return self._rhs(False, tau, y)

    def rhs_tca(self, tau: float, y: np.ndarray) -> np.ndarray:
        """Tight-coupling RHS (MB95 eqs. 74/75), by the compiled kernel."""
        return self._rhs(True, tau, y)

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
        ``stiff_rate=thomson_rate``.  ``max_steps`` is the number of
        accepted steps still allowed.

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
        stops = phase_stops(np.asarray(stop_points, dtype=float), t0, t1)
        ctl = np.array([t0, t1, rtol, atol, math.inf, 0.0,
                        math.nan if first_step is None else first_step,
                        *_CTL_TAIL])
        if tight:
            ctl[11] = math.nan
        rows = np.empty((stops.size, n))
        work = np.zeros((s + 5) * n)
        out = np.zeros(5, dtype=np.int64)
        status = fn.integrate_raw(
            *self.pack()["table"], int(tight), _VERNER_TAB.ctypes.data, s,
            ctl.ctypes.data,
            stops.ctypes.data, max_steps, y.ctypes.data, rows.ctypes.data,
            work.ctypes.data, out.ctypes.data)
        n_steps, n_rejected, n_rhs, n_rows, n_bound = (int(v) for v in out)
        eng = _chaos_engine()
        if eng is not None and eng.poison_rhs(self.k):
            y[:] = np.nan
        return CompiledPhase(status=int(status), y=y, stops=stops[:n_rows],
                             rows=rows[:n_rows], n_steps=n_steps,
                             n_rejected=n_rejected, n_rhs=n_rhs,
                             n_stability_bound=n_bound, t=float(ctl[0]),
                             h=float(ctl[6]))

    def evolve(self, y0: np.ndarray, stops: np.ndarray, counts, *,
               t_init: float, t_switch: float, tau_end: float, rtol: float,
               atol: float, max_steps: int,
               first_step: float | None = None) -> CompiledMode:
        """A whole mode in one compiled call:
        :meth:`integrate_phase` from ``t_init`` to ``t_switch``,
        :meth:`initialize_full_from_tca`, :meth:`integrate_phase` to
        ``tau_end`` and :meth:`record`, bit for bit.  ``stops`` holds
        each phase's :func:`phase_stops`, the tight phase's first;
        ``counts``: how many each phase has, then how many of each are
        recorded.  The chaos engine's kernel poison is consulted once
        per call, here."""
        fn = self._compiled()
        n = self.layout.n_state
        s = VERNER_65_TABLEAU.n_stages
        y = np.array(y0, dtype=float)
        ctl = np.array([t_init, t_switch, rtol, atol, math.inf, 0.0,
                        math.nan if first_step is None else first_step,
                        *_CTL_TAIL, tau_end, 0.0, 0.0])
        cnt = np.array(counts, dtype=np.int64)
        stops = np.ascontiguousarray(stops, dtype=float)
        if y.shape != (n,) or stops.size != cnt[0] + cnt[1]:
            raise ParameterError("evolve needs one state and counts that "
                                 "match its stops")
        m = int(cnt[2] + cnt[3]) + 1
        rows = np.empty((int(cnt[0] + cnt[1]) + 1, n))
        rec = np.empty((len(RECORD_FIELDS), m))
        work = np.zeros((s + 5) * n)
        out = np.zeros(10, dtype=np.int64)
        status = fn.evolve_raw(
            *self.pack()["table"], _VERNER_TAB.ctypes.data, s,
            ctl.ctypes.data, stops.ctypes.data, cnt.ctypes.data, max_steps,
            y.ctypes.data, rows.ctypes.data, self._record_par.ctypes.data,
            rec.ctypes.data, work.ctypes.data, out.ctypes.data)
        eng = _chaos_engine()
        if eng is not None and eng.poison_rhs(self.k):
            y[:] = np.nan
            status = status or 4
        return CompiledMode(status=int(status), y=y, rows=rows[:m], rec=rec,
                            counters=out.reshape(2, 5),
                            t=float(ctl[0]), h=float(ctl[6]),
                            walls=(float(ctl[13]), float(ctl[14])))

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
