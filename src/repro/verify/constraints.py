"""Runtime Einstein-constraint monitors.

LINGER evolves the synchronous-gauge metric with the two Einstein
*constraint* equations (MB95 21a energy, 21b momentum) — ``hdot`` and
``etadot`` are algebraic functions of the state.  The redundancy the
paper (and COSMICS before it) uses as an accuracy knob is therefore the
two Einstein *evolution* equations, which the code never integrates:

* MB95 (21c), the pressure equation:
  ``h'' + 2 H h' - 2 k^2 eta = -24 pi G a^2 delta-p``
* MB95 (21d), the shear equation:
  ``h'' + 6 eta'' + 2 H (h' + 6 eta') - 2 k^2 eta
  = -24 pi G a^2 (rho+p) sigma``

The monitor rebuilds both *per term* from the coded right-hand side:
``h''`` and ``eta''`` come from differentiating the constraints and
substituting the coded fluid/hierarchy derivatives (one extra RHS
evaluation per sample).  The Bianchi identity makes each residual
vanish analytically **iff** every continuity, Euler and hierarchy
equation is mutually consistent with the Einstein sector — so the
measured residual is float cancellation noise (~1e-10 for a correct
code at nq = 0), and O(1) for a single mistyped coefficient anywhere in
the system.  This is the CMBAns-style per-term validation, running live
on the production trajectory.  Two known modeling approximations are
handled explicitly: the flat-equations-on-curved-background closure
(see the omega_k term in the rebuild) is added back so it does not
pollute the residual, while the massive-neutrino momentum-quadrature
truncation is deliberately *left in* — on nq > 0 runs the residual is a
convergence diagnostic for the momentum grid (measured 2.4e-2 / 3.2e-4
/ 6e-6 at nq = 4 / 8 / 16 on the MDM model).

Two further invariants ride along at each sample:

* **Thomson exchange** — the scattering terms extracted from the coded
  baryon-Euler and photon-dipole equations must cancel in the
  (rho+p)-weighted sum (elastic scattering conserves momentum);
* **hierarchy truncation** — |F_lmax| and |G_lmax| relative to the
  low multipoles; a reflecting boundary condition drives these to O(1)
  during the source era.

:class:`ConstraintMonitor` hooks into the per-mode recorder (see
``evolve_mode(monitor=...)``) so the residual history is sampled on the
same grid the spectra pipeline consumes, at any chunk length.  :func:`quality_residuals` adds record-level
integration-quality checks (numerical vs algebraic derivatives of the
evolved metric variables), which measure actual integration error
rather than equation consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError
from ..telemetry.report import ConstraintMetrics
from ..util.fastspline import fit_cubic

__all__ = [
    "ConstraintMonitor",
    "ModeConstraintResiduals",
    "quality_residuals",
]

#: Truncation indicators are judged over the source era only
#: (tau <= SOURCE_ERA_TAU_REC * tau_rec); later the hierarchy cutoff is
#: *legitimately* populated whenever lmax < k tau0.
SOURCE_ERA_TAU_REC = 2.2


@dataclass
class ModeConstraintResiduals:
    """Per-k residual histories sampled on the record grid."""

    k: float
    tau_rec: float
    tau: np.ndarray = field(default_factory=lambda: np.empty(0))
    a: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: MB95 21c per-term residual (NaN during tight coupling)
    pressure: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: MB95 21d per-term residual (NaN during tight coupling)
    shear: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Thomson momentum-transfer cancellation (NaN during tight coupling)
    exchange: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: |F_lmax| / max|F_{0..2}|
    trunc_photon: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: |G_lmax| / max|G_{0..2}|
    trunc_polarization: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_samples(self) -> int:
        return int(self.tau.size)

    @staticmethod
    def _nanmax(arr: np.ndarray) -> float | None:
        arr = arr[~np.isnan(arr)]
        return float(np.max(np.abs(arr))) if arr.size else None

    @staticmethod
    def _nanrms(arr: np.ndarray) -> float | None:
        arr = arr[~np.isnan(arr)]
        return float(np.sqrt(np.mean(arr**2))) if arr.size else None

    @property
    def max_pressure(self) -> float | None:
        return self._nanmax(self.pressure)

    @property
    def max_shear(self) -> float | None:
        return self._nanmax(self.shear)

    @property
    def max_exchange(self) -> float | None:
        return self._nanmax(self.exchange)

    def _source_era(self) -> np.ndarray:
        return self.tau <= SOURCE_ERA_TAU_REC * self.tau_rec

    @property
    def max_truncation_photon(self) -> float | None:
        return self._nanmax(self.trunc_photon[self._source_era()])

    @property
    def max_truncation_polarization(self) -> float | None:
        return self._nanmax(self.trunc_polarization[self._source_era()])

    def to_metrics(self, ik: int = 0, history_cap: int = 64) -> ConstraintMetrics:
        """Summarize into the telemetry RunReport extension record.

        Histories are stride-decimated to ``history_cap`` points (the
        exact maxima are kept separately, so decimation never hides a
        violation).
        """
        stride = max(1, -(-self.n_samples // history_cap))
        idx = np.arange(0, self.n_samples, stride)

        def _hist(arr: np.ndarray) -> list:
            return [None if np.isnan(v) else float(v) for v in arr[idx]]

        return ConstraintMetrics(
            k=self.k,
            ik=int(ik),
            n_samples=self.n_samples,
            max_pressure_residual=self.max_pressure,
            rms_pressure_residual=self._nanrms(self.pressure),
            max_shear_residual=self.max_shear,
            rms_shear_residual=self._nanrms(self.shear),
            max_exchange_residual=self.max_exchange,
            truncation_photon=self.max_truncation_photon,
            truncation_polarization=self.max_truncation_polarization,
            tau_history=[float(t) for t in self.tau[idx]],
            pressure_history=_hist(self.pressure),
            shear_history=_hist(self.shear),
        )


class ConstraintMonitor:
    """Evaluates the redundant-Einstein residuals at each record time.

    Attach one per mode via ``evolve_mode(..., monitor=...)`` (or let
    ``run_linger(monitor_constraints=True)`` do it).  The monitor is a
    pure observer: it calls the RHS once per sample on its own buffer
    copy and never perturbs the integration (the trajectory is
    bit-identical with or without it).

    ``system`` may be ``None`` at construction: the evolution drivers
    call :meth:`bind` with the :class:`PerturbationSystem` they build
    internally, so callers do not have to pre-build one.
    """

    def __init__(self, system=None, tau_rec: float = 0.0) -> None:
        self.system = system
        self.tau_rec = float(tau_rec)
        self._samples: list[tuple] = []

    def bind(self, system) -> None:
        """Late-bind the RHS provider (called by the evolution driver)."""
        self.system = system

    # -- sampling ----------------------------------------------------------

    def __call__(self, tau: float, y: np.ndarray, tight: bool) -> None:
        s = self.system
        if s is None:
            raise ParameterError(
                "ConstraintMonitor is not bound to a PerturbationSystem; "
                "pass it to evolve_mode/run_linger (which bind it) or "
                "call bind() first"
            )
        lo = s.layout
        a = float(y[lo.A])
        fg = y[lo.sl_fg]
        gg = y[lo.sl_gg]
        f_scale = max(abs(fg[0]), abs(fg[1]), abs(fg[2]), 1e-300)
        g_scale = max(abs(gg[0]), abs(gg[1]), abs(gg[2]), 1e-300)
        trunc_g = abs(fg[lo.lmax_photon]) / f_scale
        trunc_p = abs(gg[lo.lmax_photon]) / g_scale
        if tight:
            # the slaved moments make the evolution-equation rebuild
            # meaningless here; the TCA regime is covered by the acoustic
            # analytic oracle instead
            self._samples.append(
                (tau, a, np.nan, np.nan, np.nan, trunc_g, trunc_p))
            return
        r_press, r_shear, r_exch = self._full_state_residuals(tau, y, a)
        self._samples.append(
            (tau, a, r_press, r_shear, r_exch, trunc_g, trunc_p))

    def _full_state_residuals(self, tau: float, y: np.ndarray, a: float):
        s = self.system
        lo = s.layout
        k = s.k
        k2 = s.k2
        # one extra RHS evaluation; copy because rhs_full reuses a buffer
        dy = s.rhs_full(tau, y).copy()

        hc = s.conformal_hubble(a)
        adot = a * hc
        eta = float(y[lo.ETA])
        hdot = float(dy[lo.H])
        etadot = float(dy[lo.ETA])
        cs2 = s.cs2(a)

        fg, gg, nl = y[lo.sl_fg], y[lo.sl_gg], y[lo.sl_nl]
        dfg, dnl = dy[lo.sl_fg], dy[lo.sl_nl]
        dc, db = float(y[lo.DELTA_C]), float(y[lo.DELTA_B])
        tb = float(y[lo.THETA_B])
        ddc, ddb = float(dy[lo.DELTA_C]), float(dy[lo.DELTA_B])
        dtb = float(dy[lo.THETA_B])
        inv_a, inv_a2 = 1.0 / a, 1.0 / (a * a)

        # d(gdrho)/dtau and d(gdq)/dtau per term, massless sectors
        gm = s._gr_c * dc + s._gr_b * db
        gmdot = s._gr_c * ddc + s._gr_b * ddb
        gr0 = s._gr_g * fg[0] + s._gr_nl * nl[0]
        gr0dot = s._gr_g * dfg[0] + s._gr_nl * dnl[0]
        g_dot = 1.5 * (
            gmdot * inv_a - gm * adot * inv_a2
            + gr0dot * inv_a2 - 2.0 * gr0 * adot * inv_a2 * inv_a
        )
        th_g, th_n = 0.75 * k * fg[1], 0.75 * k * nl[1]
        dth_g, dth_n = 0.75 * k * dfg[1], 0.75 * k * dnl[1]
        gq1 = s._gr_g * th_g + s._gr_nl * th_n
        gq1dot = s._gr_g * dth_g + s._gr_nl * dth_n
        q_dot = 1.5 * (
            s._gr_b * (dtb * inv_a - tb * adot * inv_a2)
            + (4.0 / 3.0) * (gq1dot * inv_a2
                             - 2.0 * gq1 * adot * inv_a2 * inv_a)
        )

        # delta-p (4 pi G a^2): relativistic thirds + baryon cs^2 term
        gdp = 1.5 * (gr0 / 3.0 * inv_a2 + s._gr_b * cs2 * db * inv_a)

        # dH_conf/dtau = a * d(grho83)/da / 2
        dgrho83_da = (
            -s._gr_m * inv_a2
            - 2.0 * (s._gr_g + s._gr_nl) * inv_a2 * inv_a
            + 2.0 * s._gr_lam * a
        )

        # massive-neutrino contributions (momentum-grid integrals)
        if s.nq > 0:
            eps = s.nu_eps(a)
            psi_m = lo.psi_matrix(y)
            dpsi_m = dy[lo.sl_psi].reshape(lo.nq, lo.lmax_massive_nu + 1)
            eps_dot = (a * s._x0**2 / eps) * adot  # d eps/dtau per node
            s_rho = float((s._w_rho * eps) @ psi_m[:, 0])
            s_rho_dot = float(
                (s._w_rho * eps_dot) @ psi_m[:, 0]
                + (s._w_rho * eps) @ dpsi_m[:, 0]
            )
            g_dot += 1.5 * s._gr_nu_rel * (
                s_rho_dot * inv_a2 - 2.0 * s_rho * adot * inv_a2 * inv_a
            )
            s_q = float(s._w_q3 @ psi_m[:, 1])
            s_q_dot = float(s._w_q3 @ dpsi_m[:, 1])
            q_dot += 1.5 * s._gr_nu_rel * k * (
                s_q_dot * inv_a2 - 2.0 * s_q * adot * inv_a2 * inv_a
            )
            gdp += 0.5 * s._gr_nu_rel * inv_a2 * float(
                (s._w_q4 / eps) @ psi_m[:, 0]
            )
            rho_fac = s._rho_factor(a)
            p_fac = s._pressure_factor(a)
            dgrho83_da += s._gr_nu_rel * (
                (rho_fac - p_fac) * inv_a2 * inv_a
                - 2.0 * rho_fac * inv_a2 * inv_a
            )
        else:
            eps = None

        hc_dot = 0.5 * a * dgrho83_da
        hddot = (2.0 * (k2 * etadot + g_dot) - hdot * hc_dot) / hc
        etaddot = q_dot / k2

        # Curvature closure term: the code evolves the *flat* MB95
        # perturbation equations on a background whose Friedmann closure
        # keeps omega_k = 1 - sum(omega_i) (= -(omega_gamma + omega_nu)
        # for an Omega_m = 1 model, ~ -1.7e-4).  Differentiating the
        # coded energy constraint (whose H includes gr_k while gdrho is
        # flat) then shifts both evolution identities by exactly
        # gr_k * h' / H — a modeling choice, not a coding error — so the
        # rebuild includes it and the residual stays at float round-off.
        curv = -s._gr_k * hdot / hc

        # MB95 (21c): h'' + 2 H h' - 2 k^2 eta + 24 pi G a^2 dp = 0
        terms_p = (hddot, 2.0 * hc * hdot, -2.0 * k2 * eta, 6.0 * gdp,
                   curv)
        scale_p = max(abs(t) for t in terms_p[:4])
        r_press = sum(terms_p) / max(scale_p, 1e-300)

        # MB95 (21d): h'' + 6 eta'' + 2 H (h' + 6 eta') - 2 k^2 eta
        #             + 24 pi G a^2 (rho+p) sigma = 0
        gshear = s.shear_sum(y, a, 0.5 * float(fg[2]), eps=eps)
        terms_s = (
            hddot,
            6.0 * etaddot,
            2.0 * hc * (hdot + 6.0 * etadot),
            -2.0 * k2 * eta,
            6.0 * gshear,
            curv,
        )
        scale_s = max(abs(t) for t in terms_s[:5])
        r_shear = sum(terms_s) / max(scale_s, 1e-300)

        # Thomson momentum-transfer cancellation: extract the coded
        # scattering terms by subtracting the coded advection/metric
        # parts, then weight by (rho+p)
        exch_b = dtb - (-hc * tb + cs2 * k2 * db)
        adv1 = s._g_lo[1] * fg[0] - s._g_hi[1] * fg[2]
        exch_g = 0.75 * k * (float(dfg[1]) - adv1)
        s1 = s._gr_b * inv_a * exch_b
        s2 = (4.0 / 3.0) * s._gr_g * inv_a2 * exch_g
        denom = max(abs(s1), abs(s2), 1e-300)
        r_exch = (s1 + s2) / denom if (s1 != 0.0 or s2 != 0.0) else 0.0

        return float(r_press), float(r_shear), float(r_exch)

    # -- product -----------------------------------------------------------

    def residuals(self) -> ModeConstraintResiduals:
        cols = (list(zip(*self._samples)) if self._samples
                else [[] for _ in range(7)])
        arrays = [np.asarray(c, dtype=float) for c in cols]
        return ModeConstraintResiduals(
            k=self.system.k if self.system is not None else float("nan"),
            tau_rec=self.tau_rec,
            tau=arrays[0],
            a=arrays[1],
            pressure=arrays[2],
            shear=arrays[3],
            exchange=arrays[4],
            trunc_photon=arrays[5],
            trunc_polarization=arrays[6],
        )


def quality_residuals(mode, tau_rec: float) -> dict[str, float]:
    """Record-level integration-quality residuals for one mode.

    Numerically differentiates the *evolved* metric records (eta, and
    alpha = (h' + 6 eta')/2k^2) over the uniform recombination window
    and compares against the recorded algebraic derivatives.  Unlike
    the per-term monitors these measure real integration/interpolation
    error; they need a mode evolved with a source record grid.

    Returns ``{"eta": r_eta, "alpha": r_alpha}`` (max relative
    deviation over the interior window) — entries are NaN when the
    window holds too few points to differentiate.
    """
    if mode.tau.size == 0:
        raise ParameterError("quality_residuals needs recorded sources")
    sel = (mode.tau > 1.3 * mode.tau_switch) & (mode.tau < 1.9 * tau_rec)
    out: dict[str, float] = {}
    for name, deriv in (("eta", "etadot"), ("alpha", "alpha_dot")):
        if np.count_nonzero(sel) < 12:
            out[name] = float("nan")
            continue
        tau = mode.tau[sel]
        num = fit_cubic(tau, mode.records[name][sel]).derivative(1)(tau)
        ref = mode.records[deriv][sel]
        scale = float(np.max(np.abs(ref)))
        if scale == 0.0:
            out[name] = float("nan")
            continue
        out[name] = float(
            np.max(np.abs(num[3:-3] - ref[3:-3])) / scale
        )
    return out
