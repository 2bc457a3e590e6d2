"""The python recorders (frozen references) of the compiled record pass.

:class:`ReferenceRecorder` is the recorder ``evolve.py`` had while every
stop of every driver called back into python: one ``__call__`` per
record point, scalar arithmetic through the python system
(``tests/reference_rhs.py``).  It moved here when recording became one
array pass per mode, :class:`ArrayRecorder`, which moved here in turn
when the record pass went into the compiled object
(``PerturbationSystem.record``, the C ``record_pass``).
``tests/test_recorder.py`` holds the compiled pass to both, bit for
bit, on all of ``RECORD_FIELDS``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.background.nu_massive import I_RHO_MASSLESS
from repro.perturbations.evolve import RECORD_FIELDS
from repro.perturbations.gauges import newtonian_potentials
from tests.reference_rhs import ReferencePerturbationSystem

__all__ = ["ReferenceRecorder", "ArrayRecorder"]


class ReferenceRecorder:
    """Accumulates observables into preallocated arrays, one state per
    call; set ``tight`` to the phase the states belong to."""

    def __init__(self, system, n: int) -> None:
        self.system = ReferencePerturbationSystem(
            system.background, system.thermo, system.k, system.layout)
        self.arrays = {name: np.full(n, np.nan) for name in RECORD_FIELDS}
        self.tau = np.full(n, np.nan)
        self.i = 0
        self.tight = True

    def __call__(self, tau: float, y: np.ndarray) -> None:
        s = self.system
        lo = s.layout
        a = y[lo.A]
        hc = s.conformal_hubble(a)
        kappa_dot = s.opacity(a)
        eps = s.nu_eps(a)
        hdot, etadot, _, _ = s._metric_sources(y, a, hc, eps=eps)
        fg = y[lo.sl_fg]
        gg = y[lo.sl_gg]
        nl = y[lo.sl_nl]
        theta_g = 0.75 * s.k * fg[1]
        if self.tight:
            sigma_g = s.sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot)
            pi_pol = 2.5 * 2.0 * sigma_g  # Pi = 5/2 F2 in tight coupling
        else:
            sigma_g = 0.5 * fg[2]
            pi_pol = fg[2] + gg[0] + gg[2]
        gshear = s.shear_sum(y, a, sigma_g, eps=eps)
        pots = newtonian_potentials(s.k, y[lo.ETA], hdot, etadot, hc, gshear)

        p = s.params
        if lo.nq > 0:
            psi_m = lo.psi_matrix(y)
            delta_nu_m = float((s._w_rho * eps) @ psi_m[:, 0]) / s._rho_factor(a)
        else:
            delta_nu_m = float("nan")
        num = p.omega_c * y[lo.DELTA_C] + p.omega_b * y[lo.DELTA_B]
        if lo.nq > 0 and p.omega_nu > 0:
            num += p.omega_nu * delta_nu_m
        delta_m = num / p.omega_m

        i = self.i
        arr = self.arrays
        self.tau[i] = tau
        arr["a"][i] = a
        arr["delta_g"][i] = fg[0]
        arr["theta_g"][i] = theta_g
        arr["sigma_g"][i] = sigma_g
        arr["delta_b"][i] = y[lo.DELTA_B]
        arr["theta_b"][i] = y[lo.THETA_B]
        arr["delta_c"][i] = y[lo.DELTA_C]
        arr["delta_nu"][i] = nl[0]
        arr["theta_nu"][i] = 0.75 * s.k * nl[1]
        arr["delta_nu_massive"][i] = delta_nu_m
        arr["delta_m"][i] = delta_m
        arr["pi"][i] = pi_pol
        arr["eta"][i] = y[lo.ETA]
        arr["etadot"][i] = etadot
        arr["hdot"][i] = hdot
        arr["alpha"][i] = pots.alpha
        arr["alpha_dot"][i] = pots.alpha_dot
        arr["phi"][i] = pots.phi
        arr["psi"][i] = pots.psi
        arr["kappa_dot"][i] = kappa_dot
        self.i += 1


def _exp_rows(x: np.ndarray) -> np.ndarray:
    """exp per element via libm, as the scalar expressions take it."""
    return np.array([math.exp(v) for v in x.tolist()])


def _log_rows(x: np.ndarray) -> np.ndarray:
    """log per element via libm."""
    return np.array([math.log(v) for v in x.tolist()])


def _rho_factor_rows(s, a: np.ndarray) -> np.ndarray:
    lx = _log_rows(a * s._x0)
    return _exp_rows(s._rho_fac.vector(lx)) / I_RHO_MASSLESS


def _conformal_hubble_rows(s, a: np.ndarray) -> np.ndarray:
    g = s._gr_m / a + s._gr_gnl / (a * a) + s._gr_lam * a * a
    if s.nq > 0:
        g = g + s._gr_nu_rel / (a * a) * _rho_factor_rows(s, a)
    return np.sqrt(g + s._gr_k)


def _sigma_gamma_tca(theta_g, hdot, etadot, kappa_dot):
    return (2.0 / (3.0 * kappa_dot)) * (
        (8.0 / 15.0) * theta_g + (4.0 / 15.0) * hdot + (8.0 / 5.0) * etadot
    )


class ArrayRecorder:
    """Turns blocks of stop-point states into the recorded observables.

    :meth:`record` takes a block of rows from either phase (a mode
    passes all of its rows, the final state last, in one block) and
    evaluates every entry of :data:`RECORD_FIELDS` for all of them in
    one pass of array arithmetic.  The pass is part of the arithmetic
    contract: each field is the elementwise transcription of the scalar
    expression the RHS kernels use for the same quantity (same
    grouping), ``exp`` and ``log`` go through libm value by value, and
    the three massive-neutrino momentum sums stay one ``@`` per row — so
    a row's record does not depend on which other rows share its block
    (:class:`ReferenceRecorder` is the row-at-a-time original it is
    pinned to, bit for bit).
    """

    def __init__(self, system: PerturbationSystem, n: int) -> None:
        self.system = system
        self.arrays = {name: np.full(n, np.nan) for name in RECORD_FIELDS}
        self.tau = np.full(n, np.nan)
        self.i = 0

    def record(self, tight, tau: np.ndarray, rows: np.ndarray) -> None:
        """Record the states ``rows`` (C-contiguous ``(m, n_state)``)
        reached at times ``tau``; ``tight`` (one flag, or one per row)
        says which of them belong to the tight-coupling phase."""
        m = len(tau)
        if m == 0:
            return
        tight = np.broadcast_to(np.asarray(tight, dtype=bool), (m,))
        s = self.system
        lo, p, k = s.layout, s.params, s.k
        i_fg, i_gg, i_nl = lo.i_fg, lo.i_gg, lo.i_nl
        a = rows[:, lo.A]
        eta = rows[:, lo.ETA]
        delta_c = rows[:, lo.DELTA_C]
        delta_b = rows[:, lo.DELTA_B]
        theta_b = rows[:, lo.THETA_B]
        delta_g, f2 = rows[:, i_fg], rows[:, i_fg + 2]
        delta_nu = rows[:, i_nl]
        hc = _conformal_hubble_rows(s, a)
        kappa_dot = _exp_rows(s._ln_kap_spline.vector(_log_rows(a)))

        # the Einstein constraints, as PerturbationSystem._metric_sources
        inv_a = 1.0 / a
        inv_a2 = inv_a * inv_a
        gdrho = 1.5 * (
            (s._gr_c * delta_c + s._gr_b * delta_b) * inv_a
            + (s._gr_g * delta_g + s._gr_nl * delta_nu) * inv_a2
        )
        theta_g = 0.75 * k * rows[:, i_fg + 1]
        theta_nu = 0.75 * k * rows[:, i_nl + 1]
        gdq = 1.5 * (
            s._gr_b * theta_b * inv_a
            + (4.0 / 3.0) * (s._gr_g * theta_g + s._gr_nl * theta_nu)
            * inv_a2
        )
        if lo.nq > 0:
            # momentum sums over the massive hierarchy: one BLAS dot per
            # row, as the scalar kernels reduce them
            nu_rho, nu_q, nu_shear = np.empty((3, m))
            psi = rows[:, lo.sl_psi].reshape(m, lo.nq, -1)
            for i in range(m):
                eps = s.nu_eps(a[i])
                nu_rho[i] = (s._w_rho * eps) @ psi[i, :, 0]
                nu_q[i] = s._w_q3 @ psi[i, :, 1]
                nu_shear[i] = (s._w_q4 / eps) @ psi[i, :, 2]
            gdrho = gdrho + 1.5 * s._gr_nu_rel * inv_a2 * nu_rho
            gdq = gdq + 1.5 * s._gr_nu_rel * inv_a2 * k * nu_q
        hdot = 2.0 * (s.k2 * eta + gdrho) / hc
        etadot = gdq / s.k2

        sigma_g = 0.5 * f2
        pi_pol = f2 + rows[:, i_gg] + rows[:, i_gg + 2]
        if tight.any():
            sigma_g[tight] = _sigma_gamma_tca(theta_g[tight], hdot[tight],
                                              etadot[tight], kappa_dot[tight])
            # Pi = 5/2 F2 in tight coupling
            pi_pol[tight] = 2.5 * 2.0 * sigma_g[tight]

        # total shear, as PerturbationSystem.shear_sum
        inv_aa = 1.0 / (a * a)
        gshear = 1.5 * (4.0 / 3.0) * (
            s._gr_g * sigma_g + s._gr_nl * (0.5 * rows[:, i_nl + 2])
        ) * inv_aa
        if lo.nq > 0:
            gshear = gshear + (1.5 * s._gr_nu_rel * inv_aa * (2.0 / 3.0)
                               * nu_shear)
        pots = newtonian_potentials(k, eta, hdot, etadot, hc, gshear)

        num = p.omega_c * delta_c + p.omega_b * delta_b
        if lo.nq > 0:
            delta_nu_m = nu_rho / _rho_factor_rows(s, a)
            if p.omega_nu > 0:
                num = num + p.omega_nu * delta_nu_m
        else:
            delta_nu_m = np.nan

        values = {
            "a": a,
            "delta_g": delta_g,
            "theta_g": theta_g,
            "sigma_g": sigma_g,
            "delta_b": delta_b,
            "theta_b": theta_b,
            "delta_c": delta_c,
            "delta_nu": delta_nu,
            "theta_nu": theta_nu,
            "delta_nu_massive": delta_nu_m,
            "delta_m": num / p.omega_m,
            "pi": pi_pol,
            "eta": eta,
            "etadot": etadot,
            "hdot": hdot,
            "alpha": pots.alpha,
            "alpha_dot": pots.alpha_dot,
            "phi": pots.phi,
            "psi": pots.psi,
            "kappa_dot": kappa_dot,
        }
        block = slice(self.i, self.i + m)
        self.tau[block] = tau
        for name, arr in self.arrays.items():
            arr[block] = values[name]
        self.i += m
