"""The row-at-a-time recorder (frozen reference).

:class:`ReferenceRecorder` is the recorder ``evolve.py`` had while every
stop of every driver called back into python: one ``__call__`` per
record point, scalar arithmetic through the lane's
``PerturbationSystem``.  It moved here unchanged when recording became
one array pass per phase (``evolve._Recorder.record``), and is what
``tests/test_recorder.py`` holds that pass to, bit for bit, on all of
``RECORD_FIELDS``.
"""

from __future__ import annotations

import numpy as np

from repro.perturbations.evolve import RECORD_FIELDS
from repro.perturbations.gauges import newtonian_potentials

__all__ = ["ReferenceRecorder"]


class ReferenceRecorder:
    """Accumulates observables into preallocated arrays, one state per
    call; set ``tight`` to the phase the states belong to."""

    def __init__(self, system, n: int) -> None:
        self.system = system
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
