"""Tensor perturbations: gravitational waves and their CMB imprint.

The linearized Einstein equation for each transverse-traceless
polarization amplitude is the damped wave equation

    h'' + 2 H_conf h' + k^2 h = 0

(neutrino/photon tensor anisotropic-stress feedback, a few-percent
correction, is neglected and documented).  The temperature anisotropy
follows from the line-of-sight projection of -h' against the tensor
radial function:

    Theta_l^T(k) = sqrt((l+2)!/(l-2)!) / 2 *
                   int dtau (-h') e^-kappa j_l(x) / x^2,    x = k(tau0-tau)

and C_l^T = 4 pi int dln k P_T(k) |Theta_l^T|^2 with a primordial
tensor spectrum P_T ~ k^(n_T).

Known analytic limits used by the tests: h is frozen outside the
horizon; inside the horizon in the radiation era h(tau) = j_0(k tau)
exactly (for h -> 1 at k tau -> 0); the tensor C_l dies above
l ~ 100 because the waves that entered before recombination have
already decayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..background import Background
from ..errors import ParameterError
from ..integrators import DVERK, IntegratorStats
from ..thermo import ThermalHistory
from ..util.fastspline import PiecewiseCubic, fit_cubic

if TYPE_CHECKING:  # spectra sits above perturbations: imported where used
    from ..spectra.los import BesselCache

__all__ = ["TensorMode", "evolve_tensor_mode", "tensor_theta_l",
           "cl_tensor"]


@dataclass
class TensorMode:
    """One evolved gravitational-wave mode."""

    k: float
    tau: np.ndarray
    h: np.ndarray
    h_dot: np.ndarray
    stats: IntegratorStats

    def h_spline(self) -> PiecewiseCubic:
        return fit_cubic(self.tau, self.h)

    def h_dot_spline(self) -> PiecewiseCubic:
        return fit_cubic(self.tau, self.h_dot)


def evolve_tensor_mode(
    background: Background,
    k: float,
    tau_end: float | None = None,
    n_record: int = 400,
    rtol: float = 1e-6,
    amplitude: float = 1.0,
) -> TensorMode:
    """Evolve h(k, tau) from deep outside the horizon to ``tau_end``.

    State: [a, h, h'].  Initial conditions: h = amplitude, h' = 0 at
    k tau = 0.02 (the growing tensor mode is frozen superhorizon).
    """
    if k <= 0.0:
        raise ParameterError("k must be positive")
    tau_end = background.tau0 if tau_end is None else float(tau_end)
    tau_init = min(0.02 / k, 1.5)
    if tau_init >= tau_end:
        raise ParameterError("tau_end precedes the initial time")

    # fast scalar H_conf: the closed-form pieces (massive neutrinos use
    # the background's splined factor through a closure)
    conformal_hubble = background.conformal_hubble

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        a, h, hd = y
        hc = float(conformal_hubble(a))
        return np.array([a * hc, hd, -2.0 * hc * hd - k * k * h])

    a_init = float(background.a_of_tau(tau_init))
    y0 = np.array([a_init, amplitude, 0.0])

    record = np.geomspace(tau_init * 1.05, tau_end, n_record)
    taus: list[float] = []
    hs: list[float] = []
    hds: list[float] = []

    def on_stop(t: float, y: np.ndarray) -> None:
        taus.append(t)
        hs.append(y[1])
        hds.append(y[2])

    stats = IntegratorStats()
    driver = DVERK(rhs, rtol=rtol, atol=1e-12)
    driver.integrate(y0, tau_init, tau_end, stop_points=record,
                     on_stop=on_stop, stats=stats)
    return TensorMode(
        k=k,
        tau=np.array(taus),
        h=np.array(hs),
        h_dot=np.array(hds),
        stats=stats,
    )


def tensor_theta_l(
    modes: list[TensorMode],
    thermo: ThermalHistory,
    tau0: float,
    l_values: np.ndarray,
    bessel: BesselCache | None = None,
) -> np.ndarray:
    """Theta_l^T(k) for each mode; shape (nk, nl)."""
    l_values = np.asarray(l_values, dtype=int)
    if np.any(l_values < 2):
        raise ParameterError("tensors have no monopole/dipole: l >= 2")
    if bessel is None:
        x_max = max(m.k * tau0 for m in modes)
        from ..spectra.los import BesselCache

        bessel = BesselCache(x_max)
    bessel.table_matrix(l_values)  # every row in one sweep
    out = np.empty((len(modes), l_values.size))
    for i, mode in enumerate(modes):
        # dense resample for the oscillatory kernel
        dtau = min(12.0, 2.0 * math.pi / mode.k / 8.0)
        n = max(int(math.ceil((tau0 - mode.tau[0]) / dtau)), 32)
        t = np.linspace(mode.tau[0], tau0, n)
        hd = mode.h_dot_spline()(t)
        damping = thermo.exp_minus_kappa(t)
        x = mode.k * (tau0 - t)
        inv_x2 = 1.0 / np.maximum(x, 1e-8) ** 2
        src = -hd * damping * inv_x2
        for j, l in enumerate(l_values):
            geom = 0.5 * math.sqrt(
                (l + 2.0) * (l + 1.0) * l * (l - 1.0)
            )
            out[i, j] = geom * np.trapezoid(src * bessel.eval(int(l), x), t)
    return out


def cl_tensor(
    background: Background,
    thermo: ThermalHistory,
    l_values: np.ndarray,
    k: np.ndarray | None = None,
    n_t: float = 0.0,
    rtol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """The tensor temperature spectrum C_l^T (unnormalized).

    ``n_t = 0`` is the scale-invariant tensor spectrum.  The k-grid
    defaults to a log-linear hybrid covering l up to max(l_values).
    """
    l_values = np.asarray(l_values, dtype=int)
    tau0 = background.tau0
    if k is None:
        l_top = int(l_values.max())
        k_lo = 0.3 / tau0
        k_hi = 1.6 * l_top / tau0
        nk = max(40, int(3.0 * l_top / 10))
        k = np.linspace(k_lo, k_hi, nk)
    k = np.asarray(k, dtype=float)
    modes = [evolve_tensor_mode(background, float(ki), rtol=rtol)
             for ki in k]
    theta = tensor_theta_l(modes, thermo, tau0, l_values)
    from ..spectra.cl import cl_integrate_over_k

    cl = cl_integrate_over_k(k, theta, n_s=n_t + 1.0)
    return l_values, cl
