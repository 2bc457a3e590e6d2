"""Recombination microphysics: Saha equilibria and the Peebles atom.

Conventions
-----------
``x_H`` is the hydrogen ionization fraction n_p / n_H;
``x_e`` is the free-electron fraction n_e / n_H (can exceed 1 when
helium is ionized).  ``f_He = n_He / n_H = Y / (4 (1 - Y))``.

The Saha solver handles the three coupled equilibria (H, He I, He II)
self-consistently: one monotone equation in x_e, solved by a bracketed
Newton iteration.  The Peebles
three-level-atom ODE (Peebles 1968) takes over for hydrogen once the
Saha ionization fraction drops below ~0.99, exactly the classic scheme
used by COSMICS-era codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import constants as const
from ..errors import IntegrationError

__all__ = ["saha_electron_fraction", "PeeblesRates", "peebles_rhs"]


def _saha_factor(t_kelvin, chi_erg: float):
    """(m_e k T / 2 pi hbar^2)^{3/2} e^{-chi/kT}  [cm^-3].

    The thermal de Broglie factor times the Boltzmann suppression that
    appears in every Saha equation.  Underflows cleanly to 0.  A python
    float or an array of temperatures.
    """
    kt = const.K_BOLTZMANN * t_kelvin
    prefac = (const.M_ELECTRON * kt / (2.0 * math.pi * const.HBAR**2)) ** 1.5
    arg = chi_erg / kt
    if type(arg) is float:
        return 0.0 if arg > 650.0 else prefac * math.exp(-arg)
    return np.where(arg > 650.0, 0.0, prefac * np.exp(-np.minimum(arg, 650.0)))


#: Iteration cap of the Saha root-finder.  Newton needs 1-4; the cap is
#: what geometric bisection alone would need to reach 1e-14 on the widest
#: bracket a float64 x_e allows, so reaching it means a broken residual.
_SAHA_MAX_ITER = 64


def _saha_residual(
    x_e: float, s_h: float, s_he1: float, s_he2: float, f_he: float
) -> tuple[float, float, float, float, float]:
    """Charge-neutrality residual of the Saha system at a trial ``x_e``.

    ``s_*`` are the Saha factors per hydrogen nucleus (divided by n_H),
    so with n_e = x_e n_H the three equilibria read

        x_H   / (1 - x_H) = s_h   / x_e
        x_HeII / x_HeI    = s_he1 / x_e
        x_HeIII/ x_HeII   = s_he2 / x_e

    and are solved here in closed form for the fractions.  Returns
    ``(g, dg/dx_e, x_H, x_HeII, x_HeIII)`` with
    ``g = x_H + f_He (x_HeII + 2 x_HeIII) - x_e``, which decreases
    strictly in ``x_e``: one root.
    """
    h_den = x_e + s_h
    x_h = s_h / h_den
    # helium over x_e, not x_e^2: no square of a fraction that may be
    # 1e-140 ever forms (nor the bare product of two factors that may
    # be 1e-100 and 1e-230 and would lose its digits as a denormal)
    q = s_he1 * (s_he2 / x_e)
    he_den = x_e + s_he1 + q
    x_he2 = s_he1 / he_den
    x_he3 = q / he_den
    g = x_h + f_he * (x_he2 + 2.0 * x_he3) - x_e
    dg = (
        -x_h / h_den
        - f_he * (x_he2 + x_he3 * (4.0 + s_he1 / x_e)) / he_den
        - 1.0
    )
    return g, dg, x_h, x_he2, x_he3


def saha_electron_fraction(
    t_kelvin: float,
    n_h_cgs: float,
    f_he: float,
) -> tuple[float, float, float, float]:
    """Solve the coupled H / He I / He II Saha equilibria.

    The three equilibria and charge neutrality reduce to one monotone
    equation in x_e (see :func:`_saha_residual`).  It is solved by
    Newton's method, started from the hydrogen-only Saha quadratic (a
    lower bound on the root, exact once helium is neutral) and kept
    inside the bracket [that start, 1 + 2 f_He]; a step that leaves the
    bracket is replaced by its geometric midpoint.  Converged when the
    step is below 1e-14 of x_e.

    Parameters
    ----------
    t_kelvin:
        Matter (= radiation, at these epochs) temperature [K].
    n_h_cgs:
        Total hydrogen number density [cm^-3].
    f_he:
        Helium-to-hydrogen number ratio.

    Returns
    -------
    (x_e, x_H, x_HeII, x_HeIII):
        Free-electron fraction (per hydrogen) and the ionized fractions
        of H (n_p/n_H), He+ (n_He+/n_He), He++ (n_He++/n_He).

    Raises
    ------
    IntegrationError
        If the iteration has not converged within its cap.
    """
    s_h = _saha_factor(t_kelvin, const.E_ION_H) / n_h_cgs
    if s_h == 0.0:
        # hydrogen's factor is the last to underflow: everything is neutral
        return 0.0, 0.0, 0.0, 0.0
    # statistical weights: 2 g_+ / g_0 -> H: 2*1/2 = 1; HeI: 2*2/1 = 4;
    # HeII: 2*1/2 = 1.
    s_he1 = 4.0 * _saha_factor(t_kelvin, const.E_ION_HE1) / n_h_cgs
    s_he2 = 1.0 * _saha_factor(t_kelvin, const.E_ION_HE2) / n_h_cgs

    # hydrogen only: x^2 + s_h x - s_h = 0, in the cancellation-free form
    lo = 2.0 * s_h / (s_h + math.sqrt(s_h * s_h + 4.0 * s_h))
    hi = 1.0 + 2.0 * f_he
    x_e = lo
    for _ in range(_SAHA_MAX_ITER):
        g, dg, x_h, x_he2, x_he3 = _saha_residual(
            x_e, s_h, s_he1, s_he2, f_he
        )
        if g > 0.0:
            lo = x_e
        else:
            hi = x_e
        x_new = x_e - g / dg
        if not lo <= x_new <= hi:
            x_new = math.sqrt(lo * hi)
        if abs(x_new - x_e) < 1e-14 * x_e:
            return x_new, x_h, x_he2, x_he3
        x_e = x_new
    raise IntegrationError(
        f"Saha equilibrium did not converge in {_SAHA_MAX_ITER} iterations "
        f"(T = {t_kelvin!r} K, n_H = {n_h_cgs!r} cm^-3, f_He = {f_he!r})"
    )


def _saha_sweeps(
    t_kelvin: np.ndarray, n_h_cgs: np.ndarray, f_he: float,
    s_h: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`saha_electron_fraction` over arrays of epochs at once.

    The same residual, start, bracket and stop, with every point still
    iterating advanced by one Newton step per sweep; a point leaves the
    sweep the moment its own step passes the stop, so it ends on the
    iterate the scalar solver ends on (and on the same one whichever
    other points share its sweeps).  ``s_h``, hydrogen's Saha factor
    per nucleus at these epochs, is formed here unless the caller
    already has it.  Returns the four fractions and the number of
    sweeps the slowest point needed.
    """
    out = np.zeros((4, t_kelvin.size))  # underflowed points stay neutral
    if s_h is None:
        s_h = _saha_factor(t_kelvin, const.E_ION_H) / n_h_cgs
    live = np.flatnonzero(s_h > 0.0)
    t_kelvin, n_h_cgs, s_h = t_kelvin[live], n_h_cgs[live], s_h[live]
    s_he1 = 4.0 * _saha_factor(t_kelvin, const.E_ION_HE1) / n_h_cgs
    s_he2 = 1.0 * _saha_factor(t_kelvin, const.E_ION_HE2) / n_h_cgs
    lo = 2.0 * s_h / (s_h + np.sqrt(s_h * s_h + 4.0 * s_h))
    hi = np.full_like(lo, 1.0 + 2.0 * f_he)
    x_e = lo
    for sweep in range(1, _SAHA_MAX_ITER + 1):
        g, dg, *fractions = _saha_residual(x_e, s_h, s_he1, s_he2, f_he)
        rising = g > 0.0
        lo = np.where(rising, x_e, lo)
        hi = np.where(rising, hi, x_e)
        x_new = x_e - g / dg
        x_new = np.where((lo <= x_new) & (x_new <= hi), x_new,
                         np.sqrt(lo * hi))
        done = np.abs(x_new - x_e) < 1e-14 * x_e
        out[:, live[done]] = x_new[done], *(f[done] for f in fractions)
        if done.all():
            return *out, sweep
        go = ~done
        live, x_e, lo, hi = live[go], x_new[go], lo[go], hi[go]
        s_h, s_he1, s_he2 = s_h[go], s_he1[go], s_he2[go]
    raise IntegrationError(
        f"Saha equilibrium did not converge in {_SAHA_MAX_ITER} sweeps "
        f"at {live.size} of {out.shape[1]} epochs (f_He = {f_he!r})"
    )


@dataclass(frozen=True)
class PeeblesRates:
    """The rate coefficients of the Peebles three-level atom at one epoch."""

    alpha2: float  #: case-B-like recombination coefficient [cm^3 s^-1]
    beta: float  #: photoionization rate from n=2 at ground-state energy [s^-1]
    beta2: float  #: effective photoionization rate with the n=2 energy [s^-1]
    lambda_alpha: float  #: Lyman-alpha escape rate per n=2 atom [s^-1]
    c_peebles: float  #: the Peebles suppression factor C in [0, 1]

    @classmethod
    def at(
        cls,
        t_kelvin: float,
        n_h_cgs: float,
        x_h: float,
        hubble_s: float,
    ) -> "PeeblesRates":
        """Evaluate the rates at matter temperature ``t_kelvin``.

        Parameters
        ----------
        hubble_s:
            Proper Hubble rate [s^-1] (sets the Lyman-alpha escape rate).
        """
        kt = const.K_BOLTZMANN * t_kelvin
        eps = const.E_ION_H / kt
        phi2 = max(0.448 * math.log(max(eps, 1.0 + 1e-12)), 0.0)
        alpha2 = 9.78e-14 * math.sqrt(eps) * phi2  # cm^3/s (Peebles form)

        thermal = (
            const.M_ELECTRON * kt / (2.0 * math.pi * const.HBAR**2)
        ) ** 1.5
        beta = alpha2 * thermal * (math.exp(-eps) if eps < 650.0 else 0.0)
        # beta2 = beta * exp(3 eps/4) computed directly to avoid overflow:
        beta2 = alpha2 * thermal * (math.exp(-eps / 4.0) if eps < 2600.0 else 0.0)

        n_1s = max((1.0 - x_h) * n_h_cgs, 1e-300)
        lam_alpha = (
            hubble_s
            * (3.0 * const.E_ION_H / (const.HBAR * const.C_LIGHT)) ** 3
            / ((8.0 * math.pi) ** 2 * n_1s)
        )
        c_peebles = (const.LAMBDA_2S_1S + lam_alpha) / (
            const.LAMBDA_2S_1S + lam_alpha + beta2
        )
        return cls(alpha2, beta, beta2, lam_alpha, c_peebles)


def peebles_rhs(
    x_h: float,
    t_baryon_k: float,
    n_h_cgs: float,
    n_e_cgs: float,
    hubble_s: float,
) -> float:
    """dx_H/dt [s^-1] from the Peebles three-level atom.

    ``n_e_cgs`` is the free-electron density (includes any helium
    electrons still around at the start of hydrogen recombination).
    """
    x_h = min(max(x_h, 0.0), 1.0)
    rates = PeeblesRates.at(t_baryon_k, n_h_cgs, x_h, hubble_s)
    recomb = rates.alpha2 * n_e_cgs * x_h
    ionize = rates.beta * (1.0 - x_h)
    return rates.c_peebles * (ionize - recomb)
