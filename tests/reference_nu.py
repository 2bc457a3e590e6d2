"""The massive-neutrino sums in plain numpy and python (frozen reference).

:func:`rho_integral` and :func:`pressure_integral` are the background's
momentum integrals as numpy vector expressions, and :func:`momentum_sums`
the three per-state sums of the massive hierarchy as numpy dots, row by
row — the package's own code until the compiled ``nu_integrals`` and
``momentum_rows`` of ``repro._cext`` took them over, to the same doubles.
:func:`blas_dot` writes out the order numpy's ``@`` of a contiguous
vector with a strided column takes on this numpy (OpenBLAS's
non-unit-stride ``ddot``), which ``momentum_rows`` transcribes; the tests
hold the compiled sums to both, so a numpy on another BLAS fails here
first, naming the order.  Do not "fix" this file to suit the C.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.background.nu_massive import (
    I_RHO_MASSLESS,
    fermi_dirac_f0,
    momentum_grid,
)

__all__ = ["rho_integral", "pressure_integral", "mass_slope",
           "solve_mass_parameter", "momentum_sums", "blas_dot", "fma"]


def rho_integral(x, q=None, w=None):
    """I_rho(x) = integral q^2 sqrt(q^2 + x^2) f0(q) dq, numpy's sum."""
    if q is None or w is None:
        q, w = momentum_grid(64, q_max=25.0)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eps = np.sqrt(q[None, :] ** 2 + x[:, None] ** 2)
    vals = np.sum(w * q**2 * eps * fermi_dirac_f0(q), axis=1)
    return float(vals[0]) if scalar else vals


def pressure_integral(x, q=None, w=None):
    """I_p(x) = (1/3) integral q^4 / sqrt(q^2 + x^2) f0(q) dq."""
    if q is None or w is None:
        q, w = momentum_grid(64, q_max=25.0)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eps = np.sqrt(q[None, :] ** 2 + x[:, None] ** 2)
    vals = np.sum(w * q**4 / eps * fermi_dirac_f0(q), axis=1) / 3.0
    return float(vals[0]) if scalar else vals


def mass_slope(x: float, q, w) -> float:
    """dI_rho/dx at x, the Newton slope of ``solve_mass_parameter``."""
    number = w * q**2 * fermi_dirac_f0(q)
    return float(np.sum(number * x / np.sqrt(q * q + x * x)))


def momentum_sums(system, rows: np.ndarray) -> np.ndarray:
    """``(3, m)``: each row's (w_rho eps).psi_0, w_q3.psi_1 and
    (w_q4 / eps).psi_2 of a :class:`PerturbationSystem` with a massive
    species, one numpy dot each."""
    m = len(rows)
    out = np.empty((3, m))
    a = rows[:, system.layout.A]
    psi = rows[:, system.layout.sl_psi].reshape(m, system.nq, -1)
    for i in range(m):
        eps = system.nu_eps(a[i])
        out[0, i] = (system._w_rho * eps) @ psi[i, :, 0]
        out[1, i] = system._w_q3 @ psi[i, :, 1]
        out[2, i] = (system._w_q4 / eps) @ psi[i, :, 2]
    return out


def fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once (exact rationals, then one rounding)."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def blas_dot(x, y) -> float:
    """numpy's ``x @ y`` of a contiguous ``x`` and a strided ``y`` in the
    order OpenBLAS's generic-stride ``ddot`` (kernel/x86_64/ddot.c) takes
    it, built with FMA contraction: of every four terms the products of
    (0, 2) go into one accumulator and those of (1, 3) into another, each
    term left over is fused into the first, then the two are added — and
    numpy's ``DOUBLE_dot`` adds the result to its 0.0."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    n = len(x)
    t1 = t2 = 0.0
    i = 0
    while i + 4 <= n:
        m1, m2 = y[i] * x[i], y[i + 1] * x[i + 1]
        m3, m4 = y[i + 2] * x[i + 2], y[i + 3] * x[i + 3]
        t1 += m1 + m3
        t2 += m2 + m4
        i += 4
    for j in range(i, n):
        t1 = fma(y[j], x[j], t1)
    return 0.0 + (t1 + t2)


def solve_mass_parameter(omega_nu: float, omega_nu_rel_equiv: float) -> float:
    """x0 = m / T_nu0 carrying ``omega_nu`` today: the bracketed Newton
    of ``repro.background.nu_massive.solve_mass_parameter`` over the
    numpy sums above."""
    if omega_nu <= 0.0:
        return 0.0
    target = omega_nu / omega_nu_rel_equiv * I_RHO_MASSLESS
    q, w = momentum_grid(96, q_max=30.0)
    number = w * q**2 * fermi_dirac_f0(q)

    def f(x: float) -> float:
        return rho_integral(x, q, w) - target

    lo, hi = 1e-6, 1e9
    if f(lo) > 0.0:
        raise ValueError("omega_nu smaller than the massless-equivalent density")
    while f(hi) < 0.0:
        hi *= 10.0
        if hi > 1e15:
            raise ValueError("mass parameter search diverged")
    x = min(max(target / float(np.sum(number)), lo), hi)
    for _ in range(200):
        fx = f(x)
        if fx < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - fx / mass_slope(x, q, w)
        if not lo <= x_new <= hi:
            x_new = math.sqrt(lo * hi)
        if abs(x_new - x) < 1e-13 * x:
            return x_new
        x = x_new
    raise ValueError("mass parameter search did not converge")
