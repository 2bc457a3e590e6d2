"""Massive-neutrino phase-space machinery.

LINGER's distinguishing accuracy feature is that massive neutrinos are
never treated as a fluid: their perturbations are followed with a full
Boltzmann hierarchy *per comoving momentum* ``q`` and the stress-energy
is obtained by integrating over the momentum grid at every step.  This
module provides the unperturbed Fermi-Dirac distribution, the momentum
quadrature, and the background energy/pressure integrals

    rho_nu(a) a^4  ~  integral q^2 eps(q, a) f0(q) dq,
    p_nu(a)   a^4  ~  (1/3) integral q^4 / eps(q, a) f0(q) dq,

with ``eps = sqrt(q^2 + (a m/T_nu0)^2)`` and ``q`` in units of the
neutrino temperature today.  Everything is normalized to the massless
value ``I_rho(0) = 7 pi^4 / 120`` so densities can be expressed as a
correction factor on the massless-equivalent density.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..util.fastspline import UniformGridCubic

__all__ = [
    "fermi_dirac_f0",
    "dlnf0_dlnq",
    "momentum_grid",
    "I_RHO_MASSLESS",
    "rho_integral",
    "pressure_integral",
    "MassiveNuTables",
    "solve_mass_parameter",
]

#: I_rho(0) = integral q^3/(e^q+1) dq = 7 pi^4 / 120.
I_RHO_MASSLESS = 7.0 * math.pi**4 / 120.0


def fermi_dirac_f0(q):
    """Unperturbed Fermi-Dirac occupation 1/(e^q + 1) (zero chemical potential)."""
    q = np.asarray(q, dtype=float)
    return 1.0 / (np.exp(np.minimum(q, 700.0)) + 1.0)


def dlnf0_dlnq(q):
    """Logarithmic slope d ln f0 / d ln q = -q / (1 + e^-q)."""
    q = np.asarray(q, dtype=float)
    return -q / (1.0 + np.exp(-np.minimum(q, 700.0)))


@functools.lru_cache(maxsize=None)
def _leggauss(nq: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], solved once per order (an
    eigenproblem: 5 ms at the 96 nodes every massive background uses
    twice).  Read-only, since every caller shares the arrays."""
    x, w = np.polynomial.legendre.leggauss(nq)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def momentum_grid(nq: int, q_max: float = 18.0) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, q_max] for momentum integrals.

    Returns ``(q, w)`` such that ``integral g(q) dq ~ sum(w * g(q))``.
    The Fermi-Dirac weight decays like e^-q, so q_max = 18 keeps the
    truncation error below ~1e-7 of the integral.
    """
    if nq < 2:
        raise ValueError("need at least 2 momentum nodes")
    x, w = _leggauss(nq)
    q = 0.5 * q_max * (x + 1.0)
    w = 0.5 * q_max * w
    return q, w


def rho_integral(x, q=None, w=None):
    """I_rho(x) = integral q^2 sqrt(q^2 + x^2) f0(q) dq for x = a m / T_nu0.

    Scalar in, scalar out; array in, array out.
    """
    if q is None or w is None:
        q, w = momentum_grid(64, q_max=25.0)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eps = np.sqrt(q[None, :] ** 2 + x[:, None] ** 2)
    vals = np.sum(w * q**2 * eps * fermi_dirac_f0(q), axis=1)
    return float(vals[0]) if scalar else vals


def pressure_integral(x, q=None, w=None):
    """I_p(x) = (1/3) integral q^4 / sqrt(q^2 + x^2) f0(q) dq.

    Scalar in, scalar out; array in, array out.
    """
    if q is None or w is None:
        q, w = momentum_grid(64, q_max=25.0)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eps = np.sqrt(q[None, :] ** 2 + x[:, None] ** 2)
    vals = np.sum(w * q**4 / eps * fermi_dirac_f0(q), axis=1) / 3.0
    return float(vals[0]) if scalar else vals


def solve_mass_parameter(omega_nu: float, omega_nu_rel_equiv: float) -> float:
    """Solve for x0 = m / T_nu0 such that the massive species carries
    ``omega_nu`` today.

    The massive-neutrino density today is the massless-equivalent
    density scaled by ``I_rho(x0) / I_rho(0)``, so x0 solves

        omega_nu_rel_equiv * I_rho(x0) / I_rho(0) = omega_nu.

    The left side increases monotonically and is convex in x0, so
    Newton's method from the non-relativistic asymptote
    ``I_rho(x) -> x * integral q^2 f0 dq`` (which lies at or above the
    root) converges from above in a handful of evaluations.  Every
    iterate is kept inside the bracket [1e-6, 1e9]; a step that leaves
    it is replaced by the geometric midpoint.  Converged when the step
    is below 1e-13 of x0.
    """
    if omega_nu <= 0.0:
        return 0.0
    target = omega_nu / omega_nu_rel_equiv * I_RHO_MASSLESS
    q, w = momentum_grid(96, q_max=30.0)
    number = w * q**2 * fermi_dirac_f0(q)  # dI_rho/dx = sum(number x / eps)

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
        x_new = x - fx / float(np.sum(number * x / np.sqrt(q * q + x * x)))
        if not lo <= x_new <= hi:
            x_new = math.sqrt(lo * hi)
        if abs(x_new - x) < 1e-13 * x:
            return x_new
        x = x_new
    raise ValueError("mass parameter search did not converge")


@dataclass(frozen=True)
class MassiveNuTables:
    """Splined background integrals for one massive neutrino species.

    Attributes
    ----------
    x0:
        Mass parameter ``m / T_nu0``; the argument of the integrals at
        scale factor ``a`` is ``x = a * x0``.
    """

    x0: float
    #: ln I_rho and ln I_p against ln x on the table's own log-uniform
    #: knots: the one pair of splines the background rates, the
    #: perturbation operator and its compiled kernels all evaluate
    _log_rho_spline: UniformGridCubic
    _log_p_spline: UniformGridCubic
    x_min: float
    x_max: float
    #: raw knot data kept for bit-exact cache round-trips
    _lnx: np.ndarray | None = None
    _log_rho: np.ndarray | None = None
    _log_p: np.ndarray | None = None
    #: the two splines' coefficient rows in one contiguous (8, pieces)
    #: block (c3..c0 of ln I_rho, then of ln I_p): what the compiled
    #: kernels read
    _rhs_pack: np.ndarray | None = None

    @classmethod
    def build(cls, x0: float, n_table: int = 400) -> "MassiveNuTables":
        if x0 <= 0.0:
            raise ValueError("x0 must be positive for a massive species")
        x_min, x_max = 1e-8 * max(x0, 1.0), 10.0 * max(x0, 1.0)
        x = np.geomspace(x_min, x_max, n_table)
        q, w = momentum_grid(96, q_max=30.0)
        rho = rho_integral(x, q, w)
        p = pressure_integral(x, q, w)
        return cls._from_knots(x0, x_min, x_max, np.log(x), np.log(rho),
                               np.log(p))

    @classmethod
    def _from_knots(cls, x0, x_min, x_max, lnx, log_rho,
                    log_p) -> "MassiveNuTables":
        pack = np.empty((8, lnx.size - 1))
        return cls(
            x0=x0,
            _log_rho_spline=UniformGridCubic(lnx, log_rho, out=pack[:4]),
            _log_p_spline=UniformGridCubic(lnx, log_p, out=pack[4:]),
            x_min=x_min,
            x_max=x_max,
            _lnx=lnx,
            _log_rho=log_rho,
            _log_p=log_p,
            _rhs_pack=pack,
        )

    def to_tables(self) -> dict[str, np.ndarray]:
        """The q-grid integrals as primitive arrays (precompute cache)."""
        return {
            "x0": np.float64(self.x0),
            "x_min": np.float64(self.x_min),
            "x_max": np.float64(self.x_max),
            "lnx": self._lnx,
            "log_rho": self._log_rho,
            "log_p": self._log_p,
        }

    @classmethod
    def from_tables(cls, tables: dict) -> "MassiveNuTables":
        """Rebuild from :meth:`to_tables` output; the splines are
        re-fit from the same knot data, so evaluation is bit-identical."""
        return cls._from_knots(
            float(tables["x0"]),
            float(tables["x_min"]),
            float(tables["x_max"]),
            np.asarray(tables["lnx"], dtype=float),
            np.asarray(tables["log_rho"], dtype=float),
            np.asarray(tables["log_p"], dtype=float),
        )

    def _integral(self, spline: UniformGridCubic, a):
        """exp of a knot spline at x = a x0 clipped to the table; python
        float in, python float out (plain ``math``), else arrays."""
        if type(a) is float:
            x = min(max(a * self.x0, self.x_min), self.x_max)
            return math.exp(spline(math.log(x)))
        x = np.clip(np.asarray(a, dtype=float) * self.x0, self.x_min, self.x_max)
        return np.exp(spline.vector(np.log(x)))

    def rho_factor(self, a):
        """rho_nu(a) / rho_nu,massless(a): the I_rho(a x0)/I_rho(0) factor."""
        return self._integral(self._log_rho_spline, a) / I_RHO_MASSLESS

    def pressure_factor(self, a):
        """3 p_nu(a) / rho_nu,massless(a): relativistic limit -> 1."""
        return 3.0 * self._integral(self._log_p_spline, a) / I_RHO_MASSLESS
