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

from .. import _cext
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


@functools.lru_cache(maxsize=None)
def _rule(nq: int, q_max: float) -> tuple[np.ndarray, ...]:
    """:func:`_weights` of ``momentum_grid(nq, q_max)``, once per rule."""
    return _weights(*momentum_grid(nq, q_max=q_max))


def _weights(q, w) -> tuple[np.ndarray, ...]:
    """``(q, w q^2, w q^4, f0)``: what the compiled integrals weigh each
    node by, formed by numpy (its power and exp are not libm's)."""
    q, w = np.asarray(q, dtype=float), np.asarray(w, dtype=float)
    return tuple(np.ascontiguousarray(a) for a in
                 (q, w * q**2, w * q**4, fermi_dirac_f0(q)))


def _integrals(x, rule, slope=False):
    """The compiled ``nu_integrals`` at the abscissae ``x`` over a
    :func:`_weights` rule: a ``(3, n)`` array whose rows are I_rho,
    I_p and, if ``slope``, dI_rho/dx."""
    x = np.ascontiguousarray(x, dtype=float)
    q = rule[0]
    out = np.empty((3, x.size))
    row = np.empty(3 * q.size)
    _cext.get_cext().nu_raw(
        x.size, x.ctypes.data, q.size, *(a.ctypes.data for a in rule),
        out[0].ctypes.data, out[1].ctypes.data,
        out[2].ctypes.data if slope else None, row.ctypes.data)
    return out


def _integral(x, q, w, row: int):
    """Row ``row`` of :func:`_integrals` at ``x``, scalar in, scalar
    out; array in, array out."""
    rule = _rule(64, 25.0) if q is None or w is None else _weights(q, w)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    vals = _integrals(np.atleast_1d(np.asarray(x, dtype=float)), rule)[row]
    return float(vals[0]) if scalar else vals


def rho_integral(x, q=None, w=None):
    """I_rho(x) = integral q^2 sqrt(q^2 + x^2) f0(q) dq for x = a m / T_nu0.

    Scalar in, scalar out; array in, array out.  One compiled pass over
    the nodes (default: ``momentum_grid(64, q_max=25.0)``), bitwise the
    numpy sum ``tests/reference_nu.py`` keeps.
    """
    return _integral(x, q, w, 0)


def pressure_integral(x, q=None, w=None):
    """I_p(x) = (1/3) integral q^4 / sqrt(q^2 + x^2) f0(q) dq.

    Scalar in, scalar out; array in, array out (as :func:`rho_integral`).
    """
    return _integral(x, q, w, 1)


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
    is below 1e-13 of x0.  Each evaluation — I_rho and its slope — is
    one compiled call on the 96-node rule.
    """
    if omega_nu <= 0.0:
        return 0.0
    target = omega_nu / omega_nu_rel_equiv * I_RHO_MASSLESS
    rule = _rule(96, 30.0)

    def f(x: float) -> tuple[float, float]:
        """I_rho(x) - target and dI_rho/dx, by one compiled call."""
        rho, _, slope = _integrals([x], rule, slope=True)[:, 0].tolist()
        return rho - target, slope

    lo, hi = 1e-6, 1e9
    if f(lo)[0] > 0.0:
        raise ValueError("omega_nu smaller than the massless-equivalent density")
    while f(hi)[0] < 0.0:
        hi *= 10.0
        if hi > 1e15:
            raise ValueError("mass parameter search diverged")
    # I_rho -> x * sum(w q^2 f0) for x >> q
    x = min(max(target / float(np.sum(rule[1] * rule[3])), lo), hi)
    for _ in range(200):
        fx, dfx = f(x)
        if fx < 0.0:
            lo = x
        else:
            hi = x
        x_new = x - fx / dfx
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
        rho, p, _ = _integrals(x, _rule(96, 30.0))
        lnx = np.log(x)
        pack = np.empty((8, n_table - 1))
        return cls(
            x0=x0,
            _log_rho_spline=UniformGridCubic(lnx, np.log(rho), out=pack[:4]),
            _log_p_spline=UniformGridCubic(lnx, np.log(p), out=pack[4:]),
            x_min=x_min,
            x_max=x_max,
            _rhs_pack=pack,
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
