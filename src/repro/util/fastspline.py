"""The repo's one cubic fit, and fast scalar evaluation on uniform grids.

:func:`fit_cubic` is the not-a-knot cubic spline every table, source
and k-interpolation in the package is fitted with: scipy's
``CubicSpline`` system, bit for bit, without the validation layers that
cost more than the solve.

The Boltzmann right-hand side evaluates the Thomson opacity, baryon
sound speed and massive-neutrino background factors at every stage of
every Runge-Kutta step.  ``PPoly.__call__`` has tens-of-microseconds of
overhead per scalar call, which would dominate the integration, so
:class:`UniformGridCubic` takes the fit's polynomial coefficients and
evaluates them with plain float arithmetic (profiling-driven
optimization, per the optimizing-code guide).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import solve
from scipy.linalg.lapack import dgtsv

from ..errors import ParameterError

__all__ = ["fit_cubic", "UniformGridCubic", "LogLogCubic"]


def fit_cubic(x: np.ndarray, y: np.ndarray) -> PPoly:
    """The not-a-knot cubic spline through ``(x, y)``, fitted along
    axis 0 of ``y`` (trailing axes are independent right-hand sides of
    one tridiagonal solve).

    The system is assembled expression for expression as
    ``scipy.interpolate.CubicSpline(x, y)`` assembles it — including
    its 2-knot (straight line) and 3-knot (parabola) cases — and solved
    by the LAPACK routine ``solve_banded((1, 1), ...)`` reaches, so the
    ``(4, n - 1, ...)`` coefficients ``.c`` are ``array_equal`` to
    ``CubicSpline(x, y).c``; ``.c[2]`` holds the solved first
    derivatives at every knot but the last.  The returned ``PPoly``
    evaluates (and differentiates) bitwise like the ``CubicSpline``.
    ``x`` must be finite and strictly increasing and ``y`` finite: that
    is checked here, once, and raises :class:`ParameterError`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 2 or y.shape[:1] != (n,):
        raise ParameterError(
            f"fit_cubic needs >= 2 knots and y of matching length: "
            f"x {x.shape}, y {y.shape}"
        )
    dx = np.diff(x)
    if not (np.all(dx > 0.0) and math.isfinite(x[0])
            and math.isfinite(x[-1])):
        raise ParameterError(
            "fit_cubic knots must be finite and strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ParameterError("fit_cubic values must be finite")

    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n == 2:
        s = np.stack((slope[0], slope[0]))
    elif n == 3:
        a = np.array([[1.0, 1.0, 0.0],
                      [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                      [0.0, 1.0, 1.0]])
        b = np.empty_like(y)
        b[0] = 2 * slope[0]
        b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
        b[2] = 2 * slope[1]
        s = solve(a, b.reshape(3, -1), overwrite_a=True, overwrite_b=True,
                  check_finite=False).reshape(b.shape)
    else:
        diag = np.empty(n)
        upper = np.empty(n - 1)
        lower = np.empty(n - 1)
        b = np.empty_like(y)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        diag[0] = dx[1]
        upper[0] = d = x[2] - x[0]
        b[0] = ((dxr[0] + 2*d) * dxr[1] * slope[0]
                + dxr[0]**2 * slope[1]) / d
        diag[-1] = dx[-2]
        lower[-1] = d = x[-1] - x[-3]
        b[-1] = (dxr[-1]**2 * slope[-2]
                 + (2*d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        *_, s, info = dgtsv(lower, diag, upper, b.reshape(n, -1),
                            overwrite_dl=True, overwrite_d=True,
                            overwrite_du=True, overwrite_b=True)
        if info != 0:
            raise ParameterError(f"fit_cubic: dgtsv failed (info={info})")
        s = s.reshape(b.shape)

    # scipy's CubicHermiteSpline coefficients from values and slopes
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return PPoly.construct_fast(c, x)


class UniformGridCubic:
    """Cubic spline over a *uniformly spaced* knot vector.

    Knot lookup is an O(1) index computation instead of a binary
    search.  Evaluation outside the knot range clamps to the end
    polynomials (constant extrapolation of the outermost cubic piece).
    """

    __slots__ = ("x0", "dx", "n", "c0", "c1", "c2", "c3", "_coef", "_x", "_y")

    def __init__(self, x: np.ndarray, y: np.ndarray,
                 out: np.ndarray | None = None) -> None:
        """``out``, if given, is a ``(4, len(x) - 1)`` array that becomes
        the coefficient storage, so splines sharing a knot vector can
        sit in one contiguous pack (rows c3, c2, c1, c0 per spline)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = np.diff(x)
        if not np.allclose(dx, dx[0], rtol=1e-8):
            raise ValueError("UniformGridCubic requires a uniform grid")
        # c[k, i]: coefficient of (x - x_i)^(3-k) on piece i
        coef = fit_cubic(x, y).c
        if out is not None:
            out[...] = coef
            coef = out
        self.x0 = float(x[0])
        self.dx = float(dx[0])
        self.n = len(x) - 1
        self._coef = coef
        self.c3, self.c2, self.c1, self.c0 = coef  # row views
        self._x = x
        self._y = y

    def __call__(self, x: float) -> float:
        i = int((x - self.x0) / self.dx)
        if i < 0:
            i = 0
        elif i >= self.n:
            i = self.n - 1
        t = x - (self.x0 + i * self.dx)
        return ((self.c3[i] * t + self.c2[i]) * t + self.c1[i]) * t + self.c0[i]

    def derivative(self, x: float) -> float:
        i = int((x - self.x0) / self.dx)
        if i < 0:
            i = 0
        elif i >= self.n:
            i = self.n - 1
        t = x - (self.x0 + i * self.dx)
        return (3.0 * self.c3[i] * t + 2.0 * self.c2[i]) * t + self.c1[i]

    def vector(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (the record pass, the thermal tables).

        Bitwise-identical to looping :meth:`__call__`: identical index
        arithmetic and Horner grouping, with the four coefficient
        gathers fused into one fancy-indexed gather.  Accepts any
        input shape (the result has the same shape).
        """
        x = np.asarray(x, dtype=float)
        # minimum/maximum instead of np.clip: same result, and np.clip's
        # bound handling is an order of magnitude slower on small arrays
        i = np.minimum(
            np.maximum(((x - self.x0) / self.dx).astype(np.intp), 0),
            self.n - 1,
        )
        t = x - (self.x0 + i * self.dx)
        c3, c2, c1, c0 = self._coef[:, i]
        return ((c3 * t + c2) * t + c1) * t + c0


class LogLogCubic:
    """Cubic interpolation of log(y) versus log(x) on a log-uniform grid.

    Natural representation for positive, power-law-like quantities
    (opacity, densities).  Guarantees positivity of the interpolant.
    """

    __slots__ = ("_spline",)

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise ValueError("LogLogCubic requires strictly positive y")
        self._spline = UniformGridCubic(np.log(np.asarray(x, dtype=float)),
                                        np.log(y))

    def __call__(self, x: float) -> float:
        return math.exp(self._spline(math.log(x)))

    def log_derivative(self, x: float) -> float:
        """d ln y / d ln x at x."""
        return self._spline.derivative(math.log(x))

    def vector(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self._spline.vector(np.log(np.asarray(x, dtype=float))))
