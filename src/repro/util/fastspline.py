"""Fast scalar cubic-spline evaluation on uniform grids.

The Boltzmann right-hand side evaluates the Thomson opacity, baryon
sound speed and massive-neutrino background factors at every stage of
every Runge-Kutta step.  ``scipy.interpolate.CubicSpline.__call__`` has
tens-of-microseconds of overhead per scalar call, which would dominate
the integration, so this module extracts the spline's polynomial
coefficients once and evaluates them with plain float arithmetic
(profiling-driven optimization, per the optimizing-code guide).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = ["UniformGridCubic", "LogLogCubic"]


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
        # scipy stores c[k, i]: coefficient of (x - x_i)^(3-k) on piece i
        coef = CubicSpline(x, y).c
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
        """Vectorized evaluation (used per-batch by the batched RHS).

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
