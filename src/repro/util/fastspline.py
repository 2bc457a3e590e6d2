"""The repo's one cubic fit, its evaluator, and fast scalar evaluation
on uniform grids.

:func:`fit_cubic` is the not-a-knot cubic spline every table, source
and k-interpolation in the package is fitted with, assembled as the
standard scientific-python spline assembles it, solved by a
transcription of LAPACK's ``DGTSV`` and evaluated by
:class:`PiecewiseCubic` in that library's order of operations — its
bits without the dependency: the package imports numpy alone, and the
test suite imports the library as the oracle
(``tests/test_fastspline.py`` names the classes).

The Boltzmann right-hand side evaluates the Thomson opacity, baryon
sound speed and massive-neutrino background factors at every stage of
every Runge-Kutta step, so :class:`UniformGridCubic` takes the fit's
polynomial coefficients and evaluates them with plain float arithmetic
and an O(1) knot lookup (profiling-driven optimization, per the
optimizing-code guide).
"""

from __future__ import annotations

import math

import numpy as np

from .. import _cext
from ..errors import ParameterError

__all__ = ["fit_cubic", "PiecewiseCubic", "UniformGridCubic", "LogLogCubic"]


class PiecewiseCubic:
    """A piecewise polynomial of degree <= 3 on the breakpoints ``x``.

    ``c[k, i]`` is the coefficient of ``(t - x[i]) ** (len(c) - 1 - k)``
    on ``[x[i], x[i + 1])``, trailing axes are independent polynomials:
    the oracle's piecewise-polynomial layout, and its arithmetic — a
    call accumulates ``c3 + c2 s + c1 (s s) + c0 ((s s) s)`` term by
    term from the constant up, the two end pieces extrapolate, the
    right end belongs to the last piece and a NaN argument gives NaN —
    so values and derivatives are bitwise the oracle's.
    """

    __slots__ = ("c", "x")

    def __init__(self, c: np.ndarray, x: np.ndarray) -> None:
        self.c = c
        self.x = x

    def __call__(self, t) -> np.ndarray:
        """Values at ``t`` (any shape), shaped ``t.shape + c.shape[2:]``."""
        t = np.asarray(t, dtype=float)
        x, c = self.x, self.c
        i = np.minimum(np.maximum(x.searchsorted(t, "right") - 1, 0),
                       x.size - 2)
        s = (t - x[i]).reshape(t.shape + (1,) * (c.ndim - 2))
        coef = c[:, i]
        out = 0.0 + coef[-1]
        if len(coef) == 1:  # a constant: nothing else carries the NaN
            return np.where(np.isnan(s), s, out)
        z = s
        for row in coef[-2:0:-1]:
            out += row * z
            z = z * s
        out += coef[0] * z
        return out

    def knot_slopes(self) -> np.ndarray:
        """The first derivative at every breakpoint, bitwise
        ``derivative(1)(x)`` (two or more coefficient rows): at a
        piece's own left knot s = 0, so the call's sum is ``0.0 +
        c[-2]`` plus zeros; the right end belongs to the last piece and
        is evaluated."""
        out = np.empty(self.x.shape + self.c.shape[2:])
        np.add(0.0, self.c[-2], out=out[:-1])
        out[-1] = self.derivative(1)(self.x[-1])
        return out

    def derivative(self, n: int = 1) -> "PiecewiseCubic":
        """The ``n``-th derivative (``n >= 1``), one object per call."""
        k = self.c.shape[0] - n
        if k <= 0:
            return PiecewiseCubic(np.zeros((1,) + self.c.shape[1:]), self.x)
        # the rising factorials (k - j) ... (k - j + n - 1), exact
        power = np.arange(k, 0, -1)
        factor = np.ones(k)
        for m in range(n):
            factor *= power + m
        return PiecewiseCubic(
            self.c[:k] * factor.reshape((k,) + (1,) * (self.c.ndim - 1)),
            self.x)


def _tridiag_solve(dl: list, d: list, du: list, b: list) -> int:
    """Reference LAPACK's ``DGTSV`` on python lists: the twin of the
    compiled ``tridiag_solve`` (``repro._cext``, which documents it),
    bitwise.  ``b`` is a list of rows — floats for one right-hand side,
    arrays for several; every list is overwritten, ``b`` with the
    solution."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                return i + 1
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            if i < n - 2:
                dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            temp = d[i + 1]
            d[i] = dl[i]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        return n
    for i in range(n - 1, -1, -1):
        v = b[i]
        if i < n - 1:
            v = v - du[i] * b[i + 1]
        if i < n - 2:
            v = v - dl[i] * b[i + 2]
        b[i] = v / d[i]
    return 0


def _solve_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                       upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve in place for the ``(n, nrhs)`` C-contiguous ``b``: the
    compiled ``tridiag_solve`` where the process has the compiled
    object, its python twin where it has not."""
    n, nrhs = b.shape
    cext = _cext.get_cext()
    if cext is not None:
        info = cext.tridiag_raw(n, nrhs, lower.ctypes.data,
                                diag.ctypes.data, upper.ctypes.data,
                                b.ctypes.data)
    else:
        rows = b[:, 0].tolist() if nrhs == 1 else list(b.copy())
        info = _tridiag_solve(lower.tolist(), diag.tolist(),
                              upper.tolist(), rows)
        b[...] = np.reshape(rows, b.shape)
    if info != 0:
        raise ParameterError(f"fit_cubic: zero pivot in row {info} of the "
                             "tridiagonal solve")
    return b


def fit_cubic(x: np.ndarray, y: np.ndarray) -> PiecewiseCubic:
    """The not-a-knot cubic spline through ``(x, y)``, fitted along
    axis 0 of ``y`` (trailing axes are independent right-hand sides of
    one tridiagonal solve).

    The system is assembled expression for expression as the oracle
    assembles it — including its 2-knot (straight line) and 3-knot
    (parabola) cases — and solved as LAPACK's ``DGTSV`` solves it, so
    the ``(4, n - 1, ...)`` coefficients ``.c`` are ``array_equal`` to
    the oracle's (3 knots: it takes a dense solve there, and the two
    agree to rounding); ``.c[2]`` holds the solved first derivatives at
    every knot but the last.  ``x`` must be finite and strictly
    increasing and ``y`` finite: that is checked here, once, and raises
    :class:`ParameterError`.
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
    else:
        diag = np.empty(n)
        upper = np.empty(n - 1)
        lower = np.empty(n - 1)
        b = np.empty(y.shape)
        if n == 3:
            diag[0] = upper[0] = lower[1] = diag[2] = 1.0
            lower[0], diag[1], upper[1] = dx[1], 2 * (dx[0] + dx[1]), dx[0]
            b[0] = 2 * slope[0]
            b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
            b[2] = 2 * slope[1]
        else:
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
        s = _solve_tridiagonal(lower, diag, upper,
                               b.reshape(n, -1)).reshape(b.shape)

    # the cubic Hermite coefficients from values and slopes, written
    # into one block (the same operations as forming each and stacking)
    c = np.empty((4,) + slope.shape)
    t = s[:-1] + s[1:]
    t -= 2 * slope
    t /= dxr
    np.divide(t, dxr, out=c[0])
    np.subtract(slope, s[:-1], out=c[1])
    c[1] /= dxr
    c[1] -= t
    c[2] = s[:-1]
    c[3] = y[:-1]
    return PiecewiseCubic(c, x)


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
