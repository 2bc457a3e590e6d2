"""The repo's one cubic fit, its evaluator, and fast scalar evaluation
on uniform grids.

:func:`fit_cubic` is the not-a-knot cubic spline every table, source
and k-interpolation in the package is fitted with, assembled as the
standard scientific-python spline assembles it and solved as LAPACK's
``DGTSV`` solves it — both by the compiled ``cubic_fit``
(``repro._cext``) from four knots up — and evaluated by
:class:`PiecewiseCubic` in that library's order of operations: its
bits without the dependency (the package imports numpy alone; the
test suite imports the library as the oracle, and
``tests/test_fastspline.py`` names the classes).

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
        # one coefficient row gathered (copied) at a time, its term
        # formed in place: two arrays of the output's size are live
        out = c[-1].take(i, axis=0)
        out += 0.0
        if len(c) == 1:  # a constant: nothing else carries the NaN
            return np.where(np.isnan(s), s, out)
        z = s
        for row in range(len(c) - 2, -1, -1):
            term = c[row].take(i, axis=0)
            term *= z
            out += term
            del term
            if row:
                z = z * s
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


def fit_cubic(x: np.ndarray, y: np.ndarray,
              out: np.ndarray | None = None) -> PiecewiseCubic:
    """The not-a-knot cubic spline through ``(x, y)``, fitted along
    axis 0 of ``y`` (trailing axes are independent right-hand sides of
    one tridiagonal solve).

    The system is assembled expression for expression as the oracle
    assembles it — including its 2-knot (straight line) and 3-knot
    (parabola) cases — and solved as LAPACK's ``DGTSV`` solves it, so
    the ``(4, n - 1, ...)`` coefficients ``.c`` are ``array_equal`` to
    the oracle's (3 knots: it takes a dense solve there, and the two
    agree to rounding); ``.c[2]`` holds the solved first derivatives at
    every knot but the last; ``out``, C-contiguous and of that shape,
    receives them in place of a new array.  From four knots up the
    compiled ``cubic_fit`` does it all.  Each trailing column is bitwise
    the fit of that column alone: the end rows square the end spacings
    as the oracle's 1-D fit does (libm ``pow``, taken here), where its
    stacked fit multiplies — the two differ in the last bit for about
    one spacing in a thousand.  ``x`` must be finite and strictly
    increasing and ``y`` finite: that is checked here, once, and raises
    :class:`ParameterError`.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 2 or y.shape[:1] != (n,):
        raise ParameterError(
            f"fit_cubic needs >= 2 knots and y of matching length: "
            f"x {x.shape}, y {y.shape}"
        )
    if not (np.all(x[1:] > x[:-1]) and math.isfinite(x[0])
            and math.isfinite(x[-1])):
        raise ParameterError(
            "fit_cubic knots must be finite and strictly increasing")
    if not np.all(np.isfinite(y)):
        raise ParameterError("fit_cubic values must be finite")
    shape = (4, n - 1) + y.shape[1:]
    if out is None:
        out = np.empty(shape)
    elif not (out.shape == shape and out.flags.c_contiguous
              and out.dtype == float):
        raise ParameterError(f"fit_cubic out must be C-contiguous {shape}")
    m = y[0].size
    if n >= 4:
        work = np.empty(2 * n)
        info = _cext.get_cext().fit_raw(
            n, m, x.ctypes.data, y.ctypes.data, (x[1] - x[0])**2,
            (x[-1] - x[-2])**2, out.ctypes.data, work.ctypes.data)
    else:
        # a line, or a parabola's 3x3 system solved by the compiled
        # DGTSV; the Hermite coefficients from values and slopes
        dx = np.diff(x)
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        s, info = np.stack((slope[0], slope[0])), 0
        if n == 3:
            s = np.array([2 * slope[0], 3 * (dxr[0] * slope[1]
                                             + dxr[1] * slope[0]),
                          2 * slope[1]])
            bands = [np.array(v) for v in (  # lower, diagonal, upper
                [dx[1], 1.0], [1.0, 2 * (dx[0] + dx[1]), 1.0], [1.0, dx[0]])]
            info = _cext.get_cext().tridiag_raw(
                3, m, *(band.ctypes.data for band in bands), s.ctypes.data)
        t = s[:-1] + s[1:]
        t -= 2 * slope
        t /= dxr
        np.divide(t, dxr, out=out[0])
        np.subtract(slope, s[:-1], out=out[1])
        out[1] /= dxr
        out[1] -= t
        out[2] = s[:-1]
        out[3] = y[:-1]
    if info != 0:
        raise ParameterError(f"fit_cubic: zero pivot in row {info} of the "
                             "tridiagonal solve")
    return PiecewiseCubic(out, x)


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
        # relative alone (allclose's atol would pass any knots closer
        # than 1e-8), and without allclose's passes for infinities
        if not np.all(np.abs(dx - dx[0]) <= 1e-8 * abs(dx[0])):
            raise ParameterError(
                "UniformGridCubic requires a uniform grid: spacings "
                f"{dx.min():.6g} to {dx.max():.6g}")
        # c[k, i]: coefficient of (x - x_i)^(3-k) on piece i
        coef = fit_cubic(x, y, out).c
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
        """Vectorized evaluation (the massive-neutrino background
        factors, the thermal evaluators) by the compiled
        ``uniform_cubic``: bitwise-identical to looping :meth:`__call__`,
        whose index arithmetic and Horner grouping it transcribes.
        Accepts any input shape (the result has the same shape).
        """
        x = np.asarray(x, dtype=float)
        xc, out = np.ascontiguousarray(x), np.empty(x.shape)
        _cext.get_cext().uniform_raw(x.size, xc.ctypes.data, self.x0,
                                     self.dx, self.n, self._coef.ctypes.data,
                                     out.ctypes.data)
        return out


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
