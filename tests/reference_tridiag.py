"""Reference LAPACK's ``DGTSV`` in plain python, and the not-a-knot
system it solves under every spline fit (frozen reference).

The compiled ``tridiag_solve`` under every ``fit_cubic`` transcribes
:func:`tridiag_solve` line for line; ``tests/test_fastspline.py`` holds
the two to the same bits, and this one to scipy's ``dgtsv``.
:func:`not_a_knot` is the system the compiled ``cubic_fit`` assembles,
in numpy, and :func:`fit_coefficients` the whole fit on the python
solve: what ``fit_cubic`` did in numpy before ``cubic_fit`` took it
over, held to it bitwise (and scipy holds both).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = ["tridiag_solve", "solve_tridiagonal", "not_a_knot",
           "fit_coefficients"]


def tridiag_solve(dl: list, d: list, du: list, b: list) -> int:
    """Reference LAPACK's ``DGTSV`` on python lists, bitwise the
    compiled ``tridiag_solve`` (``repro._cext``, which documents it).
    ``b`` is a list of rows — floats for one right-hand side, arrays for
    several; every list is overwritten, ``b`` with the solution.
    Returns 0, or the 1-based row of an exactly zero pivot."""
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


def solve_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                      upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`tridiag_solve` on arrays: solve in place for the
    ``(n, nrhs)`` ``b``, raising ``fit_cubic``'s
    :class:`~repro.errors.ParameterError` on a zero pivot."""
    rows = b[:, 0].tolist() if b.shape[1] == 1 else list(b.copy())
    info = tridiag_solve(lower.tolist(), diag.tolist(), upper.tolist(), rows)
    b[...] = np.reshape(rows, b.shape)
    if info != 0:
        raise ParameterError(f"fit_cubic: zero pivot in row {info} of the "
                             "tridiagonal solve")
    return b


def not_a_knot(x: np.ndarray, y: np.ndarray):
    """The not-a-knot system of the spline through ``(x, y)``, ``n >= 3``
    knots, as ``(lower, diag, upper, b)`` with ``b`` shaped
    ``(n, nrhs)``: assembled expression for expression as scipy's
    ``CubicSpline`` assembles it, with the end spacings squared by libm
    ``pow`` as its 1-D fit squares them."""
    n = x.size
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
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
                + dx[0]**2 * slope[1]) / d
        diag[-1] = dx[-2]
        lower[-1] = d = x[-1] - x[-3]
        b[-1] = (dx[-1]**2 * slope[-2]
                 + (2*d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    return lower, diag, upper, b.reshape(n, -1)


def fit_coefficients(x: np.ndarray, y: np.ndarray,
                     solve=solve_tridiagonal) -> np.ndarray:
    """The ``(4, n - 1, ...)`` coefficients of the not-a-knot spline
    through ``(x, y)``, ``n >= 3`` knots: :func:`not_a_knot` solved by
    ``solve`` (the python twin unless given), then the cubic Hermite
    coefficients from values and slopes."""
    dx = np.diff(x)
    dxr = dx.reshape((x.size - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    s = solve(*not_a_knot(x, y)).reshape(y.shape)
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
    return c
