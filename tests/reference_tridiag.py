"""Reference LAPACK's ``DGTSV`` in plain python (frozen reference).

The compiled ``tridiag_solve`` under every ``fit_cubic`` transcribes
:func:`tridiag_solve` line for line; ``tests/test_fastspline.py`` holds
the two to the same bits, and this one to scipy's ``dgtsv``.
:func:`solve_tridiagonal` puts it where ``fit_cubic`` calls the compiled
one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = ["tridiag_solve", "solve_tridiagonal"]


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
    """``repro.util.fastspline._solve_tridiagonal`` on :func:`tridiag_solve`:
    solve in place for the ``(n, nrhs)`` ``b``, raising its
    :class:`~repro.errors.ParameterError` on a zero pivot."""
    rows = b[:, 0].tolist() if b.shape[1] == 1 else list(b.copy())
    info = tridiag_solve(lower.tolist(), diag.tolist(), upper.tolist(), rows)
    b[...] = np.reshape(rows, b.shape)
    if info != 0:
        raise ParameterError(f"fit_cubic: zero pivot in row {info} of the "
                             "tridiagonal solve")
    return b
